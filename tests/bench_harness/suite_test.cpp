#include "bench_harness/suite.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench_harness/report.hpp"

namespace lmr::bench {
namespace {

SuiteOptions tiny_options() {
  SuiteOptions opts;
  opts.smoke = true;
  // Two cheap families: one generated sweep and the saturation probe.
  opts.families = {"obstacle_sweep", "saturated"};
  opts.threads = 2;
  return opts;
}

TEST(Suite, RunsSelectedFamilies) {
  const Suite suite(tiny_options());
  const SuiteResult result = suite.run();
  ASSERT_GE(result.cases.size(), 3u);  // two sweep densities + saturated
  for (const CaseOutcome& c : result.cases) {
    EXPECT_TRUE(c.family == "obstacle_sweep" || c.family == "saturated") << c.family;
    ASSERT_FALSE(c.groups.empty());
    for (const GroupOutcome& g : c.groups) {
      EXPECT_GT(g.members, 0u);
      EXPECT_GT(g.target, 0.0);
      EXPECT_GE(g.initial_max_error_pct, g.initial_avg_error_pct);
    }
  }
  EXPECT_TRUE(result.all_ok());
}

TEST(Suite, SaturatedCaseIsCleanButUnmatched) {
  SuiteOptions opts;
  opts.smoke = true;
  opts.families = {"saturated"};
  const SuiteResult result = Suite(opts).run();
  ASSERT_EQ(result.cases.size(), 1u);
  const CaseOutcome& c = result.cases[0];
  EXPECT_FALSE(c.matched());
  EXPECT_TRUE(c.drc_clean());
  EXPECT_TRUE(c.ok());  // no error gate on the capacity probe
  EXPECT_GT(c.worst_error_pct(), 10.0);
}

TEST(Suite, UnknownFamilyThrows) {
  SuiteOptions opts;
  opts.families = {"definitely_not_a_family"};
  EXPECT_THROW((void)Suite(opts).run(), std::out_of_range);
}

TEST(Suite, JsonFollowsSchema) {
  const SuiteOptions opts = tiny_options();
  const SuiteResult result = Suite(opts).run();
  const Json doc = Suite::to_json(result, opts);

  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), Suite::kSchema);
  // The volatile member takes the slot right after the schema.
  ASSERT_GE(doc.size(), 2u);
  EXPECT_EQ(doc.members()[1].first, kVolatile);
  const Json* vol = doc.find(kVolatile);
  ASSERT_NE(vol, nullptr);
  ASSERT_NE(vol->find("run"), nullptr);
  EXPECT_NE(vol->find("run")->find("host"), nullptr);
  EXPECT_NE(vol->find("runtime_s"), nullptr);
  ASSERT_NE(doc.find("families"), nullptr);
  ASSERT_NE(doc.find("specs"), nullptr);
  EXPECT_EQ(doc.find("families")->items().size(), 2u);
  EXPECT_EQ(doc.find("runtime_s"), nullptr);

  const Json& fam0 = doc.find("families")->items()[0];
  ASSERT_NE(fam0.find("cases"), nullptr);
  const Json& case0 = fam0.find("cases")->items()[0];
  for (const char* key : {"scenario", "seed", "ok", "groups"}) {
    EXPECT_NE(case0.find(key), nullptr) << key;
  }
  EXPECT_EQ(case0.find("runtime_s"), nullptr);
  const Json& group0 = case0.find("groups")->items()[0];
  for (const char* key : {"group", "target", "max_error_pct", "avg_error_pct", "matched",
                          "net_violations", "cross_violations"}) {
    EXPECT_NE(group0.find(key), nullptr) << key;
  }
  EXPECT_EQ(group0.find("runtime_s"), nullptr);

  // The timing table: one entry per case and per group, in run order.
  ASSERT_NE(vol->find("timing"), nullptr);
  const Json::Array& timing = vol->find("timing")->items();
  ASSERT_EQ(timing.size(), result.cases.size());
  for (std::size_t i = 0; i < timing.size(); ++i) {
    const CaseOutcome& c = result.cases[i];
    EXPECT_EQ(timing[i].find("family")->as_string(), c.family);
    EXPECT_EQ(timing[i].find("scenario")->as_string(), c.scenario);
    EXPECT_EQ(timing[i].find("runtime_s")->as_double(), c.runtime_s);
    const Json::Array& groups = timing[i].find("groups")->items();
    ASSERT_EQ(groups.size(), c.groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      EXPECT_EQ(groups[g].find("group")->as_string(), c.groups[g].group);
      for (const char* key : {"runtime_s", "extend_runtime_s", "drc_overlap_runtime_s",
                              "drc_barrier_runtime_s"}) {
        EXPECT_NE(groups[g].find(key), nullptr) << key;
      }
    }
  }

  // Round trip through the parser.
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(Suite, RerunIsBitIdenticalModuloTiming) {
  // The tracked-results contract: same seeds in, byte-identical stripped
  // document out — including every routed metric.
  const SuiteOptions opts = tiny_options();
  const Json a = Suite::to_json(Suite(opts).run(), opts);
  const Json b = Suite::to_json(Suite(opts).run(), opts);
  EXPECT_EQ(strip_volatile(a).dump(2), strip_volatile(b).dump(2));
}

TEST(Suite, ThreadCountDoesNotChangeMetrics) {
  SuiteOptions seq = tiny_options();
  seq.threads = 1;
  SuiteOptions par = tiny_options();
  par.threads = 8;
  const Json a = Suite::to_json(Suite(seq).run(), seq);
  const Json b = Suite::to_json(Suite(par).run(), par);
  EXPECT_EQ(strip_volatile(a).dump(2), strip_volatile(b).dump(2));
}

TEST(Suite, RecordsParallelismContextAsVolatile) {
  SuiteOptions opts = tiny_options();
  opts.threads = 3;
  const Json doc = Suite::to_json(Suite(opts).run(), opts);

  // The run object names the effective worker count and pool policy...
  ASSERT_NE(doc.find(kVolatile), nullptr);
  const Json* run = doc.find(kVolatile)->find("run");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(run->find("threads_used"), nullptr);
  EXPECT_EQ(run->find("threads_used")->as_int(), 3);
  ASSERT_NE(run->find("pool_policy"), nullptr);
  EXPECT_EQ(run->find("pool_policy")->as_string(), "explicit-pool");

  // ...and it is volatile context: the stripped document must not contain
  // it, or thread counts would change the tracked quality bytes.
  const std::string stripped = strip_volatile(doc).dump(2);
  EXPECT_EQ(stripped.find("threads_used"), std::string::npos);
  EXPECT_EQ(stripped.find("pool_policy"), std::string::npos);
}

TEST(Suite, PoolPolicySelection) {
  SuiteOptions serial = tiny_options();
  serial.threads = 1;
  EXPECT_EQ(Suite(serial).pool(), nullptr);

  SuiteOptions shared = tiny_options();
  shared.threads = 0;
  EXPECT_EQ(Suite(shared).pool(), &exec::TaskPool::shared());

  SuiteOptions pinned = tiny_options();
  pinned.threads = 4;
  const Suite suite(pinned);
  ASSERT_NE(suite.pool(), nullptr);
  EXPECT_NE(suite.pool(), &exec::TaskPool::shared());
  EXPECT_EQ(suite.pool()->parallelism(), 4u);

  // The service and fault storms replay serially first.
  EXPECT_FALSE(Suite::default_scaling_threads().empty());
  EXPECT_EQ(Suite::default_scaling_threads().front(), 1u);
}

const StormOutcome& storm_of_kind(const std::vector<StormOutcome>& storms,
                                  const std::string& kind) {
  for (const StormOutcome& s : storms) {
    if (s.kind == kind) return s;
  }
  throw std::out_of_range("no " + kind + " storm");
}

TEST(Suite, StormReplaysMeetTheirGates) {
  SuiteOptions opts;
  opts.smoke = true;
  const Suite suite(opts);

  const std::vector<StormOutcome> service = suite.run_service({1, 2});
  ASSERT_EQ(service.size(), 1u);
  for (const StormOutcome& s : service) EXPECT_TRUE(s.all_ok()) << s.name;
  ASSERT_EQ(service[0].points.size(), 2u);
  // At one thread the service's own totals prove the stream went through
  // the shared replay: every event applied, and its evict marker evicted
  // boards that later thawed.
  const StormPoint& serial = service[0].points[0];
  EXPECT_EQ(serial.threads, 1u);
  EXPECT_EQ(serial.totals.submitted, service[0].events);
  EXPECT_EQ(serial.totals.applied, service[0].events);
  EXPECT_GT(serial.totals.evictions, 0u);
  EXPECT_GT(serial.totals.thaws, 0u);
  EXPECT_GT(serial.totals.coalesced_batches, 0u);
  EXPECT_EQ(serial.drain_failures, 0u);

  const std::vector<StormOutcome> faults = suite.run_fault_storm({1});
  for (const StormOutcome& s : faults) EXPECT_TRUE(s.all_ok()) << s.name;
  const StormOutcome& quarantine = storm_of_kind(faults, "quarantine");
  ASSERT_EQ(quarantine.points.size(), 1u);
  const StormPoint& q = quarantine.points[0];
  EXPECT_EQ(q.totals.quarantines, 2u);
  EXPECT_EQ(q.totals.resurrections, 2u);
  EXPECT_GT(q.drain_failures, 0u);
}

}  // namespace
}  // namespace lmr::bench
