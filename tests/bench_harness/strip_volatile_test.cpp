#include <gtest/gtest.h>

#include <string>

#include "bench_harness/report.hpp"
#include "bench_harness/suite.hpp"

/// The storm replays write timings, rates and scheduling counters that
/// change with the thread count and dispatch interleaving. Their sections
/// live under the result document's volatile member, so adding one must
/// leave the stripped bytes of a real suite document untouched.

namespace lmr::bench {
namespace {

/// A real result document: the cheapest smoke family, serial.
Json suite_document() {
  SuiteOptions opts;
  opts.smoke = true;
  opts.families = {"saturated"};
  opts.threads = 1;
  return Suite::to_json(Suite(opts).run(), opts);
}

/// Place `storm` under the volatile member as section `key` and compare
/// the stripped bytes with and without it.
void expect_stripped_unchanged(const char* key, const StormOutcome& storm) {
  const Json doc = suite_document();
  Json with = doc;
  with[kVolatile][key] = Suite::storm_json({storm});
  ASSERT_NE(with.find(kVolatile)->find(key), nullptr);
  EXPECT_NE(with.dump(2), doc.dump(2));
  EXPECT_EQ(strip_volatile(with).dump(2), strip_volatile(doc).dump(2));
}

/// A one-point, one-board storm of `kind` with its counters, timings and a
/// mismatch message filled in.
StormOutcome sample_storm(const std::string& kind) {
  StormOutcome storm;
  storm.name = kind + "/smoke";
  storm.kind = kind;
  StormPoint point;
  point.threads = 4;
  point.replay_s = 0.25;
  point.edits_per_s = 16.0;
  point.totals.applied = 4;
  point.totals.quarantines = 2;
  point.drain_failures = 2;
  StormBoard board;
  board.board = "b0/multi_group";
  board.applied_at_drain = 1;
  board.stats.thaws = 1;
  board.stats.backoff_virtual_s = 0.07;
  board.mismatch = "member 0 geometry differs";
  point.boards.push_back(board);
  storm.points.push_back(point);
  return storm;
}

TEST(StripVolatile, ServiceSectionIsVolatile) {
  expect_stripped_unchanged("service", sample_storm("service"));
}

TEST(StripVolatile, FaultStormSectionIsVolatile) {
  // The dropped-vs-shed split even depends on dispatch timing. The hard
  // gates (end-state equivalence, fault gates) are enforced by
  // bench_suite's exit code, not by document comparison.
  expect_stripped_unchanged("fault_storm", sample_storm("quarantine"));
}

}  // namespace
}  // namespace lmr::bench
