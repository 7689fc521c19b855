#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "pipeline/router.hpp"
#include "scenario/scenario_families.hpp"
#include "workload/table1_cases.hpp"

/// Tests of the per-member extend → write-back → per-net-DRC closure: a
/// threaded route must be observationally identical to the serial one —
/// same geometry, same violations in the same order — on every scenario
/// family, and a member that throws mid-group must leave the layout
/// untouched.

namespace lmr::pipeline {
namespace {

RouterOptions bench_options() {
  RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  return opts;
}

void expect_identical_violations(const std::vector<layout::Violation>& a,
                                 const std::vector<layout::Violation>& b,
                                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << what << " #" << i;
    EXPECT_EQ(a[i].trace, b[i].trace) << what << " #" << i;
    EXPECT_EQ(a[i].other_trace, b[i].other_trace) << what << " #" << i;
    EXPECT_EQ(a[i].index_a, b[i].index_a) << what << " #" << i;
    EXPECT_EQ(a[i].index_b, b[i].index_b) << what << " #" << i;
    EXPECT_EQ(a[i].measured, b[i].measured) << what << " #" << i;
    EXPECT_EQ(a[i].required, b[i].required) << what << " #" << i;
  }
}

void expect_identical_results(const RouteResult& a, const RouteResult& b,
                              const std::string& what) {
  ASSERT_EQ(a.nets.size(), b.nets.size()) << what;
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].member.final_length, b.nets[i].member.final_length) << what;
    EXPECT_EQ(a.nets[i].member.patterns, b.nets[i].member.patterns) << what;
    expect_identical_violations(a.nets[i].violations, b.nets[i].violations,
                                what + "/net" + std::to_string(i));
  }
  expect_identical_violations(a.cross_violations, b.cross_violations, what + "/cross");
  EXPECT_EQ(a.group.max_error_pct, b.group.max_error_pct) << what;
  EXPECT_EQ(a.group.avg_error_pct, b.group.avg_error_pct) << what;
}

void expect_identical_geometry(const layout::Layout& a, const layout::Layout& b,
                               const std::string& what) {
  for (const auto& [id, t] : a.traces()) {
    const auto& mine = t.path.points();
    const auto& other = b.trace(id).path.points();
    ASSERT_EQ(mine.size(), other.size()) << what << " trace " << id;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i].x, other[i].x) << what << " trace " << id << " point " << i;
      EXPECT_EQ(mine[i].y, other[i].y) << what << " trace " << id << " point " << i;
    }
  }
  for (const auto& [id, p] : a.pairs()) {
    for (const auto sub : {&layout::DiffPair::positive, &layout::DiffPair::negative}) {
      const auto& mine = (p.*sub).path.points();
      const auto& other = (b.pair(id).*sub).path.points();
      ASSERT_EQ(mine.size(), other.size()) << what << " pair " << id;
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(mine[i].x, other[i].x) << what << " pair " << id << " point " << i;
        EXPECT_EQ(mine[i].y, other[i].y) << what << " pair " << id << " point " << i;
      }
    }
  }
}

/// Threaded vs serial on every smoke scenario family, including `table1`
/// whose dense diff cases carry real (expected) oracle violations — the
/// violation *sets and orders* must match, not just their counts. The
/// serial route runs every member's closure in member order, so it is the
/// reference the overlapped per-net checks of a threaded route must match.
TEST(PipelineOverlap, ThreadedMatchesSerialOnAllScenarioFamilies) {
  for (const std::string& fam_name : scenario::family_names()) {
    const scenario::Family fam = scenario::family(fam_name, /*smoke=*/true);
    for (std::size_t c = 0; c < fam.cases.size(); ++c) {
      scenario::Scenario serial_sc = scenario::materialize(fam.cases[c]);
      RouterOptions opts = bench_options();
      if (serial_sc.spec.extender_tolerance > 0.0) {
        opts.extender.tolerance = serial_sc.spec.extender_tolerance;
      }
      if (serial_sc.pair_rule_set.size() > 1) {
        opts.pair_rule_set = serial_sc.pair_rule_set;
      }
      opts.threads = 1;
      const std::vector<RouteResult> reference =
          Router(serial_sc.rules, opts).route_all(serial_sc.layout);

      for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        scenario::Scenario sc = scenario::materialize(fam.cases[c]);
        RouterOptions topts = opts;
        topts.threads = threads;
        const std::vector<RouteResult> threaded =
            Router(sc.rules, topts).route_all(sc.layout);

        const std::string what =
            fam_name + "/case" + std::to_string(c) + "/t" + std::to_string(threads);
        ASSERT_EQ(threaded.size(), reference.size()) << what;
        for (std::size_t g = 0; g < threaded.size(); ++g) {
          expect_identical_results(threaded[g], reference[g],
                                   what + "/g" + std::to_string(g));
        }
        expect_identical_geometry(sc.layout, serial_sc.layout, what);
      }
    }
  }
}

/// A board where exactly one member's extension throws (its initial length
/// already exceeds the group target): sibling members have extended and
/// written back by then, so the rollback must restore *their* geometry too
/// — the layout stays untouched at every thread count.
TEST(PipelineOverlap, PartiallyFailedGroupLeavesLayoutUntouched) {
  const auto make_board = [](drc::DesignRules& rules) {
    layout::Layout l;
    layout::MatchGroup g;
    g.name = "g0";
    g.target_length = 50.0;
    for (int i = 0; i < 6; ++i) {
      layout::Trace t;
      t.name = "t" + std::to_string(i);
      const double y = i * 10.0;
      // Member 3 is born longer than the target: its extension throws while
      // the cheap members may already be through their whole closure.
      const double len = i == 3 ? 60.0 : 30.0;
      t.path = geom::Polyline{{{0, y}, {len, y}}};
      const auto id = l.add_trace(t);
      layout::RoutableArea area;
      area.outline = geom::Polygon::rect({{-1, y - 4.5}, {66, y + 4.5}});
      l.set_routable_area(id, area);
      g.members.push_back({layout::MemberKind::SingleEnded, id});
    }
    l.add_group(g);
    rules = drc::DesignRules{};
    rules.gap = 1.0;
    rules.obs = 0.5;
    rules.protect = 0.5;
    return l;
  };

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    drc::DesignRules rules;
    layout::Layout l = make_board(rules);
    const layout::Layout before = l;

    RouterOptions opts;
    opts.threads = threads;
    const Router router(rules, opts);
    const std::string what = "t" + std::to_string(threads);
    EXPECT_THROW((void)router.route_batch(l), std::invalid_argument) << what;
    expect_identical_geometry(before, l, what);
  }
}

/// The member fan-out is deterministic across thread counts on a board
/// with genuine violations: identical geometry and identical violation
/// sequences, not merely equal counts.
TEST(PipelineOverlap, DeterministicViolationsAcrossThreadCounts) {
  auto reference_case = workload::table1_case(5);  // dense diff: real violations
  RouterOptions ref_opts = bench_options();
  ref_opts.threads = 1;
  const RouteResult reference =
      Router(reference_case.rules, ref_opts).route_batch(reference_case.layout);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    auto c = workload::table1_case(5);
    RouterOptions opts = bench_options();
    opts.threads = threads;
    const RouteResult res = Router(c.rules, opts).route_batch(c.layout);
    expect_identical_results(res, reference, "t" + std::to_string(threads));
    expect_identical_geometry(reference_case.layout, c.layout,
                              "t" + std::to_string(threads));
  }
}

/// Per-stage timing split: the volatile fields split the oracle cost into its
/// per-net and barrier parts and stay zero when DRC is disabled.
TEST(PipelineOverlap, TimingSplitIsConsistent) {
  auto c = workload::table1_case(3);
  const Router router(c.rules, bench_options());
  const RouteResult res = router.route_batch(c.layout);
  EXPECT_GT(res.extend_runtime_s, 0.0);
  EXPECT_GT(res.drc_overlap_runtime_s, 0.0);
  EXPECT_GE(res.drc_barrier_runtime_s, 0.0);

  auto c2 = workload::table1_case(3);
  RouterOptions no_drc = bench_options();
  no_drc.run_drc = false;
  const RouteResult res2 = Router(c2.rules, no_drc).route_batch(c2.layout);
  EXPECT_EQ(res2.drc_overlap_runtime_s, 0.0);
  EXPECT_EQ(res2.drc_barrier_runtime_s, 0.0);
}

}  // namespace
}  // namespace lmr::pipeline
