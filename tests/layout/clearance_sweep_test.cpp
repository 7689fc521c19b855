#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "clearance_oracle.hpp"
#include "layout/clearance_index.hpp"
#include "scenario/scenario_generator.hpp"

/// One-shot clearance sweeps: declare every trace, insert them all, sweep
/// once — the shape DrcChecker::check_layout uses — checked against the
/// brute-force oracle.

namespace lmr::layout {
namespace {

using oracle::same_violations;

std::vector<Violation> sweep_once(const std::vector<oracle::Slot>& slots,
                                  const drc::DesignRules& rules) {
  ClearanceIndex index(rules);
  for (const oracle::Slot& s : slots) index.add_slot(s.trace->width, s.net);
  for (std::uint32_t i = 0; i < slots.size(); ++i) index.insert(i, *slots[i].trace);
  return index.sweep();
}

drc::DesignRules test_rules() {
  drc::DesignRules r;
  r.gap = 1.0;
  r.obs = 0.5;
  r.protect = 0.5;
  r.trace_width = 0.25;
  return r;
}

TEST(ClearanceSweep, FindsKnownViolationLikeNaive) {
  // Two parallel traces at 0.9 centerline: below gap + width = 1.25.
  Trace a, b, c;
  a.id = 1;
  a.width = 0.25;
  a.path = geom::Polyline{{{0, 0}, {20, 0}}};
  b.id = 2;
  b.width = 0.25;
  b.path = geom::Polyline{{{0, 0.9}, {20, 0.9}}};
  c.id = 3;
  c.width = 0.25;
  c.path = geom::Polyline{{{0, 10}, {20, 10}}};  // far away: clean

  const std::vector<oracle::Slot> slots{{&a, 0}, {&b, 1}, {&c, 2}};
  const auto rules = test_rules();
  const auto swept = sweep_once(slots, rules);
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0].kind, ViolationKind::TraceGap);
  EXPECT_EQ(swept[0].trace, 1u);
  EXPECT_EQ(swept[0].other_trace, 2u);
  EXPECT_NEAR(swept[0].measured, 0.9, 1e-12);
  EXPECT_TRUE(same_violations(swept, oracle::sweep(slots, rules)));
}

TEST(ClearanceSweep, SameNetPairsAreExempt) {
  Trace p, n;
  p.id = 1;
  p.width = 0.25;
  p.path = geom::Polyline{{{0, 0.4}, {20, 0.4}}};
  n.id = 2;
  n.width = 0.25;
  n.path = geom::Polyline{{{0, -0.4}, {20, -0.4}}};
  // Same net (a differential member): no check despite the 0.8 spacing.
  EXPECT_TRUE(sweep_once({{&p, 0}, {&n, 0}}, test_rules()).empty());
  // Different nets: violation.
  EXPECT_FALSE(sweep_once({{&p, 0}, {&n, 1}}, test_rules()).empty());
}

TEST(ClearanceSweep, EquivalentToNaiveOnGeneratedBoards) {
  // Dense generated boards with deliberately squeezed corridors so real
  // cross violations exist; the sweep must reproduce the oracle's
  // violations, in its order, on every seed.
  scenario::ScenarioSpec spec;
  spec.name = "test/sweep";
  spec.groups = 2;
  spec.members_per_group = 5;
  spec.corridor_length = 80.0;
  spec.band_height = 3.2;  // tight bands: initial bumps approach each other
  spec.vias_per_band = 6;
  spec.rules = test_rules();

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const scenario::Scenario sc = scenario::ScenarioGenerator(spec).generate(seed);
    std::vector<oracle::Slot> slots;
    std::uint32_t net = 0;
    for (const auto& [id, t] : sc.layout.traces()) {
      (void)id;
      slots.push_back({&t, net++});
    }
    EXPECT_TRUE(same_violations(sweep_once(slots, sc.rules), oracle::sweep(slots, sc.rules)))
        << "seed " << seed;
  }
}

TEST(ClearanceSweep, CrossBandViolationsDetected) {
  // Traces meandering to their band edges in adjacent bands: classic
  // cross-member squeeze. Must agree with the oracle including measured
  // distances.
  Trace a, b;
  a.id = 10;
  a.width = 0.2;
  a.path = geom::Polyline{{{0, 0}, {5, 0}, {5, 2}, {10, 2}, {10, 0}, {20, 0}}};
  b.id = 11;
  b.width = 0.2;
  b.path = geom::Polyline{{{0, 3}, {8, 3}, {8, 2.6}, {14, 2.6}, {14, 3}, {20, 3}}};
  const std::vector<oracle::Slot> slots{{&a, 0}, {&b, 1}};
  const auto rules = test_rules();
  const auto swept = sweep_once(slots, rules);
  EXPECT_FALSE(swept.empty());
  EXPECT_TRUE(same_violations(swept, oracle::sweep(slots, rules)));
}

TEST(ClearanceSweep, EmptyAndSingleInputs) {
  EXPECT_TRUE(sweep_once({}, test_rules()).empty());
  Trace a;
  a.id = 1;
  a.path = geom::Polyline{{{0, 0}, {10, 0}}};
  EXPECT_TRUE(sweep_once({{&a, 0}}, test_rules()).empty());
}

}  // namespace
}  // namespace lmr::layout
