#include "layout/drc_checker.hpp"

#include <gtest/gtest.h>

namespace lmr::layout {
namespace {

drc::DesignRules rules() {
  drc::DesignRules r;
  r.gap = 1.0;
  r.obs = 1.0;
  r.protect = 0.5;
  r.trace_width = 0.0;
  return r;
}

Trace make_trace(std::vector<geom::Point> pts, TraceId id = 1) {
  Trace t;
  t.id = id;
  t.path = geom::Polyline{std::move(pts)};
  return t;
}

TEST(DrcChecker, CleanStraightTrace) {
  const Trace t = make_trace({{0, 0}, {10, 0}});
  DrcChecker c;
  EXPECT_TRUE(c.check_trace(t, rules()).empty());
}

TEST(DrcChecker, CleanSerpentine) {
  // Legs 1 apart (= gap), heights 2: legal serpentine.
  const Trace t = make_trace(
      {{0, 0}, {1, 0}, {1, 2}, {2, 2}, {2, 0}, {3, 0}, {3, 2}, {4, 2}, {4, 0}, {10, 0}});
  DrcChecker c;
  const auto v = c.check_trace(t, rules());
  EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0].note);
}

TEST(DrcChecker, ShortSegmentFlagged) {
  const Trace t = make_trace({{0, 0}, {5, 0}, {5, 0.2}, {10, 0.2}});
  DrcChecker c;
  const auto v = c.check_trace(t, rules());
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].kind, ViolationKind::MinSegmentLength);
  EXPECT_NEAR(v[0].measured, 0.2, 1e-9);
}

TEST(DrcChecker, TightParallelLegsFlagged) {
  // Two up-legs only 0.5 apart (< gap 1.0).
  const Trace t = make_trace(
      {{0, 0}, {2, 0}, {2, 3}, {2.5, 3}, {2.5, 0}, {3.0, 0}, {3.0, 3}, {3.5, 3}, {3.5, 0}, {6, 0}});
  DrcChecker c;
  const auto v = c.check_trace(t, rules());
  bool has_self_gap = false;
  for (const auto& viol : v) has_self_gap |= viol.kind == ViolationKind::SelfGap;
  EXPECT_TRUE(has_self_gap);
}

TEST(DrcChecker, OppositeSideProtectSpacingLegal) {
  // Up pattern, 0.5 (= protect) stub, down pattern: legal by the paper's
  // opposite-direction rule; the checker must not flag it.
  const Trace t = make_trace(
      {{0, 0}, {2, 0}, {2, 2}, {4, 2}, {4, 0}, {4.5, 0}, {4.5, -2}, {6.5, -2}, {6.5, 0}, {10, 0}});
  DrcChecker c;
  const auto v = c.check_trace(t, rules());
  EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0].note);
}

TEST(DrcChecker, ConnectedOppositePatternsLegal) {
  // Two patterns sharing a foot: the leg crosses the base in one straight
  // line; no violation.
  const Trace t = make_trace(
      {{0, 0}, {2, 0}, {2, 2}, {4, 2}, {4, -2}, {6, -2}, {6, 0}, {10, 0}});
  DrcChecker c;
  const auto v = c.check_trace(t, rules());
  EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0].note);
}

TEST(DrcChecker, ObstacleClearance) {
  const Trace t = make_trace({{0, 0}, {10, 0}});
  std::vector<Obstacle> obs;
  obs.push_back({geom::Polygon::rect({{4, 0.4}, {6, 2}}), "via"});
  DrcChecker c;
  const auto v = c.check_obstacles(t, rules(), obs);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, ViolationKind::ObstacleClearance);
  EXPECT_NEAR(v[0].measured, 0.4, 1e-9);
}

TEST(DrcChecker, ObstacleFarEnough) {
  const Trace t = make_trace({{0, 0}, {10, 0}});
  std::vector<Obstacle> obs;
  obs.push_back({geom::Polygon::rect({{4, 1.5}, {6, 3}}), "via"});
  DrcChecker c;
  EXPECT_TRUE(c.check_obstacles(t, rules(), obs).empty());
}

TEST(DrcChecker, ContainmentViolation) {
  const Trace t = make_trace({{0, 0}, {10, 0}, {10, 20}});
  RoutableArea area;
  area.outline = geom::Polygon::rect({{-1, -1}, {12, 5}});
  DrcChecker c;
  const auto v = c.check_containment(t, area);
  EXPECT_FALSE(v.empty());
  EXPECT_EQ(v[0].kind, ViolationKind::AreaContainment);
}

TEST(DrcChecker, ContainmentWithHole) {
  const Trace t = make_trace({{0, 0}, {10, 0}});
  RoutableArea area;
  area.outline = geom::Polygon::rect({{-1, -1}, {12, 5}});
  area.holes.push_back(geom::Polygon::rect({{4, -0.5}, {6, 0.5}}));
  DrcChecker c;
  const auto v = c.check_containment(t, area);
  EXPECT_FALSE(v.empty());  // midpoint at x=5 inside the hole
}

TEST(DrcChecker, TraceGapBetweenDifferentTraces) {
  const Trace a = make_trace({{0, 0}, {10, 0}}, 1);
  const Trace b = make_trace({{0, 0.5}, {10, 0.5}}, 2);
  DrcChecker c;
  const auto v = c.check_trace_pair(a, b, rules());
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].kind, ViolationKind::TraceGap);
  EXPECT_EQ(v[0].trace, 1u);
  EXPECT_EQ(v[0].other_trace, 2u);
}

TEST(DrcChecker, TraceGapRespectsWidths) {
  Trace a = make_trace({{0, 0}, {10, 0}}, 1);
  Trace b = make_trace({{0, 1.2}, {10, 1.2}}, 2);
  a.width = 0.4;
  b.width = 0.4;
  DrcChecker c;
  // Required: 1.0 + (0.4+0.4)/2 = 1.4 > 1.2 -> violation.
  EXPECT_FALSE(c.check_trace_pair(a, b, rules()).empty());
  b.path = geom::Polyline{{{0, 1.5}, {10, 1.5}}};
  EXPECT_TRUE(c.check_trace_pair(a, b, rules()).empty());
}

TEST(DrcChecker, CornerAngleWithMiterRule) {
  drc::DesignRules r = rules();
  r.miter = 0.3;
  const Trace right_angle = make_trace({{0, 0}, {5, 0}, {5, 5}});
  const Trace mitered = make_trace({{0, 0}, {4.7, 0}, {5, 0.3}, {5, 5}});
  DrcChecker c;
  EXPECT_FALSE(c.check_trace(right_angle, r).empty());
  EXPECT_TRUE(c.check_trace(mitered, r).empty());
}

TEST(DrcChecker, ChamferStubsExemptFromMinLength) {
  drc::DesignRules r = rules();
  // Chamfer diagonal of length ~0.42 < protect 0.5 but at 45 degrees.
  const Trace t = make_trace({{0, 0}, {4.7, 0}, {5, 0.3}, {5, 5}});
  DrcChecker c;
  EXPECT_TRUE(c.check_trace(t, r).empty());
  DrcChecker strict{DrcCheckOptions{1e-6, /*allow_chamfer_stubs=*/false}};
  EXPECT_FALSE(strict.check_trace(t, r).empty());
}

TEST(DrcChecker, LayoutSweepAggregates) {
  Layout l;
  l.add_trace(make_trace({{0, 0}, {10, 0}}, 0));
  l.add_trace(make_trace({{0, 0.3}, {10, 0.3}}, 0));
  l.add_obstacle({geom::Polygon::rect({{4, 0.4}, {6, 2}}), "via"});
  DrcChecker c;
  const auto v = c.check_layout(l, rules());
  bool gap = false, obs_v = false;
  for (const auto& viol : v) {
    gap |= viol.kind == ViolationKind::TraceGap;
    obs_v |= viol.kind == ViolationKind::ObstacleClearance;
  }
  EXPECT_TRUE(gap);
  EXPECT_TRUE(obs_v);
}

TEST(DrcChecker, LayoutSweepChecksDifferentialPairs) {
  // A trace at y=0 and a pair whose N sub-trace runs 0.3 above it: N
  // violates the 1.25 effective gap against the trace. P runs 1.0 above N —
  // also inside the gap, but P and N are one net, so no TraceGap between
  // them. The pair's routable area stops short of P, so P's containment
  // check (against the pair's area) fires too.
  drc::DesignRules r;
  r.gap = 1.0;
  r.trace_width = 0.25;
  Layout l;
  Trace t = make_trace({{0, 0}, {10, 0}}, 1);
  t.width = 0.25;
  l.add_trace(t);
  DiffPair pair;
  pair.id = 2;
  pair.pitch = 1.0;
  pair.negative = make_trace({{0, 0.3}, {10, 0.3}}, 3);
  pair.positive = make_trace({{0, 1.3}, {10, 1.3}}, 4);
  pair.negative.width = pair.positive.width = 0.25;
  l.add_pair(pair);
  RoutableArea area;
  area.outline = geom::Polygon::rect({{-1, 0.1}, {11, 1.0}});
  (void)l.set_routable_area(2, area);

  const auto v = DrcChecker{}.check_layout(l, r);
  std::vector<Violation> gaps;
  std::vector<TraceId> uncontained;
  for (const Violation& viol : v) {
    if (viol.kind == ViolationKind::TraceGap) gaps.push_back(viol);
    if (viol.kind == ViolationKind::AreaContainment) uncontained.push_back(viol.trace);
  }
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].trace, 1u);
  EXPECT_EQ(gaps[0].other_trace, 3u);
  EXPECT_NEAR(gaps[0].measured, 0.3, 1e-12);
  ASSERT_FALSE(uncontained.empty());
  for (const TraceId id : uncontained) EXPECT_EQ(id, 4u);
}

TEST(ViolationKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(ViolationKind::SelfGap), "SelfGap");
  EXPECT_STREQ(to_string(ViolationKind::TraceGap), "TraceGap");
  EXPECT_STREQ(to_string(ViolationKind::MinSegmentLength), "MinSegmentLength");
  EXPECT_STREQ(to_string(ViolationKind::ObstacleClearance), "ObstacleClearance");
  EXPECT_STREQ(to_string(ViolationKind::AreaContainment), "AreaContainment");
  EXPECT_STREQ(to_string(ViolationKind::CornerAngle), "CornerAngle");
}

}  // namespace
}  // namespace lmr::layout
