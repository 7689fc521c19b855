#include "layout/drc_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "clearance_oracle.hpp"
#include "geom/distance.hpp"
#include "layout/clearance_index.hpp"
#include "scenario/scenario_families.hpp"

namespace lmr::layout {
namespace {

/// Brute-force references for the two prefiltered checks: check_trace and
/// check_containment as they were before their bbox prefilters, kept
/// verbatim (RoutableArea::contains is still the unfiltered hole loop).
namespace reference {

using geom::Point;
using geom::Segment;
using geom::Vec2;

double parallel_overlap(const Segment& s1, const Segment& s2) {
  const auto overlap_on = [](const Segment& base, const Segment& other) {
    const Vec2 u = base.unit();
    const double a0 = 0.0;
    const double a1 = base.length();
    double b0 = geom::dot(other.a - base.a, u);
    double b1 = geom::dot(other.b - base.a, u);
    if (b0 > b1) std::swap(b0, b1);
    return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
  };
  if (s1.degenerate() || s2.degenerate()) return 0.0;
  return std::min(overlap_on(s1, s2), overlap_on(s2, s1));
}

bool is_chamfer_stub(const geom::Polyline& path, std::size_t seg_idx) {
  const Segment s = path.segment(seg_idx);
  const Vec2 u = s.unit();
  const auto angle_ok = [&](const Segment& nb) {
    if (nb.degenerate()) return false;
    const double c = std::abs(geom::dot(u, nb.unit()));
    return c > 0.5 && c < 0.9;
  };
  if (seg_idx > 0 && angle_ok(path.segment(seg_idx - 1))) return true;
  if (seg_idx + 1 < path.segment_count() && angle_ok(path.segment(seg_idx + 1))) return true;
  return false;
}

std::vector<Violation> check_trace(const Trace& t, const drc::DesignRules& rules,
                                   const DrcCheckOptions& opts) {
  std::vector<Violation> out;
  const auto& path = t.path;
  const std::size_t n = path.segment_count();
  for (std::size_t i = 0; i < n; ++i) {
    const double len = path.segment(i).length();
    if (len + opts.tolerance < rules.protect) {
      if (opts.allow_chamfer_stubs && is_chamfer_stub(path, i)) continue;
      out.push_back({ViolationKind::MinSegmentLength, t.id, 0, i, 0, len, rules.protect,
                     "segment shorter than d_protect"});
    }
  }
  const double gap = rules.effective_gap();
  constexpr double kNearParallel = 0.866;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; ++j) {
      const Segment si = path.segment(i);
      const Segment sj = path.segment(j);
      const double d = geom::dist_segment_segment(si, sj);
      if (d + opts.tolerance >= gap) continue;
      if (parallel_overlap(si, sj) <= opts.tolerance) continue;
      if (si.degenerate() || sj.degenerate()) continue;
      if (std::abs(geom::dot(si.unit(), sj.unit())) < kNearParallel) continue;
      out.push_back({ViolationKind::SelfGap, t.id, 0, i, j, d, gap,
                     "parallel same-net segments closer than effective gap"});
    }
  }
  if (rules.miter > 0.0) {
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const Vec2 in_dir = path[i] - path[i - 1];
      const Vec2 out_dir = path[i + 1] - path[i];
      if (in_dir.norm() <= geom::kEps || out_dir.norm() <= geom::kEps) continue;
      if (geom::dot(in_dir.normalized(), out_dir.normalized()) <= opts.tolerance) {
        out.push_back({ViolationKind::CornerAngle, t.id, 0, i, 0,
                       geom::dot(in_dir.normalized(), out_dir.normalized()), 0.0,
                       "right/acute corner present while d_miter demands obtuse"});
      }
    }
  }
  return out;
}

std::vector<Violation> check_containment(const Trace& t, const RoutableArea& area) {
  std::vector<Violation> out;
  if (area.outline.empty()) return out;
  for (std::size_t i = 0; i < t.path.size(); ++i) {
    if (!area.contains(t.path[i])) {
      out.push_back({ViolationKind::AreaContainment, t.id, 0, i, 0, 0.0, 0.0,
                     "vertex outside routable area"});
    }
  }
  for (std::size_t i = 0; i < t.path.segment_count(); ++i) {
    const Point mid = t.path.segment(i).midpoint();
    if (!area.contains(mid)) {
      out.push_back({ViolationKind::AreaContainment, t.id, 0, i, 0, 0.0, 0.0,
                     "segment midpoint outside routable area"});
    }
  }
  return out;
}

}  // namespace reference

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Field-for-field, in-order equality of two violation lists.
void expect_same_violations(const std::vector<Violation>& got,
                            const std::vector<Violation>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const Violation& a = got[k];
    const Violation& b = want[k];
    EXPECT_EQ(a.kind, b.kind) << where << " #" << k;
    EXPECT_EQ(a.trace, b.trace) << where << " #" << k;
    EXPECT_EQ(a.other_trace, b.other_trace) << where << " #" << k;
    EXPECT_EQ(a.index_a, b.index_a) << where << " #" << k;
    EXPECT_EQ(a.index_b, b.index_b) << where << " #" << k;
    EXPECT_EQ(bits(a.measured), bits(b.measured)) << where << " #" << k;
    EXPECT_EQ(bits(a.required), bits(b.required)) << where << " #" << k;
    EXPECT_EQ(a.note, b.note) << where << " #" << k;
  }
}

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

TEST(DrcChecker, LayoutSweepMatchesTheBruteForceObstacleScan) {
  // check_layout filters obstacles through one ObstacleIndex per call. Its
  // output must equal, field for field and in order, the same sweep spelled
  // out with the every-obstacle overload. The obstacle rule is inflated so
  // the generated boards (born legal) give the comparison real violations.
  for (const char* name : {"obstacle_sweep", "mixed_se_diff", "mega_board"}) {
    const scenario::Scenario sc = scenario::materialize(scenario::family(name, true).cases.at(0));
    const Layout& l = sc.layout;
    drc::DesignRules r = sc.rules;
    r.obs *= 3.0;
    const DrcChecker checker;
    std::vector<Violation> want;
    const auto append = [&want](const std::vector<Violation>& v) {
      want.insert(want.end(), v.begin(), v.end());
    };
    ClearanceIndex index(r);
    std::size_t obstacle_hits = 0;
    const auto check_one = [&](const Trace& t, const drc::DesignRules& tr,
                               const RoutableArea* area, std::uint32_t net) {
      append(checker.check_trace(t, tr));
      const auto obs = checker.check_obstacles(t, tr, l.obstacles());
      obstacle_hits += obs.size();
      append(obs);
      if (area != nullptr) append(checker.check_containment(t, *area));
      index.insert(index.add_slot(t.width, net), t);
    };
    std::uint32_t net = 0;
    for (const auto& [id, t] : l.traces()) check_one(t, r, l.routable_area(id), net++);
    for (const auto& [id, pair] : l.pairs()) {
      drc::DesignRules pair_rules = r;
      pair_rules.trace_width = pair.positive.width;
      check_one(pair.positive, pair_rules, l.routable_area(id), net);
      check_one(pair.negative, pair_rules, l.routable_area(id), net++);
    }
    append(index.sweep());
    EXPECT_GT(obstacle_hits, 0u) << name << ": the inflated rule must reach obstacles";
    EXPECT_TRUE(oracle::same_violations(checker.check_layout(l, r), want)) << name;
  }
}

TEST(DrcChecker, ContainmentMatchesUnfilteredHoleLoop) {
  // Vertices on hole edges and corners, around each hole's bbox at 0,
  // +-kEps/2, +-kEps, +-2kEps, +-1e-7 and just inside / outside the
  // prefilter margin, plus random points; every consecutive pair adds a
  // segment midpoint. Holes: rectangles, triangles, octagons, a hole with a
  // NaN vertex (no prefilter for it). Scales 1, 1e-3 and 1e4.
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  constexpr std::array<double, 13> kNear{0.0,  5e-10, -5e-10, 1e-9,        -1e-9,
                                         2e-9, -2e-9, 1e-7,   -1e-7,       1e-6 - 1e-9,
                                         1e-6 + 1e-9, -1e-6, 3e-6};
  int flagged = 0;
  for (int c = 0; c < 200; ++c) {
    const double scale = c % 3 == 0 ? 1.0 : c % 3 == 1 ? 1e-3 : 1e4;
    RoutableArea area;
    area.outline = geom::Polygon::rect({{0.0, 0.0}, {40.0 * scale, 30.0 * scale}});
    for (int h = 0; h < 4; ++h) {
      const geom::Point at{(4.0 + 30.0 * u(rng)) * scale, (4.0 + 20.0 * u(rng)) * scale};
      const double r = (0.5 + 3.0 * u(rng)) * scale;
      const int shape = (c + h) % 3;
      area.holes.push_back(
          shape == 0   ? geom::Polygon::rect({at, {at.x + r, at.y + 0.7 * r}})
          : shape == 1 ? geom::Polygon{{at, {at.x + r, at.y}, {at.x, at.y + r}}}
                       : geom::Polygon::regular(at, r, 8, 0.3));
    }
    if (c % 10 == 7) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      const double lo = 10.0 * scale, hi = 20.0 * scale;
      area.holes.push_back(geom::Polygon{{{lo, lo}, {nan, nan}, {hi, hi}, {lo, hi}}});
    }
    std::vector<geom::Point> pts;
    for (const geom::Polygon& hole : area.holes) {
      for (std::size_t k = 0; k < hole.size(); ++k) {
        pts.push_back(hole[k]);                  // corner
        pts.push_back(hole.edge(k).at(u(rng)));  // on an edge
      }
      const geom::Box b = hole.bbox();
      for (int k = 0; k < 6; ++k) {
        const double d = kNear[static_cast<std::size_t>(c + k) % kNear.size()];
        const double y = b.lo.y + (b.hi.y - b.lo.y) * u(rng);
        const double x = b.lo.x + (b.hi.x - b.lo.x) * u(rng);
        pts.push_back({b.lo.x - d, y});
        pts.push_back({b.hi.x + d, y});
        pts.push_back({x, b.lo.y - d});
        pts.push_back({x, b.hi.y + d});
        pts.push_back({b.hi.x + d, b.hi.y + d});
      }
    }
    for (int k = 0; k < 20; ++k) pts.push_back({45.0 * scale * u(rng), 35.0 * scale * u(rng)});
    std::shuffle(pts.begin(), pts.end(), rng);
    const Trace t = make_trace(pts, static_cast<TraceId>(c));
    const auto want = reference::check_containment(t, area);
    expect_same_violations(DrcChecker{}.check_containment(t, area), want,
                           "case " + std::to_string(c));
    flagged += static_cast<int>(want.size());
  }
  EXPECT_GT(flagged, 1000);
}

TEST(DrcChecker, SelfGapMatchesUnfilteredPairLoop) {
  // Serpentines whose leg spacing sits at the effective gap, gap +- 1e-9,
  // and at the prefilter's own boundary gap - tolerance + 1e-6 (+- 1e-9),
  // rotated by random angles, plus random walks; tolerance 0, 1e-6 and
  // -1e-3 (nothing validates its sign), miter on and off, scales 1, 1e-3
  // and 1e4. Every rule of check_trace is compared, in order.
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  constexpr std::array<double, 3> kTolerances{0.0, 1e-6, -1e-3};
  int self_gaps = 0, cases = 0;
  for (int c = 0; c < 240; ++c) {
    const double scale = c % 3 == 0 ? 1.0 : c % 3 == 1 ? 1e-3 : 1e4;
    const double tol = kTolerances[static_cast<std::size_t>(c / 3) % kTolerances.size()];
    drc::DesignRules r;
    r.gap = 1.0 * scale;
    r.trace_width = 0.2 * scale;
    r.protect = 0.5 * scale;
    r.miter = c % 4 == 0 ? 0.2 * scale : 0.0;
    const double gap = r.effective_gap();
    const double edge = gap - tol + 1e-6;  // the prefilter's own boundary
    const std::array<double, 7> spacings{gap,         gap + 1e-9,  gap - 1e-9,          edge,
                                         edge + 1e-9, edge - 1e-9, gap * (0.5 + u(rng))};
    std::vector<geom::Point> pts{{0.0, 0.0}};
    if (c % 5 != 4) {
      // Serpentine: up-legs and down-legs `spacing` apart, heights varying.
      double x = 0.0;
      for (int leg = 0; leg < 12; ++leg) {
        const double spacing = spacings[static_cast<std::size_t>(leg + c) % spacings.size()];
        const double h = (1.0 + 2.0 * u(rng)) * scale;
        pts.push_back({x, h});
        x += spacing;
        pts.push_back({x, h});
        pts.push_back({x, 0.0});
        x += spacing;
        pts.push_back({x, 0.0});
      }
    } else {
      // Random walk in a small box: many near pairs at every angle.
      geom::Point at{0.0, 0.0};
      for (int k = 0; k < 40; ++k) {
        const double a = 6.283185307179586 * u(rng);
        at = at + geom::Vec2{std::cos(a), std::sin(a)} * ((0.2 + 2.0 * u(rng)) * scale);
        pts.push_back(at);
      }
    }
    if (c % 2 == 1) {
      // Rotate about the origin: bboxes no longer hug the segments.
      const double a = u(rng);
      for (geom::Point& p : pts) {
        p = {p.x * std::cos(a) - p.y * std::sin(a), p.x * std::sin(a) + p.y * std::cos(a)};
      }
    }
    if (c % 20 == 13) pts[5].x = std::numeric_limits<double>::infinity();  // no prefilter
    const Trace t = make_trace(pts, static_cast<TraceId>(c));
    const DrcCheckOptions opts{tol, c % 7 != 0};
    const auto want = reference::check_trace(t, r, opts);
    expect_same_violations(DrcChecker{opts}.check_trace(t, r), want,
                           "case " + std::to_string(c) + " tolerance " + std::to_string(tol));
    for (const Violation& v : want) self_gaps += v.kind == ViolationKind::SelfGap ? 1 : 0;
    ++cases;
  }
  EXPECT_GT(self_gaps, cases);
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
