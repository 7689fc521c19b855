#include "layout/drc_checker.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/distance.hpp"
#include "layout/clearance_index.hpp"

namespace lmr::layout {

namespace {

using geom::Point;
using geom::Segment;
using geom::Vec2;

/// Bbox prefilter margin of the per-net checks: three orders above kEps, and
/// far above the rounding of the exact predicates at any board scale.
constexpr double kPrefilterMargin = 1e-6;

bool is_finite(const Point& p) { return std::isfinite(p.x) && std::isfinite(p.y); }

/// Every point outside this box is neither inside `poly` nor within kEps of
/// its boundary, so Polygon::contains(p, false) is false there. The box is
/// the whole plane when a vertex is not finite: Box::expand drops NaN, the
/// ray cast does not.
geom::Box hole_reach(const geom::Polygon& poly) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  geom::Box b;
  for (const Point& p : poly.points()) {
    if (!is_finite(p)) return {{-kInf, -kInf}, {kInf, kInf}};
    b.expand(p);
  }
  return b.inflated(kPrefilterMargin);
}

/// Length of the mutual parallel overlap between two segments: the overlap
/// of s2's projection onto s1's axis with s1's own extent (and vice versa;
/// we take the smaller). Zero for perpendicular or merely corner-touching
/// placements.
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
  // A chamfer diagonal runs at roughly 45 degrees to at least one adjacent
  // segment (the mitered corner's arms).
  const Segment s = path.segment(seg_idx);
  const Vec2 u = s.unit();
  const auto angle_ok = [&](const Segment& nb) {
    if (nb.degenerate()) return false;
    const double c = std::abs(geom::dot(u, nb.unit()));
    return c > 0.5 && c < 0.9;  // ~25..60 degrees: chamfer-like
  };
  if (seg_idx > 0 && angle_ok(path.segment(seg_idx - 1))) return true;
  if (seg_idx + 1 < path.segment_count() && angle_ok(path.segment(seg_idx + 1))) return true;
  return false;
}

}  // namespace

const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::MinSegmentLength: return "MinSegmentLength";
    case ViolationKind::SelfGap: return "SelfGap";
    case ViolationKind::TraceGap: return "TraceGap";
    case ViolationKind::ObstacleClearance: return "ObstacleClearance";
    case ViolationKind::AreaContainment: return "AreaContainment";
    case ViolationKind::CornerAngle: return "CornerAngle";
  }
  return "?";
}

std::vector<Violation> DrcChecker::check_trace(const Trace& t,
                                               const drc::DesignRules& rules) const {
  std::vector<Violation> out;
  const auto& path = t.path;
  const std::size_t n = path.segment_count();

  for (std::size_t i = 0; i < n; ++i) {
    const double len = path.segment(i).length();
    if (len + opts_.tolerance < rules.protect) {
      if (opts_.allow_chamfer_stubs && is_chamfer_stub(path, i)) continue;
      out.push_back({ViolationKind::MinSegmentLength, t.id, 0, i, 0, len, rules.protect,
                     "segment shorter than d_protect"});
    }
  }

  const double gap = rules.effective_gap();
  // cos(30 deg): the self-gap rule targets coupled parallel runs; segments
  // meeting at wider angles (corner necks, perpendicular legs at joints)
  // are legal down to d_protect by the paper's transition rules.
  constexpr double kNearParallel = 0.866;
  // A pair's distance is at least its bboxes' separation on either axis, so
  // a pair separated by more than `skip_beyond` passes the first test below
  // whether or not d is computed. A non-finite coordinate turns the
  // prefilter off: d may then be NaN, and a NaN d never passes that test.
  const double skip_beyond = gap - opts_.tolerance + kPrefilterMargin;
  std::vector<geom::Box> boxes(n);
  for (std::size_t i = 0; i < n; ++i) boxes[i] = path.segment(i).bbox();
  const bool prefilter = std::all_of(path.points().begin(), path.points().end(), is_finite);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; ++j) {
      const geom::Box& bi = boxes[i];
      const geom::Box& bj = boxes[j];
      if (prefilter && std::max({bi.lo.x - bj.hi.x, bj.lo.x - bi.hi.x, bi.lo.y - bj.hi.y,
                                 bj.lo.y - bi.hi.y}) > skip_beyond) {
        continue;
      }
      const Segment si = path.segment(i);
      const Segment sj = path.segment(j);
      const double d = geom::dist_segment_segment(si, sj);
      if (d + opts_.tolerance >= gap) continue;
      if (parallel_overlap(si, sj) <= opts_.tolerance) continue;
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
      // Turn of >= 90 degrees <=> forward dot <= 0 (right angle included).
      if (geom::dot(in_dir.normalized(), out_dir.normalized()) <= opts_.tolerance) {
        out.push_back({ViolationKind::CornerAngle, t.id, 0, i, 0,
                       geom::dot(in_dir.normalized(), out_dir.normalized()), 0.0,
                       "right/acute corner present while d_miter demands obtuse"});
      }
    }
  }
  return out;
}

std::vector<Violation> DrcChecker::check_obstacles(
    const Trace& t, const drc::DesignRules& rules,
    const std::vector<Obstacle>& obstacles) const {
  std::vector<Violation> out;
  const double clear = rules.effective_obs();
  for (std::size_t oi = 0; oi < obstacles.size(); ++oi) {
    const geom::Polygon& poly = obstacles[oi].shape;
    const geom::Box grown = poly.bbox().inflated(clear + opts_.tolerance);
    for (std::size_t i = 0; i < t.path.segment_count(); ++i) {
      const Segment s = t.path.segment(i);
      if (!grown.intersects(s.bbox())) continue;
      const double d = geom::dist_segment_polygon(s, poly);
      if (d + opts_.tolerance < clear) {
        out.push_back({ViolationKind::ObstacleClearance, t.id, 0, i, oi, d, clear,
                       "trace too close to obstacle " + obstacles[oi].name});
      }
    }
  }
  return out;
}

std::vector<Violation> DrcChecker::check_obstacles(const Trace& t,
                                                   const drc::DesignRules& rules,
                                                   const ObstacleIndex& obstacles) const {
  std::vector<Violation> out;
  const double clear = rules.effective_obs();
  const double reach = clear + opts_.tolerance;
  std::vector<std::uint32_t> near;
  for (std::size_t i = 0; i < t.path.segment_count(); ++i) {
    const Segment s = t.path.segment(i);
    const geom::Box sb = s.bbox();
    // Query a hair beyond `reach`, scaled with the coordinates, so rounding
    // in the inflated-bbox test below can never pass an obstacle the query
    // left out. The test itself is the scan's, on the same doubles.
    const double mag = std::max({std::abs(sb.lo.x), std::abs(sb.lo.y), std::abs(sb.hi.x),
                                 std::abs(sb.hi.y), reach});
    obstacles.query(sb.inflated(reach + 1e-9 + 1e-12 * mag), near);
    for (const std::uint32_t oi : near) {
      if (!obstacles.bbox(oi).inflated(reach).intersects(sb)) continue;
      const Obstacle& o = obstacles.obstacle(oi);
      const double d = geom::dist_segment_polygon(s, o.shape);
      if (d + opts_.tolerance < clear) {
        out.push_back({ViolationKind::ObstacleClearance, t.id, 0, i, oi, d, clear,
                       "trace too close to obstacle " + o.name});
      }
    }
  }
  // The scan's order: obstacle-major, then segment.
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return a.index_b != b.index_b ? a.index_b < b.index_b : a.index_a < b.index_a;
  });
  return out;
}

std::vector<Violation> DrcChecker::check_containment(const Trace& t,
                                                     const RoutableArea& area) const {
  std::vector<Violation> out;
  if (area.outline.empty()) return out;
  // RoutableArea::contains, with each hole tested only where it can answer
  // true.
  std::vector<geom::Box> reach(area.holes.size());
  for (std::size_t h = 0; h < area.holes.size(); ++h) reach[h] = hole_reach(area.holes[h]);
  const auto contains = [&](const Point& p) {
    if (!area.outline.contains(p)) return false;
    for (std::size_t h = 0; h < area.holes.size(); ++h) {
      if (reach[h].contains(p) && area.holes[h].contains(p, /*boundary_inside=*/false)) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t i = 0; i < t.path.size(); ++i) {
    if (!contains(t.path[i])) {
      out.push_back({ViolationKind::AreaContainment, t.id, 0, i, 0, 0.0, 0.0,
                     "vertex outside routable area"});
    }
  }
  for (std::size_t i = 0; i < t.path.segment_count(); ++i) {
    const Point mid = t.path.segment(i).midpoint();
    if (!contains(mid)) {
      out.push_back({ViolationKind::AreaContainment, t.id, 0, i, 0, 0.0, 0.0,
                     "segment midpoint outside routable area"});
    }
  }
  return out;
}

std::vector<Violation> DrcChecker::check_trace_pair(const Trace& a, const Trace& b,
                                                    const drc::DesignRules& rules) const {
  std::vector<Violation> out;
  const double gap = rules.gap + (a.width + b.width) / 2.0;
  if (!a.path.bbox().inflated(gap).intersects(b.path.bbox())) return out;
  for (std::size_t i = 0; i < a.path.segment_count(); ++i) {
    for (std::size_t j = 0; j < b.path.segment_count(); ++j) {
      const double d = geom::dist_segment_segment(a.path.segment(i), b.path.segment(j));
      if (d + opts_.tolerance < gap) {
        out.push_back({ViolationKind::TraceGap, a.id, b.id, i, j, d, gap,
                       "segments of different traces closer than gap"});
      }
    }
  }
  return out;
}

std::vector<Violation> DrcChecker::check_layout(const Layout& layout,
                                                const drc::DesignRules& rules) const {
  std::vector<Violation> out;
  const auto append = [&out](std::vector<Violation> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  // Per-trace rules, then one clearance slot per trace. A single-ended trace
  // is its own net; a pair's sub-traces share one and are checked the way
  // Router::run checks a differential member: under the pair's width and
  // against the pair's routable area, through one obstacle index.
  ClearanceIndex index(rules, opts_);
  const ObstacleIndex obstacles(layout.obstacles());
  const auto check_one = [&](const Trace& t, const drc::DesignRules& r,
                             const RoutableArea* area, std::uint32_t net) {
    append(check_trace(t, r));
    append(check_obstacles(t, r, obstacles));
    if (area != nullptr) append(check_containment(t, *area));
    index.insert(index.add_slot(t.width, net), t);
  };
  std::uint32_t net = 0;
  for (const auto& [id, t] : layout.traces()) {
    check_one(t, rules, layout.routable_area(id), net++);
  }
  for (const auto& [id, pair] : layout.pairs()) {
    drc::DesignRules pair_rules = rules;
    pair_rules.trace_width = pair.positive.width;
    const RoutableArea* area = layout.routable_area(id);
    check_one(pair.positive, pair_rules, area, net);
    check_one(pair.negative, pair_rules, area, net++);
  }
  append(index.sweep());
  return out;
}

}  // namespace lmr::layout
