#include "core/height_solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "geom/distance.hpp"
#include "geom/intersect.hpp"

namespace lmr::core {

namespace {

constexpr double kStrict = 1e-9;
/// Side-shrink prefilter margin (Eq. 11): three orders above kEps.
constexpr double kSideReach = 1e-6;

/// Strictly-inside test against the outer border (touching the border is
/// exactly the rule distance, hence legal).
bool strictly_inside(const geom::Box& outer, const geom::Point& p) {
  return p.x > outer.lo.x + kStrict && p.x < outer.hi.x - kStrict && p.y > kStrict &&
         p.y < outer.hi.y - kStrict;
}

/// Node inside the *closed* inner border (clearance exactly met is legal).
bool inside_inner(const geom::Box& inner, const geom::Point& p) {
  return p.x >= inner.lo.x - kStrict && p.x <= inner.hi.x + kStrict && p.y >= -kStrict &&
         p.y <= inner.hi.y + kStrict;
}

}  // namespace

HeightSolver::HeightSolver(std::vector<LocalPoly> polys, double half)
    : polys_(std::move(polys)), half_(half) {
  for (LocalPoly& lp : polys_) {
    lp.bbox = lp.poly.bbox();
    lp.min_y = std::numeric_limits<double>::infinity();
    lp.finite = true;
    for (const geom::Point& p : lp.poly.points()) {
      lp.min_y = std::min(lp.min_y, p.y);
      lp.finite = lp.finite && std::isfinite(p.x) && std::isfinite(p.y);
    }
  }
  // Outer borders start at y = 0, so a polygon with an empty bbox or one
  // wholly below -kStrict fails every candidate test and is left out.
  order_.reserve(polys_.size());
  for (std::size_t i = 0; i < polys_.size(); ++i) {
    const LocalPoly& lp = polys_[i];
    if (lp.bbox.empty() || !(0.0 <= lp.bbox.hi.y + kStrict)) continue;
    order_.push_back({lp.finite ? lp.min_y : -std::numeric_limits<double>::infinity(), i});
  }
  std::sort(order_.begin(), order_.end(), [](const Ranked& a, const Ranked& b) {
    return a.low < b.low || (a.low == b.low && a.idx < b.idx);
  });
  cand_.reserve(order_.size());
}

HeightSolver HeightSolver::for_segment(const Environment& env, const geom::Segment& s, int dir,
                                       double max_reach, double half) {
  const geom::Frame frame = geom::Frame::along(s, dir < 0);
  const double len = s.length();
  // Reachable local region of any candidate URA on this side.
  geom::Box local_reach{{-half - geom::kEps, -half - geom::kEps},
                        {len + half + geom::kEps, max_reach + half + geom::kEps}};
  // Its global bbox for collection.
  geom::Box global;
  global.expand(frame.to_global(local_reach.lo));
  global.expand(frame.to_global({local_reach.hi.x, local_reach.lo.y}));
  global.expand(frame.to_global({local_reach.lo.x, local_reach.hi.y}));
  global.expand(frame.to_global(local_reach.hi));

  std::vector<LocalPoly> locals;
  for (const EnvPolygon* e : env.collect(global)) {
    std::vector<geom::Point> pts;
    pts.reserve(e->poly.size());
    for (const geom::Point& p : e->poly.points()) pts.push_back(frame.to_local(p));
    LocalPoly lp;
    lp.poly = geom::Polygon{std::move(pts)};
    lp.kind = e->kind;
    // Keep only polygons whose local bbox can interact with this side.
    if (!lp.poly.bbox().intersects(local_reach)) continue;
    locals.push_back(std::move(lp));
  }
  return HeightSolver{std::move(locals), half};
}

double HeightSolver::shrink_by_sides(const LocalPoly& lp, const geom::Segment& left,
                                     const geom::Segment& right, double hob) const {
  // An edge whose extent misses a side's abscissa, or the [0, hob] span, by
  // more than kSideReach cannot meet that side below hob:
  // segment_intersection's endpoint tolerance is kEps along the edge and
  // along the side, and its rounding is far below the margin at any board
  // scale. So only calls that could not lower hob are skipped. Polygons
  // with a non-finite node get no prefilter: an edge running to x = ±inf
  // meets both sides at its finite end's y.
  const auto meets = [](double lo, double hi, double from, double to) {
    return lo <= to + kSideReach && hi >= from - kSideReach;
  };
  for (std::size_t e = 0; e < lp.poly.size(); ++e) {
    const geom::Segment edge = lp.poly.edge(e);
    const auto [ylo, yhi] = std::minmax(edge.a.y, edge.b.y);
    if (lp.finite && !meets(ylo, yhi, 0.0, hob)) continue;
    const auto [xlo, xhi] = std::minmax(edge.a.x, edge.b.x);
    if (!lp.finite || meets(xlo, xhi, left.a.x, left.a.x)) {
      if (auto p = geom::segment_intersection(edge, left)) hob = std::min(hob, p->y);
    }
    if (!lp.finite || meets(xlo, xhi, right.a.x, right.a.x)) {
      if (auto p = geom::segment_intersection(edge, right)) hob = std::min(hob, p->y);
    }
  }
  return hob;
}

double HeightSolver::shrink_by_nodes(UraBorders b) const {
  // Interleave hat shrinking (Alg. 2 / Eq. 12) and inner-border shrinking
  // (Eq. 13) until neither applies. Each shrink lands hob on a node
  // ordinate strictly below the previous hob, so the loop terminates.
  while (b.hob > kStrict) {
    // --- classify nodes against the current outer border ---
    // A node strictly inside it lies in the initial outer border, so its
    // polygon is a candidate; counts and minima do not depend on order.
    // Candidates run in `order_` order, so the ones from the first finite
    // polygon with no node below hob - kStrict on have no inside node.
    const geom::Box outer = b.outer();
    std::size_t n = 0;
    for (; n < cand_.size(); ++n) {
      Cand& c = cand_[n];
      if (c.at.low >= b.hob - kStrict) break;
      c.inside = 0;
      c.inside_min_y = std::numeric_limits<double>::infinity();
      for (const geom::Point& p : polys_[c.at.idx].poly.points()) {
        if (strictly_inside(outer, p)) {
          c.inside += 1;
          c.inside_min_y = std::min(c.inside_min_y, p.y);
        }
      }
    }

    double new_hob = b.hob;
    // Hat rule (Eq. 12): partially-inside polygons cap hob at their lowest
    // inside node.
    const std::span<const Cand> classified(cand_.data(), n);
    for (const Cand& c : classified) {
      if (c.inside == 0 || c.inside == polys_[c.at.idx].poly.size()) continue;
      new_hob = std::min(new_hob, c.inside_min_y);
    }
    if (new_hob < b.hob - kStrict) {
      b.hob = new_hob;
      continue;  // re-classify under the smaller border before the inner rule
    }

    // Inner-border rule (Eq. 13): fully-inside polygons must be enclosable
    // and entirely within the inner border; otherwise push the hat below the
    // whole polygon.
    const geom::Box inner = b.inner();
    const bool inner_usable = !b.inner_empty();
    for (const Cand& c : classified) {
      const LocalPoly& lp = polys_[c.at.idx];
      if (c.inside != lp.poly.size() || lp.poly.empty()) continue;
      bool ok = inner_usable && lp.kind == EnvKind::Obstacle;
      if (ok) {
        for (const geom::Point& p : lp.poly.points()) {
          if (!inside_inner(inner, p)) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) new_hob = std::min(new_hob, lp.min_y);
    }
    if (new_hob >= b.hob - kStrict) break;  // joint fixpoint
    b.hob = new_hob;
  }
  return std::max(b.hob, 0.0);
}

double HeightSolver::max_height(double x0, double x1, double h_request) const {
  if (h_request <= 0.0 || x1 - x0 <= kStrict) return 0.0;
  UraBorders b{x0, x1, half_, h_request + half_};

  // Candidate polygons: bbox overlap with the initial outer border. The
  // sides keep that border's [0, hob] span for the whole pass:
  // segment_intersection's rounding depends on the side's length.
  const geom::Box outer = b.outer();
  const geom::Segment left{{outer.lo.x, 0.0}, {outer.lo.x, b.hob}};
  const geom::Segment right{{outer.hi.x, 0.0}, {outer.hi.x, b.hob}};
  double hob = b.hob;
  cand_.clear();
  for (const Ranked& r : order_) {
    // Ascending `low`: this polygon and every later one lie above hob.
    if (r.low > hob + kSideReach) break;
    const LocalPoly& lp = polys_[r.idx];
    if (!lp.bbox.intersects(outer, kStrict)) continue;
    cand_.push_back({r});
    // Solid polygons that straddle the base line inside the border are
    // invisible to the node-based shrinking below: their sub-base nodes
    // fail `strictly_inside` and a side edge that coincides with the border
    // crosses it only collinearly, so neither Eq. 12 nor the side rule
    // fires. The one producer of such polygons is the untrimmed URA of an
    // adjacent segment shorter than `half` (self_uras keeps its far end
    // protected, so the URA reaches across the joint). Any pattern on this
    // span would rise straight through it — the exhaustive oracle rejects
    // every such height, so the fast path must too.
    if (lp.kind != EnvKind::AreaOutline && lp.bbox.lo.y < -kStrict && lp.bbox.hi.y > kStrict &&
        lp.bbox.lo.x < outer.hi.x - kStrict && lp.bbox.hi.x > outer.lo.x + kStrict) {
      return 0.0;
    }
    hob = shrink_by_sides(lp, left, right, hob);
    if (hob <= half_) return 0.0;  // later shrinks only lower it
  }
  if (cand_.empty()) return b.pattern_height();
  b.hob = hob;
  b.hob = shrink_by_nodes(b);
  return b.pattern_height();
}

bool HeightSolver::valid_exhaustive(double x0, double x1, double h, double tol) const {
  if (h <= 0.0 || x1 - x0 <= 0.0) return false;
  const UraBorders b{x0, x1, half_, h + half_};
  const geom::Box inner = b.inner();
  const bool inner_usable = !b.inner_empty();

  // The paper's URA model is a *polygonal* clearance region: the union of
  // the three pattern segments' URA rectangles, clipped below the base line
  // (the area below AD belongs to the original segment's URA). The boxes
  // are shrunk by `tol` so a polygon touching the border — clearance met
  // exactly — stays legal.
  const std::array<geom::Box, 3> boxes{
      geom::Box{{x0 - half_ + tol, tol}, {x0 + half_ - tol, h + half_ - tol}},      // left leg
      geom::Box{{x0 - half_ + tol, h - half_ + tol}, {x1 + half_ - tol, h + half_ - tol}},  // hat
      geom::Box{{x1 - half_ + tol, tol}, {x1 + half_ - tol, h + half_ - tol}}};     // right leg

  for (const LocalPoly& lp : polys_) {
    if (lp.poly.empty()) continue;
    // Enclosed obstacle: legal when every node sits within the closed inner
    // border (the pattern routes around it).
    if (lp.kind == EnvKind::Obstacle && inner_usable) {
      bool enclosed = true;
      for (const geom::Point& p : lp.poly.points()) {
        if (!inside_inner(inner, p)) {
          enclosed = false;
          break;
        }
      }
      if (enclosed) continue;
    }
    if (lp.kind == EnvKind::AreaOutline) {
      // The pattern lives inside the outline; only boundary crossings and
      // escapes are violations.
      for (const geom::Box& box : boxes) {
        const geom::Polygon rect = geom::Polygon::rect(box);
        for (std::size_t e = 0; e < lp.poly.size(); ++e) {
          for (std::size_t be = 0; be < rect.size(); ++be) {
            if (geom::segments_intersect(lp.poly.edge(e), rect.edge(be))) return false;
          }
        }
      }
      if (!lp.poly.contains({(x0 + x1) / 2.0, h})) return false;  // escaped entirely
      continue;
    }
    // Solid polygon (obstacle / self-URA): any overlap with a URA box is a
    // violation — edge crossings, polygon nodes inside a box, or a box
    // swallowed by the polygon.
    for (const geom::Box& box : boxes) {
      if (!box.intersects(lp.bbox, half_)) continue;
      if (geom::polygons_overlap(geom::Polygon::rect(box), lp.poly)) return false;
    }
  }
  return true;
}

}  // namespace lmr::core
