#pragma once
/// \file height_solver.hpp
/// Maximum valid pattern height by URA shrinking (§IV-B).
///
/// One solver is built per (segment, direction) pass: the environment
/// polygons near the segment are transformed into the segment-local frame
/// (base on y = 0, pattern side +y) once, and `max_height` is then queried
/// for every candidate foot pair of the DP.
///
/// The shrinking pipeline follows the paper:
///  1. create the URA with hob = requested height + half (Eq. 10 inverse);
///  2. shrink by the "sides" AB / CD: every polygon-edge intersection with a
///     side caps hob at the intersection's y (Eq. 11);
///  3. shrink by the "hat" via node-position checking (Alg. 2): polygons with
///     node points both inside and outside the outer border cap hob at their
///     lowest inside node (Eq. 12); iterated to a fixpoint because each
///     shrink can expose new partially-inside polygons. The inside-node query
///     scans the candidates' nodes, not the range tree of §IV-D: `max_height`
///     is already linear in those polygons, so a tree per (segment, side)
///     only added its build;
///  4. shrink by the inner border: polygons entirely inside the outer border
///     must lie entirely inside the inner border (then the pattern legally
///     routes around them) or the hat is pushed below the whole polygon
///     (Eq. 13). Walls (routable-area outlines) and self-URAs are never
///     enclosable. Interleaved with step 3 to a joint fixpoint.
///
/// Every step only ever lowers hob, so a polygon whose lowest node lies
/// above the current hob cannot shrink it. The solver therefore keeps the
/// polygons a query can select in ascending order of lowest ordinate
/// (polygons with a non-finite node first, since their edges get no
/// prefilter; empty polygons and those wholly below the base line never
/// meet an outer border and are left out). `max_height` runs candidate
/// selection, the base-line straddle check and step 2 as one pass down
/// that order against the *running* hob, and steps 3-4 classify only the
/// candidates below the current hob. Each skip is exact:
///  - step 2 stops at the first polygon whose lowest node lies more than
///    kSideReach above hob: every edge of it and of every later polygon
///    misses the sides' [0, hob] span by more than the margin the per-edge
///    prefilter already relies on, so an intersection would lie above hob
///    and `min` would keep hob; a straddler lies below the base line, so
///    none is skipped; and hob <= half is final (later steps can only
///    lower it), so the pass returns 0 there;
///  - steps 3-4 count only nodes strictly below hob - kStrict, so a polygon
///    whose lowest node is not below that has no inside node and neither
///    rule can fire for it.
/// `min` is order-independent on the positive values it folds, so heights
/// are bit-identical to scanning every polygon.
///
/// Heights are *not* monotone in validity when obstacles can be enclosed
/// (the paper's argument against binary search), which is why shrinking
/// always restarts from the requested height and why `max_height` must be
/// re-run instead of scaled when a different request is made.

#include <vector>

#include "core/environment.hpp"
#include "core/ura.hpp"
#include "geom/frame.hpp"
#include "geom/polygon.hpp"

namespace lmr::core {

/// Environment polygon transformed into the solver's local frame.
struct LocalPoly {
  geom::Polygon poly;
  EnvKind kind = EnvKind::Obstacle;
  geom::Box bbox;
  double min_y = 0.0;   ///< lowest node ordinate (Eq. 13 shrink target)
  bool finite = true;   ///< every node finite (the side prefilter's precondition)
};

class HeightSolver {
 public:
  /// `half` is the URA half-width (effective_gap / 2).
  HeightSolver(std::vector<LocalPoly> polys, double half);

  /// Build from global-frame environment: collect polygons near the
  /// reachable region of segment `s` (up to height `max_reach`), transform
  /// through the frame for side `dir`.
  static HeightSolver for_segment(const Environment& env, const geom::Segment& s, int dir,
                                  double max_reach, double half);

  /// Maximum valid height h <= h_request for a pattern with feet at local
  /// x0 < x1. Returns 0 when no positive height is valid. Allocates nothing:
  /// it works in per-solver scratch, so one solver serves one thread.
  [[nodiscard]] double max_height(double x0, double x1, double h_request) const;

  /// Brute-force oracle: is a pattern of height `h` at (x0, x1) valid under
  /// the paper's polygonal URA model? Checks every polygon against the URA
  /// boxes of the three pattern segments with no clean-base assumptions;
  /// used by property tests and the `exhaustive_checks` extender config.
  /// `tol` shrinks the URA boxes so exact-clearance touching stays legal.
  [[nodiscard]] bool valid_exhaustive(double x0, double x1, double h,
                                      double tol = 1e-7) const;

  [[nodiscard]] double half() const { return half_; }
  [[nodiscard]] const std::vector<LocalPoly>& polys() const { return polys_; }

 private:
  /// One polygon of the scan order: `low` is its lowest node ordinate, or
  /// -inf for a polygon with a non-finite node (never a reason to stop).
  struct Ranked {
    double low = 0.0;
    std::size_t idx = 0;  ///< index into polys_
  };
  /// A polygon whose bbox meets the initial outer border of the current
  /// query, with its nodes' standing against the current outer border.
  struct Cand {
    Ranked at;
    std::size_t inside = 0;  ///< nodes strictly inside the outer border
    double inside_min_y = 0.0;
  };

  /// Step 2 for one polygon: lower `hob` to its lowest edge intersection
  /// with the sides `left` / `right`.
  [[nodiscard]] double shrink_by_sides(const LocalPoly& lp, const geom::Segment& left,
                                       const geom::Segment& right, double hob) const;
  /// Steps 3+4 interleaved to fixpoint; returns final hob.
  [[nodiscard]] double shrink_by_nodes(UraBorders b) const;

  std::vector<LocalPoly> polys_;
  double half_;
  /// Every polygon that can meet an outer border, ascending by `low` (ties
  /// by index).
  std::vector<Ranked> order_;
  mutable std::vector<Cand> cand_;  ///< per-query scratch, in `order_` order
};

}  // namespace lmr::core
