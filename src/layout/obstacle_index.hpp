#pragma once
/// \file obstacle_index.hpp
/// Immutable spatial index over a board's obstacles, for the per-net
/// obstacle-clearance oracle (DrcChecker::check_obstacles).
///
/// A uniform grid over the obstacles' cached bounding boxes, stored as CSR
/// arrays: `offsets_[c] .. offsets_[c + 1]` delimit cell c's slice of `ids_`,
/// and each slice lists obstacle indices in ascending order. An obstacle is
/// registered in every cell its bbox touches, so a window query visits a
/// *superset* of the obstacles whose bbox intersects the window; callers
/// re-check candidates with their own exact predicate.
///
/// Guarantees:
///  - `query` returns obstacle indices ascending and unique, a superset of
///    `{i : bbox(i).intersects(window)}`.
///  - The index is immutable after construction and queries keep no state
///    (no dedupe stamps, unlike index::SegGrid), so any number of threads
///    may query one index concurrently. The Router builds one per route call
///    and shares it read-only across every group and worker.
///  - Hostile geometry is safe: obstacles with an empty bbox are never
///    candidates; obstacles whose bbox is not finite (or lies beyond
///    ±kGridLimit, where extent arithmetic could overflow) sit on a small
///    list every query returns; query coordinates are clamped in floating
///    point before any cast to a cell coordinate, so `inf` / `1e300` / NaN
///    windows are defined behaviour.
///
/// The index borrows the obstacle list: it must outlive the index and stay
/// unchanged while the index is in use (the Router holds a routing freeze).

#include <cstdint>
#include <span>
#include <vector>

#include "geom/box.hpp"
#include "layout/layout.hpp"

namespace lmr::layout {

class ObstacleIndex {
 public:
  /// Coordinates beyond this magnitude are not gridded (see file comment).
  static constexpr double kGridLimit = 1e150;

  explicit ObstacleIndex(std::span<const Obstacle> obstacles);

  [[nodiscard]] std::size_t size() const { return obstacles_.size(); }
  [[nodiscard]] const Obstacle& obstacle(std::uint32_t i) const { return obstacles_[i]; }
  /// Obstacle i's shape bbox, computed once at construction.
  [[nodiscard]] const geom::Box& bbox(std::uint32_t i) const { return boxes_[i]; }

  /// Replace `out` with the indices of every obstacle whose bbox may
  /// intersect `window`: ascending, unique, a superset of the exact set.
  void query(const geom::Box& window, std::vector<std::uint32_t>& out) const;

 private:
  /// Cell coordinate of `v` along one axis, clamped to [0, cells - 1] in
  /// floating point first. Monotone in `v`, so a box that intersects an
  /// obstacle bbox always shares a cell with it.
  [[nodiscard]] std::size_t cell_of(double v, double origin, std::size_t cells) const;

  std::span<const Obstacle> obstacles_;
  std::vector<geom::Box> boxes_;
  geom::Box extent_;  ///< union of the gridded bboxes
  double cell_ = 1.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<std::size_t> offsets_;      ///< CSR row starts, nx_ * ny_ + 1
  std::vector<std::uint32_t> ids_;        ///< per-cell obstacle indices
  std::vector<std::uint32_t> unbounded_;  ///< not gridded: always candidates
};

}  // namespace lmr::layout
