#pragma once
/// \file obstacle_index.hpp
/// Spatial index over a board's obstacles, for the per-net obstacle-clearance
/// oracle (DrcChecker::check_obstacles).
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
///  - Queries keep no state (no dedupe stamps, unlike index::SegGrid), so
///    any number of threads may query one index concurrently while nobody
///    edits it. The Router shares one index read-only across every group
///    and worker of a route call.
///  - Hostile geometry is safe: obstacles with an empty bbox are never
///    candidates; obstacles whose bbox is not finite (or lies beyond
///    ±kGridLimit, where extent arithmetic could overflow) sit on a small
///    list every query returns; query coordinates are clamped in floating
///    point before any cast to a cell coordinate, so `inf` / `1e300` / NaN
///    windows are defined behaviour.
///
/// Edits. `apply` keeps the index current under the board's recorded
/// obstacle mutations (pipeline::Session owns one index per board and
/// feeds it every lowered delta), so an edit costs the cells it touches,
/// not a rebuild. The grid keeps its build-time origin and cell size: a
/// cell an edit changes gets its own ascending list that supersedes its CSR
/// slice, and an obstacle outside the original extent lands in the border
/// cells the clamped cell mapping sends it to. After any edit sequence a
/// query is still an ascending superset of the exact set, so candidates
/// filtered by exact bbox intersection equal those of a fresh build.
///
/// The index borrows the obstacle list: it must outlive the index and stay
/// unchanged while the index is in use (the Router holds a routing freeze),
/// except through mutations that are then passed to `apply`.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/box.hpp"
#include "layout/layout.hpp"
#include "layout/layout_delta.hpp"

namespace lmr::layout {

class ObstacleIndex {
 public:
  /// Coordinates beyond this magnitude are not gridded (see file comment).
  static constexpr double kGridLimit = 1e150;

  explicit ObstacleIndex(std::span<const Obstacle> obstacles);

  [[nodiscard]] std::size_t size() const { return obstacles_.size(); }
  [[nodiscard]] const Obstacle& obstacle(std::uint32_t i) const { return obstacles_[i]; }
  /// Obstacle i's shape bbox, as of the last build or edit that touched it.
  [[nodiscard]] const geom::Box& bbox(std::uint32_t i) const { return boxes_[i]; }
  /// True when the index is pointed at exactly this obstacle list.
  [[nodiscard]] bool indexes(std::span<const Obstacle> obstacles) const {
    return obstacles.data() == obstacles_.data() && obstacles.size() == obstacles_.size();
  }

  /// Replace `out` with the indices of every obstacle whose bbox may
  /// intersect `window`: ascending, unique, a superset of the exact set.
  void query(const geom::Box& window, std::vector<std::uint32_t>& out) const;

  /// Fold one recorded mutation into the index. `obstacles` is the board's
  /// obstacle list *after* the mutation; the index re-points at it, because
  /// the list may have reallocated. Obstacle deltas update the one obstacle
  /// they name (a removal renumbers every later index down by one, as the
  /// list does); every other kind only re-points. Must not race with a
  /// query.
  void apply(const LayoutDelta& delta, std::span<const Obstacle> obstacles);

 private:
  /// Cell coordinate of `v` along one axis, clamped to [0, cells - 1] in
  /// floating point first. Monotone in `v`, so a box that intersects an
  /// obstacle bbox always shares a cell with it.
  [[nodiscard]] std::size_t cell_of(double v, double origin, std::size_t cells) const;
  /// Call `fn(cell)` for every cell gridded bbox `b` touches.
  template <typename Fn>
  void for_cells(const geom::Box& b, Fn&& fn) const;
  /// Cell c's current ascending id list: its edited list, else its CSR
  /// slice.
  [[nodiscard]] std::span<const std::uint32_t> slice(std::size_t c) const;
  /// Cell c's edited list, seeded from its CSR slice on first edit.
  std::vector<std::uint32_t>& edit_cell(std::size_t c);
  /// Register / unregister obstacle `id` with bbox `b` (no-ops for an empty
  /// bbox, the unbounded list for one off the grid).
  void place(std::uint32_t id, const geom::Box& b);
  void unplace(std::uint32_t id, const geom::Box& b);

  std::span<const Obstacle> obstacles_;
  std::vector<geom::Box> boxes_;
  geom::Point origin_;  ///< lower-left corner of the grid, fixed at build
  geom::Box extent_;    ///< union of every bbox ever gridded (grows only)
  double cell_ = 1.0;
  std::size_t nx_ = 0;  ///< 0 until some obstacle is gridded
  std::size_t ny_ = 0;
  std::vector<std::size_t> offsets_;      ///< CSR row starts, nx_ * ny_ + 1
  std::vector<std::uint32_t> ids_;        ///< per-cell obstacle indices
  /// Cells an edit changed since the build, each with its full ascending
  /// id list; it supersedes the cell's CSR slice. Empty on a fresh build,
  /// so the route path pays one emptiness test per cell.
  std::unordered_map<std::size_t, std::vector<std::uint32_t>> edited_;
  std::vector<std::uint32_t> unbounded_;  ///< not gridded: always candidates
};

}  // namespace lmr::layout
