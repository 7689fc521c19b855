#pragma once
/// \file obstacle_index.hpp
/// Spatial index over a board's obstacles, for the per-net obstacle-clearance
/// oracle (DrcChecker::check_obstacles), on the cells of index::GridCore.
///
/// Each obstacle is registered in every cell its cached bounding box
/// touches, with cells twice the mean obstacle side as the core's minimum,
/// so a window query visits a *superset* of the obstacles whose bbox
/// intersects the window; callers re-check candidates with their own exact
/// predicate. An obstacle with an empty bbox is never a candidate.
///
/// Guarantees:
///  - `query` returns obstacle indices ascending and unique, a superset of
///    `{i : bbox(i).intersects(window)}`, also for hostile geometry.
///  - Concurrency is index::GridCore's contract. The Router shares one
///    index read-only across every group and worker of a route call.
///
/// Edits. `apply` keeps the index current under the board's recorded
/// obstacle mutations (pipeline::Session owns one index per board and
/// feeds it every lowered delta), so an edit costs the cells it touches,
/// not a rebuild. After any edit sequence a query is still an ascending
/// superset of the exact set, so candidates filtered by exact bbox
/// intersection equal those of a fresh build.
///
/// The index borrows the obstacle list: it must outlive the index and stay
/// unchanged while the index is in use (the Router holds a routing freeze),
/// except through mutations that are then passed to `apply`.

#include <cstdint>
#include <span>
#include <vector>

#include "geom/box.hpp"
#include "index/grid_core.hpp"
#include "layout/layout.hpp"
#include "layout/layout_delta.hpp"

namespace lmr::layout {

class ObstacleIndex {
 public:
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
  /// The core's "cells of entry id": every cell of its bbox.
  template <typename Emit>
  bool cells(std::uint32_t id, Emit&& emit) const;

  std::span<const Obstacle> obstacles_;
  std::vector<geom::Box> boxes_;
  index::GridCore grid_;
};

}  // namespace lmr::layout
