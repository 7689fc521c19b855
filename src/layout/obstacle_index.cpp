/// \file obstacle_index.cpp

#include "layout/obstacle_index.hpp"

#include <algorithm>
#include <functional>

#include "core/contract.hpp"

namespace lmr::layout {

template <typename Emit>
bool ObstacleIndex::cells(std::uint32_t id, Emit&& emit) const {
  const geom::Box& b = boxes_[id];
  if (!grid_.holds(b)) return false;
  grid_.for_rect(grid_.rect(b), emit);
  return true;
}

ObstacleIndex::ObstacleIndex(std::span<const Obstacle> obstacles) : obstacles_(obstacles) {
  LMR_REQUIRE(obstacles.size() <= UINT32_MAX, "obstacle indices fit in 32 bits");
  boxes_.reserve(obstacles.size());
  double side_sum = 0.0;
  std::size_t gridded = 0;
  for (const Obstacle& o : obstacles) {
    const geom::Box& b = boxes_.emplace_back(o.shape.bbox());
    if (b.empty() || !index::GridCore::in_range(b)) continue;
    side_sum += 0.5 * (b.width() + b.height());
    ++gridded;
  }
  // Cells twice the mean obstacle side, so a typical obstacle touches one
  // to four cells; the core coarsens them for sparse or large obstacles.
  grid_.reset(gridded == 0 ? 0.0 : 2.0 * side_sum / static_cast<double>(gridded));
  grid_.fill(grid_.lay_out(boxes_.size(), [&](std::uint32_t i) { return boxes_[i]; }),
             [&](std::uint32_t i, auto&& emit) { return cells(i, emit); });
}

void ObstacleIndex::query(const geom::Box& window, std::vector<std::uint32_t>& out) const {
  const std::span<const std::uint32_t> always = grid_.always();
  out.assign(always.begin(), always.end());
  index::GridCore::Rect r;
  if (grid_.window(window, r)) {
    grid_.for_rect(r, [&](std::size_t c) {
      const std::span<const std::uint32_t> ids = grid_.slice(c);
      if (!ids.empty()) out.insert(out.end(), ids.begin(), ids.end());
    });
  }
  // A fresh build's lone slice is already ascending; several interleave,
  // an obstacle spanning cells appears once per cell, and edited lists are
  // unordered.
  if (std::adjacent_find(out.begin(), out.end(), std::greater_equal<>()) != out.end()) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

void ObstacleIndex::apply(const LayoutDelta& delta, std::span<const Obstacle> obstacles) {
  LMR_REQUIRE(obstacles.size() <= UINT32_MAX, "obstacle indices fit in 32 bits");
  const std::size_t n = boxes_.size();
  const auto id = static_cast<std::uint32_t>(delta.obstacle);
  const auto cells_of = [&](std::uint32_t i, auto&& emit) { return cells(i, emit); };
  // An index with no grid yet (every obstacle so far was empty or off the
  // grid) builds one the moment an obstacle needs it: a fresh build over
  // the edited list is exactly what the edit must produce.
  switch (delta.kind) {
    case DeltaKind::AddObstacle:
      LMR_REQUIRE(delta.obstacle == n && obstacles.size() == n + 1,
                  "an added obstacle is appended to the list");
      boxes_.push_back(obstacles[id].shape.bbox());
      if (!grid_.add(id, boxes_[id], cells_of)) {
        *this = ObstacleIndex(obstacles);
        return;
      }
      break;
    case DeltaKind::MoveObstacle:
      LMR_REQUIRE(delta.obstacle < n && obstacles.size() == n, "a moved obstacle exists");
      grid_.erase(id, boxes_[id], cells_of);
      boxes_[id] = obstacles[id].shape.bbox();
      if (!grid_.add(id, boxes_[id], cells_of)) {
        *this = ObstacleIndex(obstacles);
        return;
      }
      break;
    case DeltaKind::RemoveObstacle:
      LMR_REQUIRE(delta.obstacle < n && obstacles.size() + 1 == n,
                  "a removed obstacle was on the list");
      grid_.erase(id, boxes_[id], cells_of);
      boxes_.erase(boxes_.begin() + static_cast<std::ptrdiff_t>(id));
      // Every later obstacle moved down one slot.
      grid_.rename([id](std::uint32_t& x) { x -= x > id ? 1 : 0; });
      break;
    default:
      LMR_REQUIRE(obstacles.size() == n, "only obstacle deltas change the obstacle list");
      break;
  }
  obstacles_ = obstacles;
}

}  // namespace lmr::layout
