/// \file obstacle_index.cpp

#include "layout/obstacle_index.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/contract.hpp"

namespace lmr::layout {
namespace {

/// Upper bound on grid cells per gridded obstacle (about: per-axis rounding
/// adds one border row and column).
constexpr double kCellsPerObstacle = 4.0;

bool grid_range(const geom::Box& b) {
  const double lim = ObstacleIndex::kGridLimit;
  return std::abs(b.lo.x) <= lim && std::abs(b.lo.y) <= lim && std::abs(b.hi.x) <= lim &&
         std::abs(b.hi.y) <= lim;
}

}  // namespace

std::size_t ObstacleIndex::cell_of(double v, double origin, std::size_t cells) const {
  // Clamp while still in floating point: casting inf, NaN or 1e300 to an
  // integer is undefined behaviour.
  const double f = std::floor((v - origin) / cell_);
  if (!(f > 0.0)) return 0;
  return static_cast<std::size_t>(std::min(f, static_cast<double>(cells - 1)));
}

template <typename Fn>
void ObstacleIndex::for_cells(const geom::Box& b, Fn&& fn) const {
  const std::size_t x0 = cell_of(b.lo.x, origin_.x, nx_);
  const std::size_t x1 = cell_of(b.hi.x, origin_.x, nx_);
  const std::size_t y0 = cell_of(b.lo.y, origin_.y, ny_);
  const std::size_t y1 = cell_of(b.hi.y, origin_.y, ny_);
  LMR_ASSERT(x0 <= x1 && y0 <= y1, "every gridded obstacle sits in at least one cell");
  for (std::size_t cy = y0; cy <= y1; ++cy) {
    for (std::size_t cx = x0; cx <= x1; ++cx) fn(cy * nx_ + cx);
  }
}

ObstacleIndex::ObstacleIndex(std::span<const Obstacle> obstacles) : obstacles_(obstacles) {
  LMR_REQUIRE(obstacles.size() <= UINT32_MAX, "obstacle indices fit in 32 bits");
  boxes_.reserve(obstacles.size());
  std::vector<std::uint32_t> gridded;
  gridded.reserve(obstacles.size());
  double side_sum = 0.0;
  for (std::size_t i = 0; i < obstacles.size(); ++i) {
    boxes_.push_back(obstacles[i].shape.bbox());
    const geom::Box& b = boxes_.back();
    const auto id = static_cast<std::uint32_t>(i);
    if (b.empty()) continue;  // never a candidate, exactly as in the scan
    if (!grid_range(b)) {
      unbounded_.push_back(id);
      continue;
    }
    gridded.push_back(id);
    extent_.expand(b);
    side_sum += 0.5 * (b.width() + b.height());
  }
  if (gridded.empty()) return;

  // Cells twice the mean obstacle side, so a typical obstacle touches one to
  // four cells; floored so the grid never holds more than about
  // kCellsPerObstacle cells per obstacle, however far apart the obstacles
  // sit or however large a keepout is.
  const double n = static_cast<double>(gridded.size());
  const double budget = kCellsPerObstacle * n;
  const double w = extent_.width();
  const double h = extent_.height();
  cell_ = std::max({2.0 * side_sum / n, std::sqrt(w) * std::sqrt(h) / std::sqrt(budget),
                    w / budget, h / budget});
  if (!(cell_ > 0.0)) cell_ = 1.0;  // every obstacle is the same point
  origin_ = extent_.lo;
  nx_ = static_cast<std::size_t>(std::min(std::floor(w / cell_), budget)) + 1;
  ny_ = static_cast<std::size_t>(std::min(std::floor(h / cell_), budget)) + 1;

  // Count, prefix-sum, fill. The fill walks obstacles in ascending index, so
  // every cell's slice comes out ascending.
  offsets_.assign(nx_ * ny_ + 1, 0);
  for (const std::uint32_t id : gridded) {
    for_cells(boxes_[id], [&](std::size_t c) { ++offsets_[c + 1]; });
  }
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) offsets_[c + 1] += offsets_[c];
  ids_.resize(offsets_.back());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const std::uint32_t id : gridded) {
    for_cells(boxes_[id], [&](std::size_t c) { ids_[cursor[c]++] = id; });
  }
  LMR_ASSERT(std::is_sorted(offsets_.begin(), offsets_.end()), "CSR offsets are monotone");
  LMR_ASSERT(std::equal(cursor.begin(), cursor.end(), offsets_.begin() + 1),
             "the fill pass lands exactly on the counted slices");
}

std::span<const std::uint32_t> ObstacleIndex::slice(std::size_t c) const {
  if (!edited_.empty()) {
    const auto it = edited_.find(c);
    if (it != edited_.end()) return it->second;
  }
  return {ids_.data() + offsets_[c], offsets_[c + 1] - offsets_[c]};
}

void ObstacleIndex::query(const geom::Box& window, std::vector<std::uint32_t>& out) const {
  out.clear();
  std::size_t slices = 0;
  // False for empty and NaN windows and for windows off every gridded bbox.
  if (window.intersects(extent_)) {
    const std::size_t x0 = cell_of(window.lo.x, origin_.x, nx_);
    const std::size_t x1 = cell_of(window.hi.x, origin_.x, nx_);
    const std::size_t y0 = cell_of(window.lo.y, origin_.y, ny_);
    const std::size_t y1 = cell_of(window.hi.y, origin_.y, ny_);
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (std::size_t cx = x0; cx <= x1; ++cx) {
        const std::span<const std::uint32_t> ids = slice(cy * nx_ + cx);
        if (ids.empty()) continue;
        out.insert(out.end(), ids.begin(), ids.end());
        ++slices;
      }
    }
  }
  if (!unbounded_.empty()) {
    out.insert(out.end(), unbounded_.begin(), unbounded_.end());
    ++slices;
  }
  // One slice is already ascending and unique; several interleave and an
  // obstacle spanning cells appears once per cell.
  if (slices > 1) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  LMR_ASSERT(std::adjacent_find(out.begin(), out.end(), std::greater_equal<>()) == out.end(),
             "query output is ascending and unique");
}

std::vector<std::uint32_t>& ObstacleIndex::edit_cell(std::size_t c) {
  const auto [it, fresh] = edited_.try_emplace(c);
  if (fresh) it->second.assign(ids_.data() + offsets_[c], ids_.data() + offsets_[c + 1]);
  return it->second;
}

void ObstacleIndex::place(std::uint32_t id, const geom::Box& b) {
  if (b.empty()) return;
  if (!grid_range(b)) {
    unbounded_.insert(std::lower_bound(unbounded_.begin(), unbounded_.end(), id), id);
    return;
  }
  LMR_ASSERT(nx_ > 0, "apply() builds the grid for the first gridded obstacle");
  extent_.expand(b);
  for_cells(b, [&](std::size_t c) {
    std::vector<std::uint32_t>& ids = edit_cell(c);
    ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
  });
}

void ObstacleIndex::unplace(std::uint32_t id, const geom::Box& b) {
  const auto erase = [id](std::vector<std::uint32_t>& ids) {
    const auto at = std::lower_bound(ids.begin(), ids.end(), id);
    LMR_ASSERT(at != ids.end() && *at == id, "an obstacle is listed where it was placed");
    ids.erase(at);
  };
  if (b.empty()) return;
  if (!grid_range(b)) {
    erase(unbounded_);
    return;
  }
  for_cells(b, [&](std::size_t c) { erase(edit_cell(c)); });
}

void ObstacleIndex::apply(const LayoutDelta& delta, std::span<const Obstacle> obstacles) {
  LMR_REQUIRE(obstacles.size() <= UINT32_MAX, "obstacle indices fit in 32 bits");
  const std::size_t n = boxes_.size();
  const auto id = static_cast<std::uint32_t>(delta.obstacle);
  // An index with no grid yet (every obstacle so far was empty or off the
  // grid) builds one the moment an obstacle needs it: a fresh build over
  // the edited list is exactly what the edit must produce.
  const auto needs_grid = [&] {
    const geom::Box b = obstacles[id].shape.bbox();
    return nx_ == 0 && !b.empty() && grid_range(b);
  };
  switch (delta.kind) {
    case DeltaKind::AddObstacle:
      LMR_REQUIRE(delta.obstacle == n && obstacles.size() == n + 1,
                  "an added obstacle is appended to the list");
      if (needs_grid()) {
        *this = ObstacleIndex(obstacles);
        return;
      }
      boxes_.push_back(obstacles[id].shape.bbox());
      place(id, boxes_.back());
      break;
    case DeltaKind::MoveObstacle:
      LMR_REQUIRE(delta.obstacle < n && obstacles.size() == n, "a moved obstacle exists");
      if (needs_grid()) {
        *this = ObstacleIndex(obstacles);
        return;
      }
      unplace(id, boxes_[id]);
      boxes_[id] = obstacles[id].shape.bbox();
      place(id, boxes_[id]);
      break;
    case DeltaKind::RemoveObstacle: {
      LMR_REQUIRE(delta.obstacle < n && obstacles.size() + 1 == n,
                  "a removed obstacle was on the list");
      unplace(id, boxes_[id]);
      boxes_.erase(boxes_.begin() + static_cast<std::ptrdiff_t>(id));
      // Every later obstacle moved down one slot; renumbering keeps each
      // list ascending.
      const auto shift = [id](std::uint32_t& x) { x -= x > id ? 1 : 0; };
      std::for_each(ids_.begin(), ids_.end(), shift);
      for (auto& cell : edited_) std::for_each(cell.second.begin(), cell.second.end(), shift);
      std::for_each(unbounded_.begin(), unbounded_.end(), shift);
      break;
    }
    default:
      LMR_REQUIRE(obstacles.size() == n, "only obstacle deltas change the obstacle list");
      break;
  }
  obstacles_ = obstacles;
}

}  // namespace lmr::layout
