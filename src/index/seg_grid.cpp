/// \file seg_grid.cpp

#include "index/seg_grid.hpp"

#include <cmath>

namespace lmr::index {
namespace {

/// Above this many bbox cells the segment is registered by walking along it
/// instead of enumerating the whole (mostly empty) bounding box — a long
/// diagonal's bbox is quadratic in its length, the walk is linear.
constexpr std::size_t kBboxCellCap = 64;

}  // namespace

void SegGrid::reset(double cell) {
  grid_.reset(cell);
  records_.clear();
  free_.clear();
  live_ = 0;
  built_ = false;
}

template <typename Fn>
bool SegGrid::for_cells(const geom::Segment& seg, const geom::Box& bb, Fn&& fn) const {
  if (!grid_.holds(bb)) return false;
  const GridCore::Rect box = grid_.rect(bb);
  if (box.cells() <= kBboxCellCap) {
    grid_.for_rect(box, fn);
    return true;
  }
  // Walk the segment at under half-cell steps; each sample registers its
  // 3x3 cell neighborhood. Any point of the segment lies within a quarter
  // cell of a sample on each axis, so its cell is at most one away from
  // that sample's, before and after clamping. A segment inside the grid's
  // box needs at most 2 * (nx + ny) + 1 steps; a longer one (it reaches far
  // outside the built extent) is not held.
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  const double steps_needed = std::ceil(seg.length() / (0.5 * grid_.cell())) + 1.0;
  if (!(steps_needed <= 2.0 * static_cast<double>(nx + ny) + 4.0)) return false;
  const auto steps = static_cast<std::size_t>(steps_needed);
  std::vector<std::size_t>& out = walk_cells_;
  out.clear();
  for (std::size_t k = 0; k <= steps; ++k) {
    const geom::Point p = seg.at(static_cast<double>(k) / static_cast<double>(steps));
    const std::size_t cx = grid_.col(p.x);
    const std::size_t cy = grid_.row(p.y);
    for (std::size_t y = cy > 0 ? cy - 1 : 0; y <= std::min(cy + 1, ny - 1); ++y) {
      for (std::size_t x = cx > 0 ? cx - 1 : 0; x <= std::min(cx + 1, nx - 1); ++x) {
        out.push_back(y * nx + x);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (const std::size_t c : out) fn(c);
  return true;
}

template <typename Emit>
bool SegGrid::place(std::uint32_t id, const geom::Box& bb, Emit&& emit) const {
  const Entry& e = records_[id].entry;
  return for_cells(e.seg, bb, [&](std::size_t c) {
    emit(c);
    cell_max_[c] = std::max(cell_max_[c], e.payload);
  });
}

void SegGrid::build() const {
  built_ = true;
  const std::vector<std::uint32_t> gridded = grid_.lay_out(records_.size(), [&](std::uint32_t id) {
    return records_[id].live ? records_[id].entry.seg.bbox() : geom::Box{};
  });
  cell_max_.assign(grid_.cells(), 0);
  grid_.fill(gridded, [&](std::uint32_t id, auto&& emit) {
    return place(id, records_[id].entry.seg.bbox(), emit);
  });
}

std::uint32_t SegGrid::insert(const geom::Segment& seg, std::uint64_t payload) {
  std::uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    LMR_REQUIRE(records_.size() < UINT32_MAX, "entry ids fit in 32 bits");
    id = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  records_[id] = Record{Entry{seg, payload}, true};
  ++live_;
  // Before the first query the build registers it; a built grid with no
  // cells yet is built again by the next query.
  const geom::Box bb = seg.bbox();
  const auto cells_of = [&](std::uint32_t i, auto&& emit) { return place(i, bb, emit); };
  if (built_ && !grid_.add(id, bb, cells_of)) built_ = false;
  return id;
}

void SegGrid::remove(std::uint32_t id) {
  // Double-remove (or a stale id) is a client bookkeeping bug even though
  // the release build tolerates it silently.
  LMR_REQUIRE(id < records_.size() && records_[id].live, "remove() of an id that is not live");
  if (id >= records_.size() || !records_[id].live) return;
  if (built_) {
    const geom::Segment& seg = records_[id].entry.seg;
    const geom::Box bb = seg.bbox();
    grid_.erase(id, bb, [&](std::uint32_t, auto&& emit) { return for_cells(seg, bb, emit); });
  }
  records_[id].live = false;
  free_.push_back(id);
  --live_;
}

}  // namespace lmr::index
