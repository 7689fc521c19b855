/// \file seg_grid.cpp

#include "index/seg_grid.hpp"

#include <cmath>

#include "core/contract.hpp"

namespace lmr::index {
namespace {

/// Above this many bbox cells the segment is registered by walking along it
/// instead of enumerating the whole (mostly empty) bounding box — a long
/// diagonal's bbox is quadratic in its length, the walk is linear.
constexpr std::uint64_t kBboxCellCap = 64;

}  // namespace

void SegGrid::reset(double cell) {
  LMR_REQUIRE(std::isfinite(cell), "cell size must be a real length");
  cell_ = std::max(cell, 1e-9);
  cells_.clear();
  records_.clear();
  free_.clear();
  live_ = 0;
  extent_ = geom::Box{};
  stamps_.clear();
  query_ = 0;
}

std::int64_t SegGrid::coord(double v) const {
  return static_cast<std::int64_t>(std::floor(v / cell_));
}

void SegGrid::covered_cells(const geom::Segment& seg, std::vector<std::uint64_t>& out) const {
  out.clear();
  const geom::Box bb = seg.bbox();
  const std::int64_t x0 = coord(bb.lo.x);
  const std::int64_t x1 = coord(bb.hi.x);
  const std::int64_t y0 = coord(bb.lo.y);
  const std::int64_t y1 = coord(bb.hi.y);
  const std::uint64_t nx = static_cast<std::uint64_t>(x1 - x0 + 1);
  const std::uint64_t ny = static_cast<std::uint64_t>(y1 - y0 + 1);
  if (nx * ny <= kBboxCellCap) {
    out.reserve(nx * ny);
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      for (std::int64_t cx = x0; cx <= x1; ++cx) out.push_back(key(cx, cy));
    }
    return;
  }
  // Walk the segment at half-cell steps; each sample registers its 3x3 cell
  // neighborhood. Any cell the segment touches is within cell/2 of some
  // sample's cell in Chebyshev terms, so the neighborhoods cover it.
  const double len = seg.length();
  const int steps = static_cast<int>(std::ceil(len / (0.5 * cell_))) + 1;
  for (int k = 0; k <= steps; ++k) {
    const geom::Point p = seg.at(static_cast<double>(k) / static_cast<double>(steps));
    const std::int64_t cx = coord(p.x);
    const std::int64_t cy = coord(p.y);
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      for (std::int64_t dx = -1; dx <= 1; ++dx) out.push_back(key(cx + dx, cy + dy));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::uint32_t SegGrid::insert(const geom::Segment& seg, std::uint64_t payload) {
  std::uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
    stamps_.push_back(0);
  }
  Record& rec = records_[id];
  rec.entry = Entry{seg, payload};
  rec.live = true;
  covered_cells(seg, scratch_cells_);
  // Registration contract: every entry lands in at least one cell (even a
  // degenerate point-segment covers its own cell), and the stamp vector the
  // query-time dedupe indexes by id always spans every record.
  LMR_ASSERT(!scratch_cells_.empty(), "a segment always covers its own cell");
  LMR_ASSERT(stamps_.size() == records_.size(),
             "dedupe stamps cover every record");
  rec.cells = scratch_cells_;
  for (const std::uint64_t k : rec.cells) {
    Cell& cell = cells_[k];
    cell.entries.push_back(id);
    cell.max_payload = std::max(cell.max_payload, payload);
  }
  extent_.expand(seg.bbox());
  ++live_;
  return id;
}

void SegGrid::remove(std::uint32_t id) {
  // Double-remove (or a stale id) is a client bookkeeping bug even though
  // the release build tolerates it silently.
  LMR_REQUIRE(id < records_.size() && records_[id].live,
              "remove() of an id that is not live");
  if (id >= records_.size() || !records_[id].live) return;
  Record& rec = records_[id];
  for (const std::uint64_t k : rec.cells) {
    const auto it = cells_.find(k);
    if (it == cells_.end()) continue;
    auto& entries = it->second.entries;
    entries.erase(std::remove(entries.begin(), entries.end(), id), entries.end());
    // max_payload intentionally left stale-high: recomputing would make
    // remove O(cell population); a too-high max only weakens the
    // visit_above prune, never its correctness. An emptied cell stays, so
    // re-inserting into it reuses its storage instead of re-hashing it.
  }
  rec.cells.clear();
  rec.live = false;
  free_.push_back(id);
  --live_;
}

}  // namespace lmr::index
