/// \file seg_grid.cpp

#include "index/seg_grid.hpp"

#include <cmath>

#include "core/contract.hpp"

namespace lmr::index {
namespace {

/// Above this many bbox cells the segment is registered by walking along it
/// instead of enumerating the whole (mostly empty) bounding box — a long
/// diagonal's bbox is quadratic in its length, the walk is linear.
constexpr std::size_t kBboxCellCap = 64;

/// Upper bound on grid cells per gridded entry (about: per-axis rounding
/// adds one border row and column).
constexpr double kCellsPerEntry = 4.0;

/// Coordinates beyond this magnitude are not gridded: extent arithmetic
/// could overflow.
constexpr double kGridLimit = 1e150;

bool grid_range(const geom::Box& b) {
  return std::abs(b.lo.x) <= kGridLimit && std::abs(b.lo.y) <= kGridLimit &&
         std::abs(b.hi.x) <= kGridLimit && std::abs(b.hi.y) <= kGridLimit;
}

}  // namespace

void SegGrid::reset(double cell) {
  LMR_REQUIRE(std::isfinite(cell), "cell size must be a real length");
  requested_cell_ = std::max(cell, 1e-9);
  cell_ = requested_cell_;
  records_.clear();
  free_.clear();
  live_ = 0;
  stamps_.clear();
  query_ = 0;
  built_ = false;
}

template <typename Fn>
bool SegGrid::for_cells(const geom::Segment& seg, Fn&& fn) const {
  const geom::Box bb = seg.bbox();
  if (nx_ == 0 || !grid_range(bb)) return false;
  const std::size_t x0 = cell_of(bb.lo.x, origin_.x, nx_);
  const std::size_t x1 = cell_of(bb.hi.x, origin_.x, nx_);
  const std::size_t y0 = cell_of(bb.lo.y, origin_.y, ny_);
  const std::size_t y1 = cell_of(bb.hi.y, origin_.y, ny_);
  LMR_ASSERT(x0 <= x1 && y0 <= y1, "every gridded segment sits in at least one cell");
  if ((x1 - x0 + 1) * (y1 - y0 + 1) <= kBboxCellCap) {
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (std::size_t cx = x0; cx <= x1; ++cx) fn(cy * nx_ + cx);
    }
    return true;
  }
  // Walk the segment at under half-cell steps; each sample registers its
  // 3x3 cell neighborhood. Any point of the segment lies within a quarter
  // cell of a sample on each axis, so its cell is at most one away from
  // that sample's, before and after clamping. A segment inside the grid's
  // box needs at most 2 * (nx + ny) + 1 steps; a longer one (it reaches far
  // outside the built extent) is not held.
  const double steps_needed = std::ceil(seg.length() / (0.5 * cell_)) + 1.0;
  if (!(steps_needed <= 2.0 * static_cast<double>(nx_ + ny_) + 4.0)) return false;
  const auto steps = static_cast<std::size_t>(steps_needed);
  std::vector<std::size_t>& out = scratch_cells_;
  out.clear();
  for (std::size_t k = 0; k <= steps; ++k) {
    const geom::Point p = seg.at(static_cast<double>(k) / static_cast<double>(steps));
    const std::size_t cx = cell_of(p.x, origin_.x, nx_);
    const std::size_t cy = cell_of(p.y, origin_.y, ny_);
    for (std::size_t y = cy > 0 ? cy - 1 : 0; y <= std::min(cy + 1, ny_ - 1); ++y) {
      for (std::size_t x = cx > 0 ? cx - 1 : 0; x <= std::min(cx + 1, nx_ - 1); ++x) {
        out.push_back(y * nx_ + x);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (const std::size_t c : out) fn(c);
  return true;
}

void SegGrid::build() const {
  built_ = true;
  cell_ = requested_cell_;
  extent_ = geom::Box{};
  nx_ = ny_ = 0;
  offsets_.clear();
  ids_.clear();
  cell_max_.clear();
  edit_of_.clear();
  edits_.clear();
  unbounded_.clear();

  std::vector<std::uint32_t> gridded;
  gridded.reserve(live_);
  for (std::uint32_t id = 0; id < records_.size(); ++id) {
    const Record& rec = records_[id];
    if (!rec.live) continue;
    const geom::Box bb = rec.entry.seg.bbox();
    if (grid_range(bb)) {
      gridded.push_back(id);
      extent_.expand(bb);
    } else {
      unbounded_.push_back(id);
    }
  }
  if (gridded.empty()) return;

  // The requested cell, coarsened so the grid never holds more than about
  // kCellsPerEntry cells per entry however far apart the entries sit.
  const double budget = kCellsPerEntry * static_cast<double>(gridded.size());
  const double w = extent_.width();
  const double h = extent_.height();
  cell_ = std::max({requested_cell_, std::sqrt(w) * std::sqrt(h) / std::sqrt(budget),
                    w / budget, h / budget});
  origin_ = extent_.lo;
  nx_ = static_cast<std::size_t>(std::min(std::floor(w / cell_), budget)) + 1;
  ny_ = static_cast<std::size_t>(std::min(std::floor(h / cell_), budget)) + 1;

  // Count, prefix-sum, fill. The fill walks ids ascending, so every slice
  // comes out ascending. Every entry inside the extent is held: its walk
  // stays within the grid's box.
  offsets_.assign(nx_ * ny_ + 1, 0);
  cell_max_.assign(nx_ * ny_, 0);
  for (const std::uint32_t id : gridded) {
    const std::uint64_t payload = records_[id].entry.payload;
    const bool held = for_cells(records_[id].entry.seg, [&](std::size_t c) {
      ++offsets_[c + 1];
      cell_max_[c] = std::max(cell_max_[c], payload);
    });
    LMR_ASSERT(held, "the grid holds every entry inside its extent");
  }
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) offsets_[c + 1] += offsets_[c];
  ids_.resize(offsets_.back());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const std::uint32_t id : gridded) {
    (void)for_cells(records_[id].entry.seg, [&](std::size_t c) { ids_[cursor[c]++] = id; });
  }
  LMR_ASSERT(std::equal(cursor.begin(), cursor.end(), offsets_.begin() + 1),
             "the fill pass lands exactly on the counted slices");
}

std::vector<std::uint32_t>& SegGrid::edit_cell(std::size_t c) {
  if (edit_of_.empty()) edit_of_.assign(nx_ * ny_, 0);
  if (edit_of_[c] == 0) {
    edits_.emplace_back(ids_.data() + offsets_[c], ids_.data() + offsets_[c + 1]);
    edit_of_[c] = static_cast<std::uint32_t>(edits_.size());
  }
  return edits_[edit_of_[c] - 1];
}

void SegGrid::place(std::uint32_t id) {
  const Entry& e = records_[id].entry;
  const bool held = for_cells(e.seg, [&](std::size_t c) {
    edit_cell(c).push_back(id);
    cell_max_[c] = std::max(cell_max_[c], e.payload);
  });
  if (held) {
    extent_.expand(e.seg.bbox());
  } else {
    unbounded_.push_back(id);
  }
}

void SegGrid::unplace(std::uint32_t id) {
  const auto erase = [id](std::vector<std::uint32_t>& ids) {
    const auto at = std::find(ids.begin(), ids.end(), id);
    LMR_ASSERT(at != ids.end(), "an entry is listed where it was placed");
    *at = ids.back();
    ids.pop_back();
  };
  // The grid is fixed since the build, so the entry's cells are the ones
  // `place` or the build registered it in.
  if (!for_cells(records_[id].entry.seg, [&](std::size_t c) { erase(edit_cell(c)); })) {
    erase(unbounded_);
  }
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
    stamps_.push_back(0);
  }
  LMR_ASSERT(stamps_.size() == records_.size(), "dedupe stamps cover every record");
  records_[id] = Record{Entry{seg, payload}, true};
  ++live_;
  if (!built_) return id;  // the first query's build registers it
  if (nx_ == 0 && grid_range(seg.bbox())) {
    built_ = false;  // no cells yet: the next query builds them
  } else {
    place(id);
  }
  return id;
}

void SegGrid::remove(std::uint32_t id) {
  // Double-remove (or a stale id) is a client bookkeeping bug even though
  // the release build tolerates it silently.
  LMR_REQUIRE(id < records_.size() && records_[id].live, "remove() of an id that is not live");
  if (id >= records_.size() || !records_[id].live) return;
  if (built_) unplace(id);
  records_[id].live = false;
  free_.push_back(id);
  --live_;
}

}  // namespace lmr::index
