#pragma once
/// \file grid_core.hpp
/// The uniform grid behind index::SegGrid and layout::ObstacleIndex. A
/// front end says what an entry is and which cells it touches; the core
/// owns everything about the cells, the same way for both.
///
/// Layout. `lay_out` puts the grid over the bounding boxes of the entries
/// it grids: origin at their extent's lower-left corner, square cells of the
/// minimum size given to `reset`, coarsened so the grid holds at most about
/// kCellsPerEntry cells per gridded entry however far apart the entries
/// sit. `fill` then lists each cell's entries in CSR form (`offsets_[c] ..
/// offsets_[c + 1]` delimit cell c's slice of `ids_`) with one counting
/// sort, in ascending id order. An entry with an empty bbox is no entry. An
/// entry whose bbox is not within ±kLimit (a non-finite coordinate, or one
/// where extent arithmetic could overflow) is not gridded: it sits on a
/// list that every query visits.
///
/// Cell mapping. A coordinate's cell is clamped to the grid in floating
/// point before any cast, so NaN, inf and 1e300 are defined behaviour and
/// anything outside the grid lands in the border cells. The mapping is
/// monotone, so two boxes that meet always share a cell.
///
/// Edits. The layout stays fixed until the next `lay_out`. `add` and
/// `erase` edit the lists of the cells an entry touches: a cell's first
/// edit copies its CSR slice into a list of its own, which supersedes the
/// slice from then on. Edited lists and the always-visited list are
/// unordered (appends and swap-removes): the core promises no order within
/// a list.
///
/// Concurrency, the contract of both front ends: queries write nothing, so
/// any number of threads may query a built grid while nobody edits it.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/contract.hpp"
#include "geom/box.hpp"

namespace lmr::index {

class GridCore {
 public:
  /// Coordinates beyond this magnitude are not gridded.
  static constexpr double kLimit = 1e150;

  /// The clamped cells a box covers: columns x0..x1, rows y0..y1.
  struct Rect {
    std::size_t x0, x1, y0, y1;
    [[nodiscard]] std::size_t cells() const { return (x1 - x0 + 1) * (y1 - y0 + 1); }
  };

  /// True when every coordinate of `b` lies within ±kLimit (false for NaN
  /// and inf).
  [[nodiscard]] static bool in_range(const geom::Box& b) {
    return std::abs(b.lo.x) <= kLimit && std::abs(b.lo.y) <= kLimit &&
           std::abs(b.hi.x) <= kLimit && std::abs(b.hi.y) <= kLimit;
  }

  /// Drop the layout and every list. The next layout's cells are at least
  /// `min_cell` (clamped to a small positive length) on a side.
  void reset(double min_cell);

  /// Lay the grid out over entries 0 .. n-1, whose bounding boxes
  /// `box_of(id)` gives, and put the ungridded ones on the always-visited
  /// list. Returns the ids to grid, ascending, for `fill`; the front end
  /// may size its own per-cell data in between.
  template <typename BoxOf>
  [[nodiscard]] std::vector<std::uint32_t> lay_out(std::size_t n, BoxOf&& box_of) {
    LMR_REQUIRE(n <= UINT32_MAX, "entry ids fit in 32 bits");
    clear();
    std::vector<std::uint32_t> gridded;
    gridded.reserve(n);
    for (std::uint32_t id = 0; id < n; ++id) {
      const geom::Box b = box_of(id);
      if (b.empty()) continue;
      if (in_range(b)) {
        gridded.push_back(id);
        extent_.expand(b);
      } else {
        always_.push_back(id);
      }
    }
    size_cells(gridded.size());
    return gridded;
  }

  /// List the `gridded` ids `lay_out` returned in CSR form.
  /// `cells_of(id, emit)` calls `emit(cell)` once for every cell entry id
  /// is registered in and returns true; the front end's function is called
  /// once per entry, and must hold every entry inside the extent.
  template <typename CellsOf>
  void fill(std::span<const std::uint32_t> gridded, CellsOf&& cells_of) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cell_ids;
    cell_ids.reserve(2 * gridded.size());
    for (const std::uint32_t id : gridded) {
      const bool held = cells_of(id, [&](std::size_t c) {
        ++offsets_[c + 1];
        cell_ids.emplace_back(static_cast<std::uint32_t>(c), id);
      });
      LMR_ASSERT(held, "the grid holds every entry inside its extent");
    }
    fill_slices(cell_ids);
  }

  /// Register entry `id` with bbox `box` in the laid-out grid: in every cell
  /// `cells_of(id, emit)` emits, or on the always-visited list when
  /// `cells_of` returns false, emitting nothing. An empty box is no entry.
  /// Returns false, registering nothing, when the grid has no cells yet but
  /// `box` needs them: the caller lays the grid out again.
  template <typename CellsOf>
  bool add(std::uint32_t id, const geom::Box& box, CellsOf&& cells_of) {
    if (box.empty()) return true;
    if (nx_ == 0 && in_range(box)) return false;
    if (cells_of(id, [&](std::size_t c) { edit_cell(c).push_back(id); })) {
      extent_.expand(box);
    } else {
      always_.push_back(id);
    }
    return true;
  }

  /// Unregister entry `id`, which `add` or the build registered with the
  /// same bbox and the same cells.
  template <typename CellsOf>
  void erase(std::uint32_t id, const geom::Box& box, CellsOf&& cells_of) {
    if (box.empty()) return;
    if (!cells_of(id, [&](std::size_t c) { drop(edit_cell(c), id); })) drop(always_, id);
  }

  /// Apply `fn(std::uint32_t&)` to every id the grid stores.
  template <typename Fn>
  void rename(Fn&& fn) {
    std::for_each(ids_.begin(), ids_.end(), fn);
    for (std::vector<std::uint32_t>& ids : edits_) std::for_each(ids.begin(), ids.end(), fn);
    std::for_each(always_.begin(), always_.end(), fn);
  }

  /// The minimum cell size until the first `lay_out` that grids an entry,
  /// then the size that layout chose (never smaller).
  [[nodiscard]] double cell() const { return cell_; }
  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  /// Cells in the layout: 0 when it grids no entry.
  [[nodiscard]] std::size_t cells() const { return nx_ * ny_; }
  [[nodiscard]] std::size_t col(double x) const { return clamped(x, origin_.x, nx_); }
  [[nodiscard]] std::size_t row(double y) const { return clamped(y, origin_.y, ny_); }

  /// True when the grid can register an entry with bbox `b`: it has cells
  /// and `b` lies within ±kLimit.
  [[nodiscard]] bool holds(const geom::Box& b) const { return nx_ != 0 && in_range(b); }

  /// The clamped cells a box covers.
  [[nodiscard]] Rect rect(const geom::Box& b) const {
    return {col(b.lo.x), col(b.hi.x), row(b.lo.y), row(b.hi.y)};
  }

  /// Call `fn(cell)` for every cell of `r`, row by row.
  template <typename Fn>
  void for_rect(const Rect& r, Fn&& fn) const {
    const std::size_t nx = nx_;
    const std::size_t x0 = r.x0, x1 = r.x1, y0 = r.y0, y1 = r.y1;
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (std::size_t cx = x0; cx <= x1; ++cx) fn(cy * nx + cx);
    }
  }

  /// The cells a query `window` covers; false when the window misses every
  /// gridded entry's bbox (also for an empty or a NaN window).
  [[nodiscard]] bool window(const geom::Box& window, Rect& r) const {
    if (!window.intersects(extent_)) return false;
    r = rect(window);
    return true;
  }

  /// Cell c's entries: its edited list, else its CSR slice.
  [[nodiscard]] std::span<const std::uint32_t> slice(std::size_t c) const {
    if (!edit_of_.empty() && edit_of_[c] != 0) return edits_[edit_of_[c] - 1];
    return {ids_.data() + offsets_[c], ids_.data() + offsets_[c + 1]};
  }

  /// The entries every query visits.
  [[nodiscard]] std::span<const std::uint32_t> always() const { return always_; }

 private:
  /// Cell coordinate of `v` along one axis, clamped to [0, cells - 1] in
  /// floating point first: casting inf, NaN or 1e300 is undefined.
  [[nodiscard]] std::size_t clamped(double v, double origin, std::size_t cells) const {
    const double f = (v - origin) / cell_;
    if (!(f >= 1.0)) return 0;
    return static_cast<std::size_t>(std::min(f, static_cast<double>(cells - 1)));
  }
  /// Drop the layout and every list; keep the minimum cell size.
  void clear();
  /// Size the cells and the CSR counts for `entries` gridded entries.
  void size_cells(std::size_t entries);
  /// Prefix-sum the counts and place each (cell, id), in order.
  void fill_slices(const std::vector<std::pair<std::uint32_t, std::uint32_t>>& cell_ids);
  /// Cell c's edited list, seeded from its CSR slice on first edit.
  std::vector<std::uint32_t>& edit_cell(std::size_t c) {
    if (edit_of_.empty()) edit_of_.assign(nx_ * ny_, 0);
    if (edit_of_[c] == 0) {
      edits_.emplace_back(ids_.data() + offsets_[c], ids_.data() + offsets_[c + 1]);
      edit_of_[c] = static_cast<std::uint32_t>(edits_.size());
    }
    return edits_[edit_of_[c] - 1];
  }
  /// Swap-remove `id`, which `ids` lists.
  static void drop(std::vector<std::uint32_t>& ids, std::uint32_t id) {
    const auto at = std::find(ids.begin(), ids.end(), id);
    LMR_ASSERT(at != ids.end(), "an entry is listed where it was registered");
    *at = ids.back();
    ids.pop_back();
  }

  double min_cell_ = 1e-9;
  double cell_ = 1e-9;
  geom::Point origin_;  ///< lower-left corner of the grid
  geom::Box extent_;    ///< union of every gridded entry's bbox (grows only)
  std::size_t nx_ = 0;  ///< 0 when no entry is gridded
  std::size_t ny_ = 0;
  std::vector<std::uint32_t> offsets_;  ///< CSR row starts, nx_ * ny_ + 1
  std::vector<std::uint32_t> ids_;      ///< per-cell entry ids
  /// Per cell, 0 or 1 + its index in `edits_`; empty until the first edit,
  /// so an unedited grid pays one emptiness test per cell.
  std::vector<std::uint32_t> edit_of_;
  std::vector<std::vector<std::uint32_t>> edits_;
  std::vector<std::uint32_t> always_;  ///< not gridded: always visited
};

}  // namespace lmr::index
