#pragma once
/// \file seg_grid.hpp
/// Uniform segment-collider grid: the broadphase behind
/// layout::ClearanceIndex and the scenario generator's placement-legality
/// scan, on the cells of index::GridCore.
///
/// Each entry is a segment plus a caller payload. An entry is registered in
/// every cell its bounding box (short spans) or a conservative walk along
/// the segment (long diagonals) touches, so a window query visits a
/// *superset* of the entries that intersect the window. Callers re-check
/// candidates exactly — the grid only promises it never misses an entry
/// with a point inside the query box.
///
/// Inserts into an unbuilt grid only record the entry; the first query
/// builds the grid over every live entry, with the requested cell size as
/// the core's minimum. Later inserts and removes edit the built grid. A
/// segment whose walk would take more samples than the grid has rows and
/// columns to cover goes on the core's always-visited list.
///
/// Guarantees:
///  - insert/remove are O(cells touched) — O(1) for segments comparable to
///    the cell size, which is how both clients size their cells; an insert
///    before the first query is O(1) whatever its length.
///  - `visit` reports each entry at most once per query (dedupe stamps in
///    the caller's Scratch) and never reports a removed entry.
///  - `visit_above` additionally skips whole cells whose max payload is below
///    the floor (per-cell metadata predicate); the max is left stale-high
///    after removals, which only costs visits, never correctness.
///  - `cell()` is the requested size until the first query builds the grid,
///    then the size the build chose (never smaller).
///
/// Concurrency is index::GridCore's contract. The first query builds the
/// grid, so it counts as an edit; after it, each querying thread passes its
/// own Scratch.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/contract.hpp"
#include "geom/box.hpp"
#include "geom/segment.hpp"
#include "index/grid_core.hpp"

namespace lmr::index {

class SegGrid {
 public:
  struct Entry {
    geom::Segment seg;
    std::uint64_t payload = 0;
  };

  /// One querier's dedupe stamps. Queries through one Scratch must not
  /// overlap; it may serve any number of grids.
  class Scratch {
    friend class SegGrid;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t query_ = 0;
  };

  SegGrid() = default;
  /// \param cell Cell edge length; clamped to a small positive minimum.
  explicit SegGrid(double cell) { reset(cell); }

  /// Drop all entries and re-size the cells.
  void reset(double cell);

  /// Insert a segment (degenerate segments model points). Returns an id for
  /// `remove`; ids are recycled after removal.
  std::uint32_t insert(const geom::Segment& seg, std::uint64_t payload);

  /// Remove a previously inserted entry by id.
  void remove(std::uint32_t id);

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] double cell() const { return grid_.cell(); }

  /// Visit every entry whose segment may intersect `box` (conservative
  /// superset; each entry at most once). `fn(const Entry&)` returns false to
  /// stop early.
  template <typename Fn>
  void visit(const geom::Box& box, Scratch& scratch, Fn&& fn) const {
    visit_above(box, 0, scratch, static_cast<Fn&&>(fn));
  }

  /// `visit`, but skips entries with payload < `min_payload` and prunes
  /// whole cells via the per-cell payload maximum.
  template <typename Fn>
  void visit_above(const geom::Box& box, std::uint64_t min_payload, Scratch& scratch,
                   Fn&& fn) const {
    if (live_ == 0 || box.empty()) return;
    if (!built_) build();
    if (scratch.stamps_.size() < records_.size()) scratch.stamps_.resize(records_.size(), 0);
    std::uint64_t* stamps = scratch.stamps_.data();
    const std::uint64_t q = ++scratch.query_;
    LMR_ASSERT(std::find(scratch.stamps_.begin(), scratch.stamps_.end(), q) ==
                   scratch.stamps_.end(),
               "fresh query id never collides with an existing stamp");
    const auto report = [&](std::span<const std::uint32_t> ids) {
      for (const std::uint32_t id : ids) {
        const Entry& e = records_[id].entry;
        if (e.payload < min_payload || stamps[id] == q) continue;
        stamps[id] = q;
        if (!fn(e)) return false;
      }
      return true;
    };
    if (!report(grid_.always())) return;
    GridCore::Rect r;
    if (!grid_.window(box, r)) return;
    // The core's cells, walked here: a cell below the floor is skipped
    // whole, and `fn` may stop the walk.
    const std::size_t nx = grid_.nx();
    for (std::size_t cy = r.y0; cy <= r.y1; ++cy) {
      for (std::size_t c = cy * nx + r.x0; c <= cy * nx + r.x1; ++c) {
        if (cell_max_[c] < min_payload) continue;
        if (!report(grid_.slice(c))) return;
      }
    }
  }

 private:
  struct Record {
    Entry entry;
    bool live = false;
  };

  /// Call `fn(cell)` once for every cell segment `seg` (bbox `bb`) is
  /// registered in. Returns false, calling nothing, when the grid cannot
  /// hold the segment (it then sits on the always-visited list). A pure
  /// function of the segment and the layout, which stays fixed from one
  /// build to the next.
  template <typename Fn>
  bool for_cells(const geom::Segment& seg, const geom::Box& bb, Fn&& fn) const;
  /// The core's "cells of entry id": `for_cells`, raising each cell's
  /// payload maximum.
  template <typename Emit>
  bool place(std::uint32_t id, const geom::Box& bb, Emit&& emit) const;
  /// Build the grid over every live entry (the first query's job).
  void build() const;

  std::vector<Record> records_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;

  // --- built by the first query (queries are const) ---
  mutable bool built_ = false;
  mutable GridCore grid_;
  mutable std::vector<std::uint64_t> cell_max_;  ///< per-cell max payload (stale-high)
  mutable std::vector<std::size_t> walk_cells_;
};

}  // namespace lmr::index
