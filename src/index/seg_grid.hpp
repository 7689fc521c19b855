#pragma once
/// \file seg_grid.hpp
/// Uniform segment-collider grid: the broadphase behind
/// layout::ClearanceIndex and the scenario generator's placement-legality
/// scan.
///
/// A dense grid over square cells, laid out as layout::ObstacleIndex is.
/// Each entry is a segment plus a caller payload; an entry is registered in
/// every cell its bounding box (short spans) or a conservative walk along
/// the segment (long diagonals) touches, so a window query visits a
/// *superset* of the entries that intersect the window. Callers re-check
/// candidates exactly — the grid only promises it never misses an entry
/// with a point inside the query box.
///
/// Layout. Inserts into an unbuilt grid only record the entry. The first
/// query builds the grid in one counting sort: origin at the entries'
/// extent, cells of the requested size coarsened so the grid holds at most
/// about kCellsPerEntry cells per entry, and CSR arrays (`offsets_[c] ..
/// offsets_[c + 1]` delimit cell c's slice of `ids_`). The grid keeps that
/// origin and cell size until `reset`: later inserts and removes edit
/// per-cell lists that supersede the cell's CSR slice. Cell coordinates
/// are clamped in floating point before any cast, so an entry outside the
/// built extent lands in the border cells the clamped mapping sends it
/// to, and NaN / inf / 1e300 coordinates are defined behaviour. Entries the
/// grid cannot hold (a non-finite coordinate, one beyond ±1e150, or a
/// segment whose walk would take more samples than the grid has rows and
/// columns to cover) sit on a list every query visits.
///
/// Guarantees:
///  - insert/remove are O(cells touched) — O(1) for segments comparable to
///    the cell size, which is how both clients size their cells; an insert
///    before the first query is O(1) whatever its length.
///  - `visit` reports each entry at most once per query (stamp dedup) and
///    never reports a removed entry.
///  - `visit_above` additionally skips whole cells whose max payload is below
///    the floor (per-cell metadata predicate); the max is left stale-high
///    after removals, which only costs visits, never correctness.
///  - `cell()` is the requested size until the first query builds the grid,
///    then the size the build chose (never smaller).
///
/// Queries build the grid and mutate the internal dedup stamps, so a
/// SegGrid must not be queried from two threads at once. Both clients query
/// behind a barrier (ClearanceIndex::sweep; the single-threaded generator).

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/contract.hpp"
#include "geom/box.hpp"
#include "geom/segment.hpp"

namespace lmr::index {

class SegGrid {
 public:
  struct Entry {
    geom::Segment seg;
    std::uint64_t payload = 0;
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
  [[nodiscard]] double cell() const { return cell_; }

  /// Visit every entry whose segment may intersect `box` (conservative
  /// superset; each entry at most once). `fn(const Entry&)` returns false to
  /// stop early.
  template <typename Fn>
  void visit(const geom::Box& box, Fn&& fn) const {
    visit_above(box, 0, static_cast<Fn&&>(fn));
  }

  /// `visit`, but skips entries with payload < `min_payload` and prunes
  /// whole cells via the per-cell payload maximum.
  template <typename Fn>
  void visit_above(const geom::Box& box, std::uint64_t min_payload, Fn&& fn) const {
    if (live_ == 0 || box.empty()) return;
    if (!built_) build();
    // The per-query dedupe stamp must cover every record and be fresh: a
    // stamp equal to the new query id before we start would mean a previous
    // query's marks leak into this one (exactly the bug concurrent queries
    // would produce — see the class comment's single-querier contract).
    LMR_ASSERT(stamps_.size() == records_.size(),
               "dedupe stamps cover every record");
    const std::uint64_t q = ++query_;
    LMR_ASSERT(std::find(stamps_.begin(), stamps_.end(), q) == stamps_.end(),
               "fresh query id never collides with an existing stamp");
    const auto report = [&](std::span<const std::uint32_t> ids) {
      for (const std::uint32_t id : ids) {
        const Entry& e = records_[id].entry;
        if (e.payload < min_payload || stamps_[id] == q) continue;
        stamps_[id] = q;
        if (!fn(e)) return false;
      }
      return true;
    };
    if (!report(unbounded_)) return;
    // False for NaN windows and for windows off every gridded entry.
    if (!box.intersects(extent_)) return;
    const std::size_t x0 = cell_of(box.lo.x, origin_.x, nx_);
    const std::size_t x1 = cell_of(box.hi.x, origin_.x, nx_);
    const std::size_t y0 = cell_of(box.lo.y, origin_.y, ny_);
    const std::size_t y1 = cell_of(box.hi.y, origin_.y, ny_);
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (std::size_t c = cy * nx_ + x0; c <= cy * nx_ + x1; ++c) {
        if (cell_max_[c] < min_payload) continue;
        if (!report(slice(c))) return;
      }
    }
  }

 private:
  struct Record {
    Entry entry;
    bool live = false;
  };

  /// Cell coordinate of `v` along one axis, clamped to [0, cells - 1] in
  /// floating point first. Monotone in `v`, so a box that meets a segment
  /// always shares a cell with it.
  [[nodiscard]] std::size_t cell_of(double v, double origin, std::size_t cells) const {
    const double f = (v - origin) / cell_;
    if (!(f >= 1.0)) return 0;
    return static_cast<std::size_t>(std::min(f, static_cast<double>(cells - 1)));
  }
  /// Call `fn(cell)` once for every cell segment `seg` is registered in.
  /// Returns false, calling nothing, when the grid cannot hold the segment
  /// (it then sits on `unbounded_`). A pure function of the segment and the
  /// grid, which stays fixed from one build to the next.
  template <typename Fn>
  bool for_cells(const geom::Segment& seg, Fn&& fn) const;
  /// Cell c's current entries: its edited list, else its CSR slice.
  [[nodiscard]] std::span<const std::uint32_t> slice(std::size_t c) const {
    if (!edit_of_.empty() && edit_of_[c] != 0) return edits_[edit_of_[c] - 1];
    return {ids_.data() + offsets_[c], ids_.data() + offsets_[c + 1]};
  }
  /// Cell c's edited list, seeded from its CSR slice on first edit.
  std::vector<std::uint32_t>& edit_cell(std::size_t c);
  /// Counting-sort build over every live entry (the first query's job).
  void build() const;
  /// Register / unregister entry `id` in a built grid.
  void place(std::uint32_t id);
  void unplace(std::uint32_t id);

  double requested_cell_ = 1.0;
  std::vector<Record> records_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  mutable std::vector<std::uint64_t> stamps_;
  mutable std::uint64_t query_ = 0;

  // --- the layout, built by the first query (queries are const) ---
  mutable bool built_ = false;
  mutable double cell_ = 1.0;   ///< the requested size, coarsened by the build
  mutable geom::Point origin_;  ///< lower-left corner of the grid, fixed at build
  mutable geom::Box extent_;    ///< union of every gridded entry's bbox (grows only)
  mutable std::size_t nx_ = 0;  ///< 0 when no entry is gridded
  mutable std::size_t ny_ = 0;
  mutable std::vector<std::uint32_t> offsets_;   ///< CSR row starts, nx_ * ny_ + 1
  mutable std::vector<std::uint32_t> ids_;       ///< per-cell entry ids
  mutable std::vector<std::uint64_t> cell_max_;  ///< per-cell max payload (stale-high)
  /// Per cell, 0 or 1 + its index in `edits_`; empty until the first edit,
  /// so an unedited grid pays one emptiness test per cell.
  mutable std::vector<std::uint32_t> edit_of_;
  mutable std::vector<std::vector<std::uint32_t>> edits_;
  mutable std::vector<std::uint32_t> unbounded_;  ///< not gridded: always visited
  mutable std::vector<std::size_t> scratch_cells_;
};

}  // namespace lmr::index
