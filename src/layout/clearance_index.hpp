#pragma once
/// \file clearance_index.hpp
/// Incrementally-buildable cross-net clearance index.
///
/// A one-shot clearance sweep would index every trace and run the window
/// queries in a single tail call — pure added latency after the last group
/// member finishes extending. The router wants the per-trace half of that
/// work to happen *while* other members are still extending, so
/// `ClearanceIndex` splits the sweep into three phases:
///
///  1. `add_slot()` — declare every participating trace up front (serial,
///     cheap). This fixes the deterministic slot order that violation
///     ordering is keyed on.
///  2. `insert()`  — attach one trace to its slot: O(1), it only records
///     the trace and bumps the slot's epoch. Each call writes only that
///     slot's pre-allocated storage, so inserts for distinct slots are safe
///     from concurrent member tasks: a member indexes its own geometry
///     the moment it lands, in any order. `remove()` empties a slot again,
///     and a removed or replaced slot can be re-`insert`ed — the
///     edit-session path re-indexes only the traces an edit touched.
///  3. `sweep()`   — the only remaining barrier: bring the segment grid
///     (index::SegGrid) up to date, re-registering only the segments of
///     slots whose epoch moved, then re-check only those dirty slots. The
///     cached violations of every pair of two clean slots are kept as they
///     are; each dirty slot's segments window-query every slot's segments,
///     and the fresh violations are merged with the kept ones by key. A
///     cold sweep is the same pass with every slot dirty: its inserts only
///     record the segments, and its first window query builds the grid's
///     dense cell arrays in one counting sort, sized to what was inserted.
///     Later sweeps edit the built grid's per-cell lists for the dirty
///     slots' segments only. The built grid keeps no query state: the
///     sweep's window queries dedupe through the index's own
///     index::SegGrid::Scratch. A sweep with no intervening insert/remove
///     returns the cached violations without touching the grid at all.
///     `sweep()` must not race with `insert`/`remove` or another `sweep`
///     on the same index — it is the barrier.
///
/// The output is identical — same violations, same order — to running
/// `DrcChecker::check_trace_pair` over every pair of inserted slots a < b
/// with different nets, in slot order: violations are ordered by their
/// (slot a, slot b, segment a, segment b) key, never by insertion timing
/// or cache state. A kept violation is exactly what a full sweep would
/// recompute, because neither of its traces changed, and a fresh one runs
/// the same exact check with the lower slot's segment first.

#include <cstdint>
#include <vector>

#include "drc/rules.hpp"
#include "index/seg_grid.hpp"
#include "layout/drc_checker.hpp"
#include "layout/trace.hpp"

namespace lmr::layout {

/// The incremental form of the cross-net clearance sweep. Not copyable (the
/// cache is cheap to rebuild but pointless to duplicate) but movable, so
/// sessions and containers can hold one by value; a moved-from index is an
/// empty index — `slot_count() == 0`, `sweep()` returns no violations, and
/// it can be rebuilt from `add_slot` up.
class ClearanceIndex {
 public:
  explicit ClearanceIndex(const drc::DesignRules& rules, DrcCheckOptions opts = {});

  ClearanceIndex(const ClearanceIndex&) = delete;
  ClearanceIndex& operator=(const ClearanceIndex&) = delete;
  ClearanceIndex(ClearanceIndex&&) noexcept = default;
  ClearanceIndex& operator=(ClearanceIndex&&) noexcept = default;

  /// Declare one participating trace: its width (enters the worst-case gap
  /// that sizes the grid cells and the query windows) and its net id
  /// (traces of equal net are never checked against each other). Returns
  /// the dense slot id, assigned in call order — the order violations are
  /// keyed on. Must not race with any other call; slots may also be
  /// declared after a sweep (a session does when an edit adds a group).
  std::uint32_t add_slot(double width, std::uint32_t net);

  /// Attach `trace` to `slot`. Thread-safe for distinct slots (each call
  /// touches only its own slot's storage); `trace` must stay alive and
  /// unchanged until the slot is removed or re-inserted. Inserting a slot
  /// twice replaces its trace and marks the slot dirty for the next `sweep`.
  void insert(std::uint32_t slot, const Trace& trace);

  /// Empty `slot` again: it stops participating in sweeps until the next
  /// `insert`, exactly as if it had been declared but never inserted.
  void remove(std::uint32_t slot);

  /// Query-only pass over everything inserted so far. Returns all TraceGap
  /// violations between traces of different nets, deterministically ordered
  /// by (slot a, slot b, segment a, segment b). Slots that were declared
  /// but never inserted (or were removed) simply do not participate. Only
  /// the slots inserted or removed since the last sweep are re-queried.
  [[nodiscard]] std::vector<Violation> sweep() const;

  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  /// True when `slot` currently holds a trace.
  [[nodiscard]] bool slot_inserted(std::uint32_t slot) const {
    return slots_.at(slot).trace != nullptr;
  }

 private:
  struct Slot {
    const Trace* trace = nullptr;  ///< null until insert() / after remove()
    std::uint32_t net = 0;
  };
  /// A segment pair, lower slot first. Violations are ordered by this key.
  struct PairKey {
    std::uint32_t slot_a, slot_b, seg_a, seg_b;
    bool operator<(const PairKey& o) const {
      if (slot_a != o.slot_a) return slot_a < o.slot_a;
      if (slot_b != o.slot_b) return slot_b < o.slot_b;
      if (seg_a != o.seg_a) return seg_a < o.seg_a;
      return seg_b < o.seg_b;
    }
    bool operator==(const PairKey&) const = default;
  };

  /// Re-register the segments of every slot whose epoch moved since the
  /// last sweep (O(segments of dirty slots) — the grid updates in place).
  void refresh_grid() const;

  drc::DesignRules rules_;
  DrcCheckOptions opts_;
  /// Widest declared slot. Sizes the grid cells (the grid may coarsen them
  /// when it builds) on the first sweep, and every sweep's query windows (so
  /// a wider slot declared later widens the windows, never the cells).
  double max_width_ = 0.0;
  std::vector<Slot> slots_;
  /// Per-slot mutation counter: bumped by insert()/remove(). Epoch
  /// comparisons drive every cache decision, so there is no validity flag
  /// to get stale on move.
  std::vector<std::uint64_t> slot_epoch_;

  // --- sweep state (only touched inside sweep(), which is the barrier) ---
  mutable index::SegGrid grid_;  ///< payload packs (slot << 32) | segment
  mutable index::SegGrid::Scratch scratch_;  ///< the sweep's query stamps
  mutable std::vector<std::vector<std::uint32_t>> grid_ids_;  ///< per slot: entry ids
  mutable std::vector<std::uint64_t> grid_built_epoch_;       ///< per slot, at build
  /// Last sweep's output. The next sweep keeps the entries whose two slots
  /// are still at their `result_epochs_` and re-queries only the other
  /// slots.
  mutable std::vector<Violation> result_;
  mutable std::vector<PairKey> result_keys_;  ///< parallel to result_
  /// Per-slot epochs result_ was taken at; a slot declared since has none.
  mutable std::vector<std::uint64_t> result_epochs_;
};

}  // namespace lmr::layout
