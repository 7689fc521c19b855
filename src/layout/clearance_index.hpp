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
///     slots whose epoch moved, then run the window-query / exact-check
///     pass. A sweep with no intervening insert/remove returns the cached
///     violations without touching the grid at all. `sweep()` must not race
///     with `insert`/`remove` or another `sweep` on the same index — it is
///     the barrier.
///
/// The output is identical — same violations, same order — to running
/// `DrcChecker::check_trace_pair` over every pair of inserted slots a < b
/// with different nets, in slot order: candidates are ordered by slot
/// index, never by insertion timing or cache state.

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
  /// but never inserted (or were removed) simply do not participate.
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

  /// Re-register the segments of every slot whose epoch moved since the
  /// last sweep (O(segments of dirty slots) — the grid updates in place).
  void refresh_grid() const;

  drc::DesignRules rules_;
  DrcCheckOptions opts_;
  /// Widest declared slot. Sizes the grid cells when the first sweep builds
  /// the grid, and every sweep's query windows (so a wider slot declared
  /// later widens the windows, never the cells).
  double max_width_ = 0.0;
  std::vector<Slot> slots_;
  /// Per-slot mutation counter: bumped by insert()/remove(). Epoch
  /// comparisons drive every cache decision, so there is no validity flag
  /// to get stale on move.
  std::vector<std::uint64_t> slot_epoch_;

  // --- sweep state (only touched inside sweep(), which is the barrier) ---
  mutable index::SegGrid grid_;  ///< payload packs (slot << 32) | segment
  mutable std::vector<std::vector<std::uint32_t>> grid_ids_;  ///< per slot: entry ids
  mutable std::vector<std::uint64_t> grid_built_epoch_;       ///< per slot, at build
  mutable std::vector<Violation> result_;              ///< last sweep's output
  mutable std::vector<std::uint64_t> result_epochs_;   ///< epochs it was valid at
};

}  // namespace lmr::layout
