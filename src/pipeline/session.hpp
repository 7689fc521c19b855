#pragma once
/// \file session.hpp
/// A long-lived routing session over one board: the seam a service layer
/// calls instead of the one-shot Router facade.
///
/// The session owns the layout, the last whole-board route (results +
/// pristine seeds), the board's obstacle index and a board-wide incremental
/// clearance index. `route()` matches the board once; every subsequent
/// `apply(edit)` lowers the edit through layout::apply_edit, folds each
/// lowered delta into the obstacle index (so no edit re-indexes the whole
/// board), asks Router::reroute to re-run only the members the recorded
/// deltas can touch — updating the session's route in place, with no copy
/// of the board's results — and re-indexes only those members' geometry in
/// the clearance index. The state after any edit sequence is bit-identical —
/// trace geometry and violation sets — to generating the edited board from
/// scratch and routing it fresh, which is exactly how the edit_storm bench
/// and tests oracle-check it.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "layout/board_edit.hpp"
#include "layout/clearance_index.hpp"
#include "layout/layout.hpp"
#include "layout/obstacle_index.hpp"
#include "pipeline/router.hpp"

namespace lmr::pipeline {

/// How a (re-)route dispatched by the session runs. `Degraded` is the
/// serving tier's last retry rung before quarantine: a temporary Router on
/// one thread with no shared pool. Results are thread-invariant by
/// construction, so a degraded reroute converges to the same
/// geometry/violations as a normal one; only latency differs.
enum class ApplyMode : std::uint8_t {
  Normal,    ///< the session's own Router (configured threads and pool)
  Degraded,  ///< single thread, no shared pool
};

/// What one `apply()` did, for latency accounting and the
/// strictly-fewer-groups proof in the bench/tests.
struct ApplyOutcome {
  /// Primitive deltas the edit batch lowered to (journal order). Each delta
  /// carries its journal version, so `deltas` plus the fields below let a
  /// caller correlate every queued edit with the versions it produced
  /// without re-reading `Layout::deltas_since`.
  std::vector<layout::LayoutDelta> deltas;
  /// Per-edit attribution into `deltas`: edit k lowered to
  /// `deltas[edit_offsets[k] .. edit_offsets[k+1])`. Size is the number of
  /// edits applied plus one (the final entry is `deltas.size()`).
  std::vector<std::size_t> edit_offsets;
  /// Journal versions bracketing the batch: the deltas carry versions
  /// `(version_before, version_after]` and
  /// `version_after - version_before == deltas.size()`.
  std::uint64_t version_before = 0;
  std::uint64_t version_after = 0;
  /// Group indices Router::reroute re-ran at least one member of.
  std::vector<std::size_t> rerouted_groups;
  /// Total groups on the board, for the re-routed-fraction readout.
  std::size_t groups_total = 0;
  /// Wall time of the reroute call (edit application excluded).
  double reroute_s = 0.0;
};

/// One board under interactive edits. Single-threaded facade: calls fan out
/// internally on the Router's executor but the session itself must not be
/// shared across threads without external synchronization.
class Session {
 public:
  /// Takes the board by value: the session owns its layout for life (trace
  /// references handed to the clearance index must stay stable).
  Session(drc::DesignRules rules, RouterOptions options, layout::Layout board);

  /// Thaw constructor: resume a session from a snapshot previously taken by
  /// `release()`. `prior` must be the route of exactly this `board` state
  /// (`prior.version == board.version()`, throws std::invalid_argument
  /// otherwise). The rebuilt session behaves identically to the one that
  /// was released: `route()` has effectively been called, so `apply` works
  /// immediately and `board_clearance` re-derives the incremental index
  /// from the routed geometry.
  Session(drc::DesignRules rules, RouterOptions options, layout::Layout board,
          BoardRoute prior);

  /// Initial full route of every group. Must be called once, before the
  /// first `apply`. Returns the whole-board route (also via `route_state`).
  const BoardRoute& route(ApplyMode mode = ApplyMode::Normal);

  /// Apply one user-level edit and incrementally re-route. Requires
  /// `route()` first (throws std::logic_error otherwise).
  ApplyOutcome apply(const layout::BoardEdit& edit);
  /// Apply a whole edit batch, then re-route once over the combined deltas
  /// — cheaper than per-edit apply when edits cluster on the same groups.
  ///
  /// Prefix contract under mid-batch failure. Edits lower strictly in
  /// order; the first edit that fails stops the batch, so the layout ends
  /// at the state after the applied prefix [0, k) — layout::apply_edit
  /// validates before mutating, so edit k itself leaves no partial deltas.
  /// Two failure phases are distinguishable through
  /// `last_partial_outcome()` (always populated on throw):
  ///  * lowering failure (bad edit, injected session:apply fault): the
  ///    session still reroutes over the prefix's deltas before rethrowing
  ///    the original exception — layout and route stay in sync
  ///    (`in_sync() == true`), and the recorded outcome has
  ///    `edit_offsets.size() == k + 1`, `deltas` exactly the prefix's
  ///    journal entries, and `version_after - version_before ==
  ///    deltas.size()`.
  ///  * reroute failure (injected extend/sweep fault, deadline timeout):
  ///    the prefix's deltas are in the journal but Router::reroute's
  ///    rollback restored the prior geometry, so `route_` is stale
  ///    (`in_sync() == false`). The session is NOT wedged: `resync()`
  ///    heals it by re-running reroute over `deltas_since(route version)`,
  ///    and a subsequent `apply` also self-heals the same way (reroute
  ///    always covers the full journal suffix).
  /// In both phases the recorded outcome's version bracket matches the
  /// applied prefix, which is what the serving tier uses to decide how
  /// many queued edits were consumed.
  ApplyOutcome apply(std::span<const layout::BoardEdit> edits,
                     ApplyMode mode = ApplyMode::Normal);

  /// Re-run the incremental reroute over every journal delta the current
  /// route has not seen (`layout.version() > route version` after a
  /// reroute-phase failure). No-op reroute when already in sync (affected
  /// set is empty). Returns the catch-up outcome; `edit_offsets` carries a
  /// single synthetic bracket since per-edit attribution lives in the
  /// `last_partial_outcome()` of the failed apply. Clears the partial
  /// record on success.
  ApplyOutcome resync(ApplyMode mode = ApplyMode::Normal);

  /// True when the last route/reroute committed every journal delta — the
  /// invariant every successful route()/apply()/resync() re-establishes.
  /// False only between a reroute-phase failure and the next resync.
  [[nodiscard]] bool in_sync() const {
    return routed_ && route_.version == layout_.version();
  }

  /// Outcome bracket of the most recent `apply` that threw (see the prefix
  /// contract above); reset by the next successful apply/resync. Empty if
  /// no apply has failed.
  [[nodiscard]] const std::optional<ApplyOutcome>& last_partial_outcome() const {
    return last_partial_;
  }

  /// Dismantle the session into its compact snapshot — the layout (with
  /// journal) and the last whole-board route — for idle-session eviction.
  /// Only valid when the session is routed and quiescent: proves no route
  /// is in flight by acquiring `layout().try_freeze()`, and throws
  /// std::logic_error otherwise. The session must not be used afterwards;
  /// thaw by constructing a new Session from the returned pair.
  [[nodiscard]] std::pair<layout::Layout, BoardRoute> release();

  /// Cross-member clearance violations over the whole board, from the
  /// session's incremental index: after an edit, only the re-routed
  /// members are re-indexed and re-queried (the violations between two
  /// members that were not re-routed are kept from the last call), and back-to-back
  /// calls with no edit are served from the index's violation cache. Slots
  /// are keyed in first-seen member order (group order at `route()`, then
  /// order of appearance), so the violation order is stable for the
  /// session's lifetime.
  std::vector<layout::Violation> board_clearance();

  [[nodiscard]] const layout::Layout& layout() const { return layout_; }
  [[nodiscard]] const BoardRoute& route_state() const { return route_; }
  [[nodiscard]] const Router& router() const { return router_; }
  [[nodiscard]] std::uint64_t version() const { return layout_.version(); }

 private:
  /// (Re-)index `members` in the board-wide clearance index.
  void reindex_members(std::span<const layout::GroupMember> members);

  /// Reroute over the full journal suffix (`deltas_since(route version)`),
  /// fill the outcome's reroute fields, and re-index. Factored out so apply
  /// and resync share the commit path; throws propagate with route_ stale.
  void finish_reroute(ApplyOutcome& outcome, ApplyMode mode);

  /// The Degraded rung's executor: same rules and options but one thread
  /// and no shared pool.
  [[nodiscard]] Router degraded_router() const;

  Router router_;
  layout::Layout layout_;
  /// Index over layout_.obstacles(), kept current by apply() from every
  /// lowered delta and lent to every route call.
  layout::ObstacleIndex obstacles_;
  BoardRoute route_;
  bool routed_ = false;
  std::optional<ApplyOutcome> last_partial_;

  /// Board-wide cross-member clearance state, maintained incrementally.
  layout::ClearanceIndex board_index_;
  /// Each member's first slot; a pair's negative sub-trace is the next one.
  std::map<layout::TraceId, std::uint32_t> member_slot0_;
  std::uint32_t next_net_ = 0;  ///< one clearance net per member
};

/// Exact routed-board equivalence: same groups with the same members, every
/// member's final trace geometry bit-identical between the two layouts,
/// identical member reports and Eq. 19 errors (every field but the
/// runtimes), and identical per-group violation sets (per-net and
/// cross-member, compared field by field in order). This is the oracle behind the edit_storm bench
/// and tests: a session's incremental state after an edit script must be
/// `routes_equivalent` to a fresh route of the same edited board. On
/// mismatch returns false and, when `why` is non-null, stores a one-line
/// description of the first difference found.
[[nodiscard]] bool routes_equivalent(const layout::Layout& a, const BoardRoute& ra,
                                     const layout::Layout& b, const BoardRoute& rb,
                                     std::string* why = nullptr);

}  // namespace lmr::pipeline
