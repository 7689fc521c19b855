#pragma once
/// \file router.hpp
/// One-call facade over the paper's full length-matching flow (Fig. 2).
///
/// `Router` wires together everything callers previously had to hand-wire
/// (as `bench/table1_main.cpp` once did): per-trace URA extraction and
/// segment DP extension (core/trace_extender), MSDTW median merging and
/// pair restoration for differential members (dtw/*), group-level Eq. 19
/// error accounting, and the final DRC oracle sweep (layout/drc_checker).
///
/// One public call per job: `route_batch()` length-matches one group of a
/// layout and returns per-net diagnostics; `route_all()` batches every group
/// of a layout into one task fan-out so small groups never serialize behind
/// each other; `route_board()` is `route_all()` plus the pristine seeds and
/// layout version a `reroute()` needs; `reroute()` re-runs only the members
/// later edits can touch and splices them into that route in place. Every
/// call fans out on the persistent work-stealing executor (exec/task_pool)
/// up to `RouterOptions::threads` claimers (1 = serial), and shares one
/// layout::ObstacleIndex read-only across every group and worker for the
/// per-net oracle: the caller's (a Session keeps one current under edits),
/// or one the call builds over the board.
///
/// Within one group each member runs as one closure — extend → write-back →
/// per-net DRC — in member order when serial and under
/// exec::parallel_for_dynamic otherwise, so one member's
/// rule/obstacle/containment checks run while other members are still
/// extending, and each member's traces land in an incremental
/// layout::ClearanceIndex as its geometry is written back. Only the
/// cross-member clearance query pass is a barrier after the join. Every
/// thread count produces identical results by construction: every net is
/// extended on a private copy of its geometry (nets of one group own
/// disjoint routable areas, so they are independent), and every report,
/// violation list and index slot is written at its member-order index, so
/// the outcome — including violation order — is independent of scheduling.
///
/// Member-level reroute. Because a net's route depends only on its seed,
/// its area, the obstacles near it, the rules and its target, `reroute`
/// restarts only the members an edit can reach: an obstacle or area delta
/// hits a member when its dirty box, inflated by the interaction radius,
/// meets the member's domain box (`NetResult::domain`); target, membership
/// and board deltas hit the whole group. Every other member keeps its
/// geometry, report and per-net violations (their obstacle indices
/// renumbered across removals, as the board's list shifts). A group with
/// at least one restarted member recomputes its Eq. 19 errors from the
/// member reports and its cross-member pass over all members, exactly as a
/// fresh route does, so the result is a fresh route's by construction.
///
/// A throw leaves the layout (and a rerouted `BoardRoute`) untouched. Each
/// call copies the geometry of every member it may touch into a
/// `MemberSeed` snapshot before routing, and the one group driver writes
/// that snapshot back on any throw, after every claimer has drained;
/// `reroute` builds its fresh results on the side and splices them in with
/// moves that cannot throw.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/trace_extender.hpp"
#include "drc/rules.hpp"
#include "exec/task_pool.hpp"
#include "fault/cancel.hpp"
#include "fault/fault_plan.hpp"
#include "geom/box.hpp"
#include "layout/clearance_index.hpp"
#include "layout/drc_checker.hpp"
#include "layout/layout.hpp"
#include "layout/obstacle_index.hpp"

namespace lmr::pipeline {

/// Extension engine selection.
enum class Engine {
  DpMsdtw,    ///< the paper's flow: segment DP + MSDTW medians (default)
  AidtStyle,  ///< greedy fixed-geometry baseline (the Table I comparator)
};

/// Per-member outcome.
struct MemberReport {
  layout::TraceId id = 0;
  layout::MemberKind kind = layout::MemberKind::SingleEnded;
  std::string name;
  double initial_length = 0.0;
  double final_length = 0.0;
  double target = 0.0;
  double runtime_s = 0.0;
  bool reached = false;
  int patterns = 0;

  [[nodiscard]] double error_fraction() const {
    return target > 0.0 ? (target - final_length) / target : 0.0;
  }
};

/// Per-group outcome with the paper's error metrics (Eq. 19).
struct GroupReport {
  std::string group_name;
  double target = 0.0;
  double max_error_pct = 0.0;
  double avg_error_pct = 0.0;
  double initial_max_error_pct = 0.0;
  double initial_avg_error_pct = 0.0;
  double runtime_s = 0.0;
  std::vector<MemberReport> members;
};

/// Facade knobs.
struct RouterOptions {
  core::ExtenderConfig extender;   ///< DP iteration caps, tolerance, grid
  Engine engine = Engine::DpMsdtw; ///< baseline selection
  bool run_drc = true;             ///< final oracle sweep after matching
  layout::DrcCheckOptions drc;     ///< oracle tolerances
  /// Parallelism cap for every route call (claimer count per fan-out);
  /// 0 = hardware concurrency (exec::resolve_threads), 1 = serial.
  std::size_t threads = 0;
  /// Executor running the fan-out. Non-owning; nullptr lets the Router
  /// pick: the lazy shared singleton when `threads == 0`, otherwise a
  /// private pool of `threads - 1` workers created on first parallel call
  /// and reused for the Router's lifetime. Callers that batch many Routers
  /// (bench::Suite) pass one pool here so every layer shares its workers.
  exec::TaskPool* pool = nullptr;
  /// Ascending MSDTW distance-rule set for differential members (Alg. 3's
  /// R) when a pair crosses several Design Rule Areas; empty means the
  /// single-DRA default {pair.pitch}.
  std::vector<double> pair_rule_set;
  /// Cooperative cancellation: polled at every stage boundary and inside
  /// the DP extender at pattern-placement granularity. `cancel.cancel()`
  /// aborts in-flight routes with fault::RouteCancelled; the rollback path
  /// guarantees the layout is untouched. Empty (the default) costs one null
  /// test per poll.
  fault::CancelToken cancel;
  /// Per-group route budget in seconds; 0 = none. Each `run` (one group's
  /// route, whichever call runs it) derives a deadline token at entry;
  /// expiry surfaces as fault::RouteTimeout with the same layout-untouched
  /// guarantee. Composes with `cancel`.
  double deadline_s = 0.0;
  /// Fault-injection plane (tests, fault_storm bench); nullptr = disarmed —
  /// one null test per site. See fault/fault_plan.hpp for the site keys.
  std::shared_ptr<fault::FaultPlan> fault_plan;
  /// Prefix baked into this Router's fault site keys; the serving tier sets
  /// the board id so plans can target one board out of many.
  std::string fault_scope;
};

/// Per-net diagnostics: the matching report plus this net's oracle verdict.
struct NetResult {
  MemberReport member;
  /// Violations involving only this net (self rules, obstacle clearance,
  /// area containment; both sub-traces for a differential member).
  std::vector<layout::Violation> violations;
  /// Everything this net's route read or produced, geometrically: its
  /// routable-area bbox plus its pre- and post-route path bboxes.
  /// `Router::reroute` proves a board edit cannot have changed this net by
  /// showing the edit's dirty box, inflated by the interaction radius,
  /// misses this box.
  geom::Box domain;

  [[nodiscard]] bool drc_clean() const { return violations.empty(); }
};

/// One group's outcome: what `route_batch()` returns, and one entry per group
/// of `route_all()` / `BoardRoute::results`.
struct RouteResult {
  GroupReport group;            ///< Eq. 19 error metrics + member reports
  std::vector<NetResult> nets;  ///< one entry per group member
  /// Clearance violations between traces of *different* members.
  std::vector<layout::Violation> cross_violations;
  double runtime_s = 0.0;
  /// Aggregate extension work time (sum of the extension runtimes of the
  /// members the producing call routed; exceeds wall time when members run
  /// concurrently).
  double extend_runtime_s = 0.0;
  /// Aggregate per-net oracle work time (rules / obstacles / containment +
  /// clearance-index inserts). With more than one thread it runs
  /// concurrently with other members' extension, not after the join.
  double drc_overlap_runtime_s = 0.0;
  /// Wall time of the final cross-member clearance query pass — the only
  /// part of the oracle that is a barrier.
  double drc_barrier_runtime_s = 0.0;

  [[nodiscard]] bool matched() const;
  [[nodiscard]] bool drc_clean() const;
  [[nodiscard]] std::size_t violation_count() const;
  [[nodiscard]] bool ok() const { return matched() && drc_clean(); }
};

/// A copy of one group member's geometry, and the Router's one snapshot
/// type: every route call keeps one per member it may touch, keyed by
/// member id, and writes them back if it throws. Re-routing a member is
/// only equivalent to routing it fresh if it starts from the same input
/// polylines, so `route_board` keeps its snapshot as the pristine seeds and
/// `reroute` restarts every member it re-runs from its seed.
struct MemberSeed {
  layout::MemberKind kind = layout::MemberKind::SingleEnded;
  geom::Polyline primary;    ///< the trace, or traceP of a pair
  geom::Polyline secondary;  ///< traceN of a pair; empty for single-ended
};

/// A whole-board routing outcome pinned to the layout version it reflects.
/// `route_board` produces one; `reroute` brings it up to the layout's
/// journal in place, re-running only the members the new deltas can touch.
struct BoardRoute {
  /// layout.version() the results correspond to. `reroute` re-routes over
  /// the layout's journal since this version.
  std::uint64_t version = 0;
  /// One result per group, in group order — bit-identical (geometry and
  /// violations) to a fresh `route_all` of the same board.
  std::vector<RouteResult> results;
  /// Pristine pre-route geometry per member id (see MemberSeed).
  std::map<layout::TraceId, MemberSeed> seeds;
  /// Group indices the producing call re-ran at least one member of
  /// (`route_board` lists every group). Not part of the equivalence
  /// contract.
  std::vector<std::size_t> rerouted_groups;
  /// The members the producing call re-ran, group-major in member order
  /// (`route_board` lists every member): what a Session re-indexes for its
  /// board-wide clearance sweep. Not part of the equivalence contract.
  std::vector<layout::GroupMember> rerouted_members;
};

/// The end-to-end facade. Construct once with the design rules, then route
/// as many layouts as needed (the Router itself is immutable and
/// thread-compatible: concurrent route calls on distinct layouts are safe).
class Router {
 public:
  /// Throws std::invalid_argument on inconsistent rules.
  explicit Router(drc::DesignRules rules, RouterOptions options = {});

  /// Match group `group_index` of `layout`, its independent nets extended
  /// across up to `options.threads` claimers on the persistent executor (no
  /// per-call thread spawning). Trace geometry is bit-identical at every
  /// thread count; only the timing fields differ. Throws std::out_of_range
  /// on a bad index and std::invalid_argument when a member lacks a
  /// routable area.
  RouteResult route_batch(layout::Layout& layout, std::size_t group_index = 0) const;

  /// Route *every* group of `layout` as one task batch: groups and their
  /// members share the same executor, so a board of many small groups
  /// saturates the pool instead of serializing group by group. Returns
  /// `route_board(layout).results`: one RouteResult per group, in group
  /// order, bit-identical to calling `route_batch()` per group. Requires
  /// what every generated board satisfies: no trace belongs to two groups
  /// (members are written back concurrently).
  std::vector<RouteResult> route_all(layout::Layout& layout) const;

  /// `route_all` plus the session bookkeeping: snapshot every member's
  /// pristine geometry first (the seeds double as the rollback snapshot),
  /// stamp the layout version, return the package `reroute` incrementally
  /// updates. `obstacles`, when given, must index `layout.obstacles()` and
  /// is borrowed for the per-net oracle; otherwise the call builds one.
  BoardRoute route_board(layout::Layout& layout,
                         const layout::ObstacleIndex* obstacles = nullptr) const;

  /// Incremental re-route over the layout's journal since `route.version`:
  /// prove which members the recorded edits can touch (see the file
  /// comment), restart them from their pristine seeds, re-run them on the
  /// same executor and splice the fresh results into `route` in place. The
  /// result is bit-identical — trace geometry and violation sets — to a
  /// fresh `route_all` of the edited board. `obstacles` must index
  /// `layout.obstacles()` as it is now. A `route` newer than the layout
  /// throws std::invalid_argument (from Layout::deltas_since); any throw
  /// leaves `route` and every member's geometry as they were.
  void reroute(layout::Layout& layout, BoardRoute& route,
               const layout::ObstacleIndex& obstacles) const;

  [[nodiscard]] const drc::DesignRules& rules() const { return rules_; }
  [[nodiscard]] const RouterOptions& options() const { return options_; }

  /// The executor this Router fans out on (see RouterOptions::pool).
  /// Instantiates the shared/private pool on first use.
  [[nodiscard]] exec::TaskPool& pool() const;

 private:
  /// One group a route call runs: the members it restarts, and the result
  /// the others keep theirs from.
  struct GroupJob {
    std::size_t group = 0;
    /// Member indices to route, ascending; every member for a fresh route.
    std::vector<std::size_t> members;
    /// The group's prior result; null when every member is routed.
    const RouteResult* prior = nullptr;
  };

  /// A job that routes every member of `group` fresh.
  [[nodiscard]] static GroupJob whole_group(const layout::Layout& layout, std::size_t group);
  /// One group's route: extend → write-back → per-net DRC per job member,
  /// the kept members' results carried over from `job.prior`, then Eq. 19
  /// and the cross-member sweep over all members. The caller holds a
  /// routing freeze for as long as `obstacles` (an index over
  /// layout.obstacles()) is alive, and undoes the write-backs if this
  /// throws.
  RouteResult run(layout::Layout& layout, const GroupJob& job, std::size_t threads,
                  const layout::ObstacleIndex& obstacles) const;
  /// The one group driver behind every route call: freeze the board, index
  /// its obstacles once unless the caller lent an index, then one task per
  /// job. Writes results[job.group] for every job (index-addressed —
  /// scheduling cannot change output). On any throw, once every claimer has
  /// drained, it moves `snapshot` (the pre-call geometry of every member the
  /// call may touch) back into the layout and rethrows.
  void route_groups(layout::Layout& layout, const std::vector<GroupJob>& jobs,
                    std::vector<RouteResult>& results,
                    std::map<layout::TraceId, MemberSeed>& snapshot,
                    const layout::ObstacleIndex* obstacles) const;
  /// The delta → dirty-member proof: one job per group the edits could
  /// have affected, in group order. Groups the board has grown past
  /// `prior.results` are routed whole.
  [[nodiscard]] std::vector<GroupJob> affected_members(
      const layout::Layout& layout, const BoardRoute& prior,
      std::span<const layout::LayoutDelta> deltas) const;
  /// Worst-case distance at which anything on the board can still influence
  /// a route (see affected_members).
  [[nodiscard]] double interaction_radius(const layout::Layout& layout) const;

  drc::DesignRules rules_;
  RouterOptions options_;
  /// Owns-or-borrows the executor per the exec 0/1/N convention, lazily (a
  /// serial Router, threads == 1, never spawns a thread) and reused across
  /// calls.
  mutable exec::PoolHandle pool_handle_;
};

}  // namespace lmr::pipeline
