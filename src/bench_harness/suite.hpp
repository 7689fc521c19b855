#pragma once
/// \file suite.hpp
/// Benchmark-suite runner: scenario families -> Router -> tracked JSON.
///
/// `Suite::run()` materializes every case of the selected scenario
/// families, drives `pipeline::Router::route_all()` over every board, and
/// collects the paper's Eq. 19 quality metrics, runtimes and DRC verdicts.
/// Independent cases run concurrently on one persistent work-stealing pool
/// (exec/task_pool) shared with the Routers' group/member fan-outs; every
/// metric is written by case index, so the report is byte-identical across
/// thread counts. `to_json` serializes the outcome under the report
/// conventions of report.hpp: the run context and every timing go under
/// the one `kVolatile` member, so `BENCH_results.json` can be committed and
/// re-generated bit-identically modulo that member from the same seeds.
/// `run_edit_storm`, `run_service` and `run_fault_storm` replay the
/// live-edit workloads against fresh-route oracles.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_harness/json.hpp"
#include "exec/task_pool.hpp"
#include "pipeline/router.hpp"
#include "scenario/fault_storm.hpp"
#include "scenario/scenario_families.hpp"
#include "service/routing_service.hpp"

namespace lmr::bench {

/// Runner configuration.
struct SuiteOptions {
  bool smoke = false;                  ///< tiny variants of every family
  std::vector<std::string> families;   ///< empty = all standard families
  /// Pool-wide parallelism across cases, groups and members; 0 = hardware
  /// (exec::resolve_threads), 1 = fully serial.
  std::size_t threads = 0;
  pipeline::RouterOptions router;      ///< engine/extender/run_drc base options

  SuiteOptions() {
    // The Table I bench configuration: fine grid, capped width loop.
    router.extender.l_disc = 0.5;
    router.extender.max_width_steps = 24;
  }
};

/// One routed group's outcome.
struct GroupOutcome {
  std::string group;
  double target = 0.0;
  double initial_max_error_pct = 0.0;
  double initial_avg_error_pct = 0.0;
  double max_error_pct = 0.0;
  double avg_error_pct = 0.0;
  bool matched = false;
  std::size_t members = 0;
  int patterns = 0;                    ///< total inserted patterns
  std::size_t net_violations = 0;      ///< per-net oracle violations
  std::size_t cross_violations = 0;    ///< cross-member clearance violations
  double runtime_s = 0.0;
  double extend_runtime_s = 0.0;       ///< aggregate extension work time
  /// Aggregate per-net oracle work (overlapped with extension).
  double drc_overlap_runtime_s = 0.0;
  /// Wall time of the final cross-member clearance query pass.
  double drc_barrier_runtime_s = 0.0;
};

/// One scenario's outcome.
struct CaseOutcome {
  std::string family;
  std::string scenario;
  std::uint64_t seed = 0;
  double max_error_gate_pct = 0.0;  ///< family pass ceiling; <= 0 = no gate
  bool expect_drc_clean = true;
  std::size_t traces = 0;
  std::size_t pairs = 0;
  std::size_t obstacles = 0;
  std::vector<GroupOutcome> groups;
  double runtime_s = 0.0;

  [[nodiscard]] bool matched() const;
  [[nodiscard]] bool drc_clean() const;
  [[nodiscard]] double worst_error_pct() const;
  /// Under the family's error gate, and DRC-clean where expected.
  [[nodiscard]] bool ok() const {
    if (expect_drc_clean && !drc_clean()) return false;
    return max_error_gate_pct <= 0.0 || worst_error_pct() <= max_error_gate_pct;
  }
};

/// Whole-suite outcome.
struct SuiteResult {
  std::vector<CaseOutcome> cases;
  double runtime_s = 0.0;

  [[nodiscard]] bool all_ok() const;
};

/// One `Session::apply` of an edit storm.
struct EditStormStep {
  std::size_t rerouted = 0;   ///< groups the reroute actually re-ran
  double reroute_s = 0.0;     ///< wall time of the incremental reroute
};

/// One edit-storm case: a routed board driven through a seeded edit script
/// on a live pipeline::Session, oracle-checked against a fresh route of the
/// final edited board.
struct EditStormOutcome {
  std::string name;
  std::string base_scenario;
  std::size_t edits = 0;
  std::size_t groups_total = 0;
  std::vector<EditStormStep> steps;     ///< one per edit, in script order
  std::size_t rerouted_total = 0;       ///< sum of steps[i].rerouted
  /// Some step re-routed strictly fewer groups than the board holds — the
  /// incrementality proof actually pruned work.
  bool incremental = false;
  /// Session state after the storm is routes_equivalent to a fresh
  /// route_board of the same edited board. The hard correctness gate:
  /// bench_suite --edit-storm exits non-zero when false.
  bool equivalent = false;
  std::string mismatch;                 ///< first difference when !equivalent
  double initial_route_s = 0.0;         ///< full route of the pristine board
  double reroute_total_s = 0.0;         ///< sum of incremental reroutes
  double full_route_s = 0.0;            ///< fresh route of the edited board
  /// full_route_s / mean(step reroute_s): the latency win of answering one
  /// edit incrementally instead of re-routing the board.
  double speedup = 0.0;
};

/// One board's end state inside a storm replay point.
struct StormBoard {
  std::string board;
  std::size_t edits = 0;  ///< script length for this board
  /// Edits committed when the stream drained, before any recovery: the
  /// prefix a quarantined board serves.
  std::uint64_t applied_at_drain = 0;
  service::BoardStats stats;  ///< the service's own counters, recovery included
  bool quarantined = false;   ///< board was quarantined when the stream drained
  /// Quarantined boards only: the served last-good state matched a fresh
  /// route of the applied-edit prefix of the script (vacuously true for a
  /// board that was never routed — there is no state to serve).
  bool prefix_equivalent = true;
  /// Quarantined boards only: resurrect() + replay of the lost suffix
  /// converged to the full-script oracle (true outright for survivors).
  bool recovered = true;
  /// End state (post-recovery where needed) is routes_equivalent to a fresh
  /// route_board of the fully edited board — the hard gate.
  bool equivalent = false;
  std::string mismatch;  ///< first difference when a check failed

  [[nodiscard]] bool ok() const { return equivalent && prefix_equivalent && recovered; }
};

/// One thread count of a storm replay.
struct StormPoint {
  std::size_t threads = 0;
  double replay_s = 0.0;     ///< submit of event 0 → final drain returned
  double edits_per_s = 0.0;  ///< events / replay_s, the aggregate rate
  service::ServiceTotals totals;   ///< RoutingService::totals(), recovery included
  std::size_t drain_failures = 0;  ///< BoardFailure entries across all drains
  std::vector<StormBoard> boards;
  bool all_equivalent = false;  ///< every board ok()
  /// The kind gate: the storm exercised what it was built for. A service
  /// storm: no drain failed. Transient: faults fired, retries absorbed
  /// them, nothing quarantined. Timeout: a deadline fired. Quarantine: both
  /// target boards quarantined and were resurrected.
  bool gates_ok = false;
};

/// One service or fault storm replayed at every swept thread count.
struct StormOutcome {
  std::string name;
  std::string kind;  ///< "service" | "transient" | "timeout" | "quarantine"
  std::uint64_t fault_seed = 0;  ///< 0 for a service storm
  std::size_t boards = 0;
  std::size_t events = 0;
  std::size_t rules = 0;  ///< fault rules armed per replay (0: a service storm)
  std::vector<StormPoint> points;  ///< in sweep order

  [[nodiscard]] bool all_ok() const;  ///< equivalence + gates at every point
};

/// The runner. Construct with options, `run()` as often as needed — the
/// executor persists for the Suite's lifetime, so repeated runs reuse the
/// same workers.
class Suite {
 public:
  explicit Suite(SuiteOptions opts = {});

  /// Run the selected families. Throws std::out_of_range on an unknown
  /// family name.
  [[nodiscard]] SuiteResult run() const;

  /// Full result document: schema, the `kVolatile` member (run context,
  /// suite runtime and a `timing` table with one entry per case), options,
  /// families and specs.
  [[nodiscard]] static Json to_json(const SuiteResult& result, const SuiteOptions& opts);

  /// The thread counts the service and fault storms replay at:
  /// {1, 2, 4, (hardware if > 4)} — small enough for CI, wide enough to
  /// cover the serial path, the pool and the host.
  [[nodiscard]] static std::vector<std::size_t> default_scaling_threads();

  /// Replay the edit-storm catalogue (scenario::edit_storm_cases) on live
  /// Sessions sharing this Suite's pool and options: route the pristine
  /// board, apply every scripted edit through Session::apply, then
  /// oracle-check the final session state against a fresh route_board of
  /// the same edited board (pipeline::routes_equivalent). Reroute and
  /// full-route wall clocks feed the reroute-vs-full latency ratio.
  [[nodiscard]] std::vector<EditStormOutcome> run_edit_storm() const;

  /// `"edit_storm"` section for a result document's `kVolatile` member.
  [[nodiscard]] static Json edit_storm_json(const std::vector<EditStormOutcome>& storms);

  /// Replay the service-storm catalogue (scenario::service_storm_cases)
  /// through a service::RoutingService once per entry of `thread_counts`
  /// (each service owning its own executor of that size), honouring the
  /// stream's sync/evict markers, and oracle-check every board's end state
  /// against a fresh route_board of its edited board. A service storm is a
  /// fault storm with no rules: `replay` runs both.
  [[nodiscard]] std::vector<StormOutcome> run_service(
      const std::vector<std::size_t>& thread_counts) const;

  /// Replay the fault-storm catalogue (scenario::fault_storm_cases) once
  /// per entry of `thread_counts`, each replay arming a FRESH FaultPlan
  /// built from the storm's synthesized rules (occurrence counters are
  /// plan state). The replay drives the full degradation ladder — retries,
  /// degraded retries, deadline timeouts, quarantine — then checks, per
  /// board: quarantined boards serve a last-good state equivalent to a
  /// fresh route of their applied-edit prefix, resurrect() + replay of the
  /// lost suffix converges, and every board's end state is
  /// routes_equivalent to the full-script oracle. `seed_override`
  /// (non-zero) re-seeds the rule synthesis — the reproduction knob behind
  /// `bench_suite --fault-storm --seed N`.
  [[nodiscard]] std::vector<StormOutcome> run_fault_storm(
      const std::vector<std::size_t>& thread_counts,
      std::uint64_t seed_override = 0) const;

  /// `"service"` / `"fault_storm"` section for a result document's
  /// `kVolatile` member: timings, rates and scheduling counters.
  [[nodiscard]] static Json storm_json(const std::vector<StormOutcome>& storms);

  [[nodiscard]] const SuiteOptions& options() const { return opts_; }

  /// The executor `run()` fans out on: nullptr when fully serial
  /// (threads == 1), the shared singleton for the hardware default
  /// (threads == 0), a private pinned-size pool otherwise.
  [[nodiscard]] exec::TaskPool* pool() const;

  /// Document schema id written into every result file.
  static constexpr const char* kSchema = "lmroute-bench-suite/v2";

 private:
  [[nodiscard]] CaseOutcome run_case(const scenario::Family& fam,
                                     const scenario::FamilyCase& fc) const;
  /// The suite's base RouterOptions specialized to one materialized board:
  /// threads/pool wiring plus the scenario's extender tolerance and
  /// pair rule set. Shared by run_case and run_edit_storm so the storm
  /// sessions route exactly like the suite routes the same family.
  [[nodiscard]] pipeline::RouterOptions router_options_for(
      const scenario::Scenario& sc) const;
  /// The scenario-specific half of router_options_for, without the
  /// executor wiring: what `replay` hands to RoutingService::add_board
  /// (the service overrides pool/threads with its own executor).
  [[nodiscard]] pipeline::RouterOptions scenario_router_options(
      const scenario::Scenario& sc) const;
  /// The one storm replay behind run_service and run_fault_storm. `kind`
  /// is empty for a service storm, whose `storm.rules` are empty too.
  [[nodiscard]] StormOutcome replay(const scenario::FaultStorm& storm,
                                    std::optional<scenario::FaultStormKind> kind,
                                    const std::vector<std::size_t>& thread_counts) const;

  SuiteOptions opts_;
  /// Owns-or-borrows the executor per the exec 0/1/N convention (lazy).
  mutable exec::PoolHandle pool_handle_;
};

}  // namespace lmr::bench
