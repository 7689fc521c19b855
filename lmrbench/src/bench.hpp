#pragma once
/// \file bench.hpp
/// Shared types of the lmrbench driver: run configuration, the benchmark
/// boards of each workload, the run outcome and the sample statistics.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/task_pool.hpp"
#include "layout/board_edit.hpp"
#include "pipeline/router.hpp"
#include "scenario/scenario_families.hpp"
#include "spans.hpp"

namespace lmrbench {

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 0;  ///< resolved: nproc unless --threads asked fewer
  std::string trace_out;    ///< Chrome trace-event file of a traced run
};

/// One benchmark board: a seeded family case, materialized, plus what the
/// family expects of its route.
struct Board {
  std::string family;
  double gate_pct = 0.0;  ///< family Max-error ceiling; <= 0 = no error gate
  bool expect_drc_clean = true;
  lmr::scenario::FamilyCase fc;
  lmr::scenario::Scenario sc;  ///< pristine, never routed
  /// The scenario's router options (the bench_suite configuration), without
  /// executor wiring.
  lmr::pipeline::RouterOptions ropts;
};

/// A curated generator seed re-keyed by the run seed: shifted by the vetted
/// board-seed offset the run seed selects, times a large odd stride, so
/// distinct cases of one family stay distinct. Offset 0 keeps the curated
/// seeds (the boards of BENCH_results.json).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t curated, std::uint64_t seed);

/// Materialize a seeded family case (spanned as scenario.materialize).
[[nodiscard]] Board make_board(const lmr::scenario::Family& fam,
                               const lmr::scenario::FamilyCase& fc, std::uint64_t seed,
                               Tracer* tracer);

/// The scenario-specific router options bench_suite uses for a board.
[[nodiscard]] lmr::pipeline::RouterOptions scenario_options(
    const lmr::scenario::Scenario& sc);

/// `opts` wired to a shared executor at `threads` claimers.
[[nodiscard]] lmr::pipeline::RouterOptions on_pool(lmr::pipeline::RouterOptions opts,
                                                   lmr::exec::TaskPool* pool,
                                                   std::size_t threads);

/// The mega_route board set: mega_board/1k.
[[nodiscard]] std::vector<Board> mega_boards(std::uint64_t seed, Tracer* tracer);
/// The paper_route board set: the 18 curated boards of the eight paper
/// families.
[[nodiscard]] std::vector<Board> paper_boards(std::uint64_t seed, Tracer* tracer);

/// Eq. 19 error and DRC tallies over routed boards.
struct Quality {
  double max_error_pct = 0.0;
  double avg_error_sum = 0.0;  ///< member-weighted sum of group averages
  std::size_t members = 0;
  std::size_t drc_violations = 0;  ///< on boards expected to be clean

  /// Fold one routed board in. Boards without an error gate (saturated
  /// corridors measure capacity, not matching) only count toward DRC.
  void add(const Board& board, const std::vector<lmr::pipeline::RouteResult>& results);
  [[nodiscard]] double avg_error_pct() const {
    return members > 0 ? avg_error_sum / static_cast<double>(members) : 0.0;
  }
};

/// Empty when the routed board meets its family's gates, else why not.
[[nodiscard]] std::string gate_miss(const Board& board,
                                    const std::vector<lmr::pipeline::RouteResult>& results);

/// Everything a run reports.
class Outcome {
 public:
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Record one failed operation (gate miss, throw, shed or dropped edit,
  /// non-equivalent end state). The first few reasons are printed.
  void fail(const std::string& why, std::size_t count = 1);
  void set(const std::string& name, double value) { values_[name] = value; }
  /// Human-readable line printed before the result line.
  void note(const std::string& line) { notes_.push_back(line); }

  [[nodiscard]] const std::map<std::string, double>& values() const { return values_; }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// Median of `v` (0 for an empty sample).
[[nodiscard]] double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, at percentile 100 * (n - 10) / n. Samples of fewer than
/// eleven report their maximum at percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// printf into a std::string (report lines).
[[nodiscard]] std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Milliseconds since `t0`.
[[nodiscard]] double ms_since(lmr::core::Clock::time_point t0);

/// Move the calling thread onto the `k`-th CPU it may run on (modulo their
/// count), then let it run on all of them again. Threads it starts later
/// keep the full set. Set-up `k` starts this way, so set-ups come in rounds
/// of one per CPU.
void start_on_cpu(std::size_t k);

/// setup_s from set-up wall times in the order of `start_on_cpu(k)`: the
/// median over whole rounds of each round's fastest set-up. On a shared host
/// a vCPU can run a single thread far slower than the others for minutes (a
/// busy neighbour on its physical core); that only ever adds time, so the
/// fastest of a round is the program's own cost, and the median over rounds
/// drops a lucky one.
[[nodiscard]] double setup_figure(const std::vector<double>& samples);

// --- workloads (one process runs one) ---
void run_route_workload(const RunConfig& cfg, Tracer* tracer, Outcome& out);
void run_edit_stream(const RunConfig& cfg, Tracer* tracer, Outcome& out);

// --- traced-run layer probes ---

/// A board routed once by the workload, kept for the layer replays.
struct RoutedBoard {
  const Board* board = nullptr;
  lmr::layout::Layout routed;
  std::vector<lmr::pipeline::RouteResult> results;
};

/// An edit script replayed on one board (the part of the stream the run
/// consumed, in order).
struct Script {
  const Board* board = nullptr;
  std::vector<lmr::layout::BoardEdit> edits;
};

/// Replay every library layer the workload exercises, spanned, and set the
/// per-layer metrics they give. Replays that cannot reproduce the router's
/// result count as failures.
void run_layer_probes(const std::vector<RoutedBoard>& boards,
                      const std::vector<Script>& scripts, const RunConfig& cfg,
                      lmr::exec::TaskPool* pool, Tracer& tracer, Outcome& out);

/// Per-layer metrics taken from the span roll-up; `setups` divides the
/// materialize time into a per-setup figure.
void set_rollup_metrics(const Tracer& tracer, std::size_t setups, Outcome& out);

}  // namespace lmrbench
