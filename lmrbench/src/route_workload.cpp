/// \file route_workload.cpp
/// The batch workloads, mega_route and paper_route: closed loop, one board
/// in flight, `Router::route_all` on a fresh copy of each board per pass.

#include <exception>
#include <memory>

#include "bench.hpp"

namespace lmrbench {

namespace {

using lmr::pipeline::RouteResult;
using lmr::pipeline::Router;

/// Warm-up passes, untimed: the first mega_board pass runs ~3x slower
/// (pool start-up, allocator growth, cold caches).
constexpr int kWarmupPasses = 2;
/// Set-ups repeat for at least this long, and at least kMinSetups times,
/// each started on the next CPU in turn (see setup_figure). One set-up
/// takes tens of ms, so a single one is mostly noise.
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMinSetups = 8;

/// Same routed outcome: every member's final length and verdict, and every
/// group's violation count. Route output is deterministic, so any difference
/// between passes is a wrong result.
bool same_route(const std::vector<RouteResult>& a, const std::vector<RouteResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t g = 0; g < a.size(); ++g) {
    const auto& ma = a[g].group.members;
    const auto& mb = b[g].group.members;
    if (ma.size() != mb.size() || a[g].violation_count() != b[g].violation_count()) {
      return false;
    }
    for (std::size_t m = 0; m < ma.size(); ++m) {
      if (ma[m].final_length != mb[m].final_length || ma[m].reached != mb[m].reached) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void run_route_workload(const RunConfig& cfg, Tracer* tracer, Outcome& out) {
  const bool mega = cfg.workload == "mega_route";

  std::vector<double> setup_s;
  std::vector<Board> boards;
  const auto t_setups = lmr::core::now();
  while (setup_s.size() < kMinSetups || lmr::core::seconds_since(t_setups) < kSetupSeconds) {
    start_on_cpu(setup_s.size());
    const auto t0 = lmr::core::now();
    boards = mega ? mega_boards(cfg.seed, tracer) : paper_boards(cfg.seed, tracer);
    setup_s.push_back(lmr::core::seconds_since(t0));
  }
  out.set("setup_s", setup_figure(setup_s));

  // One executor shared by every board's Router: the bench thread is the
  // extra participant, so threads - 1 workers give `threads` claimers.
  lmr::exec::TaskPool pool(cfg.threads - 1);
  std::vector<std::unique_ptr<Router>> routers;
  std::size_t members_per_pass = 0;
  for (const Board& b : boards) {
    routers.push_back(
        std::make_unique<Router>(b.sc.rules, on_pool(b.ropts, &pool, cfg.threads)));
    for (const auto& g : b.sc.layout.groups()) members_per_pass += g.members.size();
  }

  // The first warm-up pass is the reference every timed pass must reproduce.
  std::vector<RoutedBoard> ref(boards.size());
  std::vector<std::string> misses(boards.size());
  for (std::size_t i = 0; i < boards.size(); ++i) {
    ref[i].board = &boards[i];
    ref[i].routed = boards[i].sc.layout;
    ref[i].results = routers[i]->route_all(ref[i].routed);
    misses[i] = gate_miss(boards[i], ref[i].results);
  }

  // One pass: every board alone, in turn. Only route_all is timed; the
  // copy of the pristine board is not.
  const auto pass = [&](Tracer* spans) {
    double ms = 0.0;
    const Span pass_span(spans, "bench.pass");
    for (std::size_t i = 0; i < boards.size(); ++i) {
      ++out.attempted;
      try {
        lmr::layout::Layout copy = boards[i].sc.layout;
        const auto t0 = lmr::core::now();
        std::vector<RouteResult> rr;
        {
          const Span s(spans, "pipeline.route_all");
          rr = routers[i]->route_all(copy);
        }
        ms += ms_since(t0);
        if (!misses[i].empty()) {
          out.fail(misses[i]);
        } else if (!same_route(rr, ref[i].results)) {
          out.fail(boards[i].sc.spec.name + ": route differs from the reference pass");
        }
      } catch (const std::exception& e) {
        out.fail(boards[i].sc.spec.name + ": route_all threw: " + e.what());
      }
    }
    return ms;
  };

  for (int w = 1; w < kWarmupPasses; ++w) (void)pass(nullptr);
  out.attempted = 0;
  out.failed = 0;

  // Timed window. A traced run arms spans on every other pass so the same
  // window also yields the tracing overhead.
  std::vector<double> pass_ms;
  std::vector<double> armed_ms;
  std::vector<double> disarmed_ms;
  const auto t_start = lmr::core::now();
  while (lmr::core::seconds_since(t_start) < cfg.seconds) {
    const bool armed = tracer != nullptr && pass_ms.size() % 2 == 0;
    const double ms = pass(armed ? tracer : nullptr);
    pass_ms.push_back(ms);
    (armed ? armed_ms : disarmed_ms).push_back(ms);
  }

  Quality q;
  for (const RoutedBoard& rb : ref) q.add(*rb.board, rb.results);

  double route_ms_total = 0.0;
  for (const double ms : pass_ms) route_ms_total += ms;
  const double nets_per_s =
      static_cast<double>(members_per_pass * pass_ms.size()) / (route_ms_total * 1e-3);
  const Tail t = tail(pass_ms);

  out.set("latency_ms_p50", median(pass_ms));
  out.set("latency_ms_tail", t.value);
  out.set("capacity_per_s", nets_per_s);

  const auto n = static_cast<double>(pass_ms.size());
  out.note(fmt("route_ms_p50      %.3f ms  (median of %.0f passes)", median(pass_ms), n));
  out.note(fmt("route_ms_tail     %.3f ms  (p%.2f, %.0f passes)", t.value, t.percentile, n));
  out.note(fmt("nets_per_s        %.1f 1/s  (%.0f members per pass)", nets_per_s,
               static_cast<double>(members_per_pass)));
  out.note(fmt("max_error_pct     %.4g %%", q.max_error_pct));
  out.note(fmt("avg_error_pct     %.4g %%  (%.0f gated members)", q.avg_error_pct(),
               static_cast<double>(q.members)));
  out.note(fmt("drc_violations    %.0f", static_cast<double>(q.drc_violations)));
  out.note(fmt("boards            %.0f per pass", static_cast<double>(boards.size())));

  if (tracer != nullptr) {
    out.set("trace.overhead_ms", median(armed_ms) - median(disarmed_ms));
    run_layer_probes(ref, {}, cfg, &pool, *tracer, out);
    set_rollup_metrics(*tracer, setup_s.size(), out);
  }
}

}  // namespace lmrbench
