/// \file edit_workload.cpp
/// The edit_stream workload: open loop against one RoutingService hosting
/// the mega board plus the ten service_storm boards.
///
/// Seeded edit-storm scripts, one per board, are merged into one stream by
/// the service-storm generator, which fixes the order (same-board bursts stay
/// adjacent). The stream is sent at a fixed ladder of offered rates, one rung
/// after the other, evenly spaced within a rung: seeded gaps would make the
/// queueing, and so the latencies, vary from seed to seed far more than the
/// router does. An edit's latency runs from its due time to the first poll
/// that sees the board's `applied` counter reach the edit's submit ordinal.

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <iterator>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "layout/board_edit.hpp"
#include "pipeline/session.hpp"
#include "scenario/service_storm.hpp"
#include "service/routing_service.hpp"

namespace lmrbench {

namespace {

using lmr::service::RoutingService;

/// Offered rates, edits per second, ascending. Fixed on every commit. On a
/// 4-core host the service keeps up through 80 or 160, depending on the seed;
/// the top rung overloads it, so its commit rate is the saturation
/// throughput.
constexpr double kRates[] = {20.0, 40.0, 80.0, 160.0, 320.0};
constexpr std::size_t kRungs = std::size(kRates);
/// Each rung's share of the run. The first rung is nominal: its latencies
/// are the headline edit_ms_p50 / edit_ms_tail. Far below the knee, they
/// measure service time rather than queueing (queueing amplifies host noise
/// and varies far more from seed to seed); most of the run goes to it, so
/// its tail rests on many mega-board edits. A longer run would not steady
/// it: every board's script drifts further from its pristine board.
constexpr double kShares[kRungs] = {0.8, 0.05, 0.05, 0.05, 0.05};
constexpr std::size_t kNominal = 0;
/// Latency limit on a rung's edit_ms_tail; a rung also fails when its queue
/// does not empty within this long after its last due time.
constexpr double kLimitMs = 400.0;
/// Untimed warm-up edits, sent at the lowest rate before the first rung.
constexpr std::size_t kWarmupEvents = 22;
/// Set-ups, each started on the next CPU in turn (see setup_figure). One
/// takes about 0.25 s on 4 cores and varies by ±15 % within a run; fewer
/// than six rounds of four left the figure unsteady.
constexpr int kSetups = 24;
/// An edit not committed this long after the last due time counts as lost.
constexpr double kCommitTimeoutMs = 60000.0;

/// Events of rung `k` in a run of `seconds`.
std::size_t rung_events(std::size_t k, double seconds) {
  return static_cast<std::size_t>(std::ceil(kRates[k] * seconds * kShares[k]));
}

/// Events the run consumes: warm-up plus every rung.
std::size_t events_needed(double seconds) {
  std::size_t n = kWarmupEvents;
  for (std::size_t k = 0; k < kRungs; ++k) n += rung_events(k, seconds);
  return n;
}

/// The stream's boards: the ten full service_storm boards and, last, the
/// mega board, every seed re-keyed by the run seed, no mid-stream sync or
/// eviction (an open loop never waits for the service). Scripts are long
/// enough for the first `events` events of the merged stream.
lmr::scenario::ServiceStormCase stream_case(std::uint64_t seed, std::size_t events) {
  lmr::scenario::ServiceStormCase c = lmr::scenario::service_storm_cases(false).at(0);
  lmr::scenario::EditStormCase mega;
  mega.name = "mega_board/1k";
  mega.base = lmr::scenario::family("mega_board", false).cases.at(0);
  mega.edit_seed = 9901;
  c.boards.push_back(std::move(mega));
  // The merge interleaves boards by time, so every prefix holds about the
  // same share of each script; 20 % headroom keeps the prefix inside all.
  const int edits = static_cast<int>(std::ceil(static_cast<double>(events) /
                                               static_cast<double>(c.boards.size()) * 1.2)) +
                    2;
  for (lmr::scenario::EditStormCase& bc : c.boards) {
    bc.base.seed = derive_seed(bc.base.seed, seed);
    bc.edit_seed = derive_seed(bc.edit_seed, seed);
    bc.edits = edits;
  }
  c.stream_seed = derive_seed(c.stream_seed, seed);
  c.sync_every = 0;
  c.evict_at = 0;
  return c;
}

struct Setup {
  std::vector<Board> boards;
  std::vector<lmr::scenario::ServiceStormEvent> stream;
  std::unique_ptr<RoutingService> svc;
};

/// Scenario and storm generation plus the initial service routes.
Setup make_setup(const RunConfig& cfg, std::size_t events, Tracer* tracer) {
  Setup s;
  lmr::scenario::ServiceStorm storm;
  {
    const Span span(tracer, "scenario.materialize");
    storm = lmr::scenario::materialize_service_storm(stream_case(cfg.seed, events));
  }
  for (lmr::scenario::EditStorm& es : storm.boards) {
    const bool is_mega = &es == &storm.boards.back();
    const std::string& name = es.scenario.spec.name;  // "<family>/<size>"
    const lmr::scenario::Family fam =
        lmr::scenario::family(name.substr(0, name.find('/')), /*smoke=*/!is_mega);
    Board b;
    b.family = fam.name;
    b.gate_pct = fam.max_error_gate_pct;
    b.expect_drc_clean = es.spec.base.expect_drc_clean;
    b.fc = es.spec.base;
    b.sc = std::move(es.scenario);
    b.ropts = scenario_options(b.sc);
    b.sc.spec.name = es.spec.name;  // board id: unique within the stream
    s.boards.push_back(std::move(b));
  }
  s.stream = std::move(storm.stream);

  lmr::service::ServiceOptions sopts;
  sopts.threads = cfg.threads;  // threads - 1 workers; the generator is the last thread
  s.svc = std::make_unique<RoutingService>(sopts);
  for (const Board& b : s.boards) {
    s.svc->add_board(b.sc.spec.name, b.sc.rules, b.ropts, b.sc.layout);
  }
  s.svc->drain();
  return s;
}

struct RungResult {
  double rate = 0.0;
  std::vector<double> lat_ms;
  std::vector<double> armed_ms;     ///< edits submitted inside a span
  std::vector<double> disarmed_ms;
  double drain_ms = 0.0;  ///< last commit minus last due time
  double commit_rate = 0.0;  ///< edits committed per second, first due to last commit
  bool ok = false;
};

}  // namespace

void run_edit_stream(const RunConfig& cfg, Tracer* tracer, Outcome& out) {
  const std::size_t needed = events_needed(cfg.seconds);

  std::vector<double> setup_s;
  Setup st;
  for (int k = 0; k < kSetups; ++k) {
    st = Setup{};  // the previous service drains and shuts down first
    start_on_cpu(static_cast<std::size_t>(k));
    const auto t0 = lmr::core::now();
    st = make_setup(cfg, needed, tracer);
    setup_s.push_back(lmr::core::seconds_since(t0));
  }
  out.set("setup_s", setup_figure(setup_s));
  RoutingService& svc = *st.svc;
  const std::vector<Board>& boards = st.boards;
  const auto& stream = st.stream;
  if (stream.size() < needed) {
    out.fail("stream holds " + std::to_string(stream.size()) + " events, the run needs " +
             std::to_string(needed));
    return;
  }

  Quality initial;
  for (const Board& b : boards) {
    ++out.attempted;
    const auto& results = svc.board_route(b.sc.spec.name).results;
    const std::string miss = gate_miss(b, results);
    if (!miss.empty()) out.fail("initial route: " + miss);
    initial.add(b, results);
  }

  // --- the open loop ---
  struct Pending {
    std::uint64_t ordinal = 0;
    std::size_t event = 0;
  };
  std::vector<std::deque<Pending>> outstanding(boards.size());
  std::vector<double> due_ms(needed, 0.0);
  std::vector<double> commit_ms(needed, -1.0);
  std::vector<double> late_ms;
  std::size_t in_flight = 0;
  const auto origin = lmr::core::now();

  const auto poll = [&] {
    for (std::size_t b = 0; b < boards.size(); ++b) {
      auto& q = outstanding[b];
      if (q.empty()) continue;
      const std::uint64_t applied = svc.stats(boards[b].sc.spec.name).applied;
      const double now = ms_since(origin);
      while (!q.empty() && q.front().ordinal <= applied) {
        commit_ms[q.front().event] = now;
        q.pop_front();
        --in_flight;
      }
    }
  };
  const auto pause = [] { std::this_thread::sleep_for(std::chrono::microseconds(100)); };

  // Send events [a, b) at `rate`, then wait until all of them commit. A
  // null `rr` marks the untimed warm-up.
  const auto send = [&](std::size_t a, std::size_t b, double rate, RungResult* rr) {
    const double t0 = ms_since(origin) + 1.0;
    for (std::size_t i = a; i < b; ++i) {
      due_ms[i] = t0 + static_cast<double>(i - a) * 1e3 / rate;
      for (;;) {
        const double now = ms_since(origin);
        if (now >= due_ms[i]) break;
        poll();
        if (due_ms[i] - now > 0.3) pause();
      }
      if (rr != nullptr) late_ms.push_back(ms_since(origin) - due_ms[i]);
      const bool armed = tracer != nullptr && i % 2 == 0;
      const std::size_t bi = stream[i].board;
      lmr::service::SubmitResult r;
      {
        const Span s(armed ? tracer : nullptr, "service.submit", i);
        r = svc.submit(boards[bi].sc.spec.name, stream[i].edit);
      }
      ++out.attempted;
      if (!r.accepted()) {
        out.fail(boards[bi].sc.spec.name + ": edit shed by the service");
        continue;
      }
      outstanding[bi].push_back({r.ordinal, i});
      ++in_flight;
    }
    const double last_due = due_ms[b - 1];
    while (in_flight > 0 && ms_since(origin) - last_due < kCommitTimeoutMs) {
      poll();
      if (in_flight > 0) pause();
    }
    if (rr == nullptr) return;
    double last_commit = last_due;
    for (std::size_t i = a; i < b; ++i) {
      if (commit_ms[i] < 0.0) {
        out.fail(boards[stream[i].board].sc.spec.name + ": edit never committed");
        continue;
      }
      last_commit = std::max(last_commit, commit_ms[i]);
      const double lat = commit_ms[i] - due_ms[i];
      rr->lat_ms.push_back(lat);
      if (tracer != nullptr) (i % 2 == 0 ? rr->armed_ms : rr->disarmed_ms).push_back(lat);
    }
    rr->drain_ms = last_commit - last_due;
    rr->commit_rate = static_cast<double>(rr->lat_ms.size()) / ((last_commit - due_ms[a]) * 1e-3);
  };

  send(0, kWarmupEvents, kRates[0], nullptr);
  std::vector<RungResult> rungs(kRungs);
  std::size_t next = kWarmupEvents;
  for (std::size_t k = 0; k < kRungs; ++k) {
    const std::size_t n = rung_events(k, cfg.seconds);
    rungs[k].rate = kRates[k];
    const Span s(tracer, "bench.rung", k);
    send(next, next + n, kRates[k], &rungs[k]);
    next += n;
  }

  try {
    svc.drain();
  } catch (const lmr::service::ServiceError& e) {
    for (const auto& f : e.failures()) out.fail(f.board + ": " + f.message);
  }

  // --- verdicts, outside the timed window ---
  double max_ok_rate = 0.0;
  for (RungResult& r : rungs) {
    const Tail t = tail(r.lat_ms);
    r.ok = !r.lat_ms.empty() && t.value <= kLimitMs && r.drain_ms <= kLimitMs;
    if (r.ok) max_ok_rate = std::max(max_ok_rate, r.rate);
    out.note(fmt("rung %5.0f eps   n=%4.0f  p50 %8.3f ms  tail %8.3f ms  drain %8.3f ms  "
                 "committed %6.1f/s",
                 r.rate, static_cast<double>(r.lat_ms.size()), median(r.lat_ms), t.value,
                 r.drain_ms, r.commit_rate) +
             (r.ok ? "  ok" : "  over limit"));
  }

  // Service counters, summed over boards.
  double applied = 0.0;
  double batches = 0.0;
  double wait_s = 0.0;
  double wait_max_s = 0.0;
  double apply_s = 0.0;
  double max_depth = 0.0;
  for (const Board& b : boards) {
    const lmr::service::BoardStats s = svc.stats(b.sc.spec.name);
    applied += static_cast<double>(s.applied);
    batches += static_cast<double>(s.batches);
    wait_s += s.dispatch_wait_s;
    wait_max_s = std::max(wait_max_s, s.max_dispatch_wait_s);
    apply_s += s.apply_s;
    max_depth = std::max(max_depth, static_cast<double>(s.max_queue_depth));
    if (s.shed > 0) out.fail(b.sc.spec.name + ": shed edits", s.shed);
    if (s.dropped_edits > 0) out.fail(b.sc.spec.name + ": dropped edits", s.dropped_edits);
  }
  double late_sum = 0.0;
  for (const double l : late_ms) late_sum += l;
  const double late_mean = late_ms.empty() ? 0.0 : late_sum / static_cast<double>(late_ms.size());
  const double wait_mean_ms = applied > 0.0 ? wait_s / applied * 1e3 : 0.0;
  const double coalesce = batches > 0.0 ? applied / batches : 0.0;
  out.set("service.queue_wait_ms_mean", wait_mean_ms);
  out.set("service.queue_wait_ms_max", wait_max_s * 1e3);
  out.set("service.apply_ms_mean", batches > 0.0 ? apply_s / batches * 1e3 : 0.0);
  out.set("service.coalesce_ratio", coalesce);
  out.set("service.max_queue_depth", max_depth);
  out.set("service.generator_late_ms", late_mean);

  // Every end state must equal a fresh route of its board with the same
  // edits applied.
  std::vector<Script> scripts(boards.size());
  for (std::size_t b = 0; b < boards.size(); ++b) scripts[b].board = &boards[b];
  for (std::size_t i = 0; i < next; ++i) {
    scripts[stream[i].board].edits.push_back(stream[i].edit);
  }
  Quality final_state;
  for (const Script& sc : scripts) {
    const Board& b = *sc.board;
    const std::string& id = b.sc.spec.name;
    ++out.attempted;
    try {
      lmr::layout::Layout fresh = b.sc.layout;
      for (const auto& e : sc.edits) (void)lmr::layout::apply_edit(fresh, e);
      lmr::pipeline::RouterOptions o = b.ropts;
      o.threads = cfg.threads;
      const lmr::pipeline::Router router(b.sc.rules, o);
      const lmr::pipeline::BoardRoute oracle = router.route_board(fresh);
      std::string why;
      if (!lmr::pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id), fresh,
                                            oracle, &why)) {
        out.fail(id + ": end state differs from a fresh route: " + why);
      }
      final_state.add(b, svc.board_route(id).results);
    } catch (const std::exception& e) {
      out.fail(id + ": equivalence check threw: " + e.what());
    }
  }

  const RungResult& nominal = rungs[kNominal];
  const Tail nt = tail(nominal.lat_ms);
  out.set("latency_ms_p50", median(nominal.lat_ms));
  out.set("latency_ms_tail", nt.value);
  out.set("capacity_per_s", rungs.back().commit_rate);

  const auto nn = static_cast<double>(nominal.lat_ms.size());
  out.note(fmt("edit_ms_p50       %.3f ms  (%.0f eps nominal rung, n=%.0f)",
               median(nominal.lat_ms), nominal.rate, nn));
  out.note(fmt("edit_ms_tail      %.3f ms  (p%.2f, n=%.0f)", nt.value, nt.percentile, nn));
  out.note(fmt("max_ok_rate_eps   %.0f  (limit %.0f ms on edit_ms_tail and on drain)",
               max_ok_rate, kLimitMs));
  out.note(fmt("saturation_eps    %.1f  (commit rate while offered %.0f/s)",
               rungs.back().commit_rate, rungs.back().rate));
  out.note(fmt("max_error_pct     %.4f %%  (final edited states)", final_state.max_error_pct));
  out.note(fmt("avg_error_pct     %.4f %%", final_state.avg_error_pct()));
  out.note(fmt("drc_violations    %.0f  (initial routes; %.0f in final edited states)",
               static_cast<double>(initial.drc_violations),
               static_cast<double>(final_state.drc_violations)));
  out.note(fmt("stream            %.0f boards, %.0f events sent, generator late %.3f ms mean",
               static_cast<double>(boards.size()), static_cast<double>(next), late_mean));
  out.note(fmt("service           coalesce %.3f edits/batch, queue wait %.3f ms mean, "
               "%.3f ms max",
               coalesce, wait_mean_ms, wait_max_s * 1e3));

  if (tracer != nullptr) {
    out.set("trace.overhead_ms", median(nominal.armed_ms) - median(nominal.disarmed_ms));
    st.svc.reset();  // its workers must not compete with the probes
    lmr::exec::TaskPool pool(cfg.threads - 1);
    std::vector<RoutedBoard> routed(boards.size());
    for (std::size_t b = 0; b < boards.size(); ++b) {
      routed[b].board = &boards[b];
      routed[b].routed = boards[b].sc.layout;
      const lmr::pipeline::Router router(boards[b].sc.rules,
                                         on_pool(boards[b].ropts, &pool, cfg.threads));
      routed[b].results = router.route_all(routed[b].routed);
    }
    run_layer_probes(routed, scripts, cfg, &pool, *tracer, out);
    set_rollup_metrics(*tracer, kSetups, out);
  }
}

}  // namespace lmrbench
