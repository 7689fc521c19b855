/// \file micro_executor.cpp
/// Executor microbenchmarks: the dispatch cost of the persistent pool, and
/// what a repeated `route_batch` costs end to end.
///
///  * PoolSubmitDrain — pure dispatch overhead of one claimer-style fan-out
///    with trivial tasks on a pool whose workers persist across calls.
///  * ParallelForDynamic — the helper the router actually calls, per
///    fan-out cost at several widths.
///  * RouteBatchRepeated — 1x route_batch on the multi_group/3x6 board per
///    iteration through one persistent Router (pool created once); the
///    repeated-call regression measure of the executor PR.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "exec/task_pool.hpp"
#include "pipeline/router.hpp"
#include "scenario/scenario_families.hpp"

namespace {

/// Pool fan-out: `threads` claimers, workers persist across iterations.
void BM_PoolSubmitDrain(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 16;
  lmr::exec::TaskPool pool(threads - 1);
  for (auto _ : state) {
    std::atomic<std::size_t> sum{0};
    lmr::exec::parallel_for_dynamic(pool, n, threads, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_PoolSubmitDrain)->Arg(2)->Arg(4)->Arg(8);

/// Fan-out width sweep on the shared claimer helper.
void BM_ParallelForDynamic(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lmr::exec::TaskPool pool(lmr::exec::resolve_threads(0) - 1);
  std::vector<std::size_t> out(n, 0);
  for (auto _ : state) {
    lmr::exec::parallel_for_dynamic(pool, n, lmr::exec::resolve_threads(0),
                                    [&](std::size_t i) { out[i] = i * i; });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDynamic)->Arg(8)->Arg(64)->Arg(512);

/// Repeated end-to-end route_batch through one persistent Router: the
/// multi_group/3x6 board, first group, fresh layout copy per iteration.
void BM_RouteBatchRepeated(benchmark::State& state) {
  const auto fam = lmr::scenario::family("multi_group", false);
  const lmr::scenario::Scenario sc = lmr::scenario::materialize(fam.cases.at(0));
  lmr::pipeline::RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  opts.threads = static_cast<std::size_t>(state.range(0));
  const lmr::pipeline::Router router(sc.rules, opts);
  for (auto _ : state) {
    lmr::layout::Layout layout = sc.layout;
    const lmr::pipeline::RouteResult rr = router.route_batch(layout, 0);
    benchmark::DoNotOptimize(rr.group.max_error_pct);
  }
}
BENCHMARK(BM_RouteBatchRepeated)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
