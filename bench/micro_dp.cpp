/// \file micro_dp.cpp
/// Microbenchmarks for the §IV-D complexity claims: the DP transition is
/// O(n^2) in the number of discrete points (width loop capped makes it
/// O(n * W)), and URA height solving is near-linear in nearby polygons.
/// BM_HeightSolver times queries against one prebuilt solver;
/// BM_HeightSolverPerSegment adds the per-(segment, side) build the
/// extender pays before every DP. BM_ExtendSaturated runs the whole of
/// Alg. 1 on the saturated/narrow member, whose 100+ self-URAs make it the
/// slowest single extension of the paper boards.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/height_solver.hpp"
#include "core/segment_dp.hpp"
#include "core/trace_extender.hpp"
#include "scenario/scenario_families.hpp"

namespace {

void BM_SegmentDpFlat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lmr::core::DpParams p;
  p.n = n;
  p.step = 1.0;
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = 1e9;
  const lmr::core::HeightFn h = [](int, int, int, double req) { return req; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(lmr::core::run_segment_dp(p, h));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SegmentDpFlat)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_SegmentDpWidthCapped(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  lmr::core::DpParams p;
  p.n = n;
  p.step = 1.0;
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = 1e9;
  p.max_width_steps = 16;
  const lmr::core::HeightFn h = [](int, int, int, double req) { return req; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(lmr::core::run_segment_dp(p, h));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SegmentDpWidthCapped)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_HeightSolver(benchmark::State& state) {
  const int n_polys = static_cast<int>(state.range(0));
  std::vector<lmr::core::LocalPoly> polys;
  for (int i = 0; i < n_polys; ++i) {
    lmr::core::LocalPoly lp;
    const double x = 2.0 + (i * 37 % 100);
    const double y = 1.5 + (i * 13 % 7);
    lp.poly = lmr::geom::Polygon::rect({{x, y}, {x + 1.0, y + 1.0}});
    lp.kind = lmr::core::EnvKind::Obstacle;
    polys.push_back(std::move(lp));
  }
  const lmr::core::HeightSolver solver(std::move(polys), 0.5);
  for (auto _ : state) {
    for (double x0 = 2.0; x0 < 90.0; x0 += 11.0) {
      benchmark::DoNotOptimize(solver.max_height(x0, x0 + 6.0, 8.0));
    }
  }
  state.SetComplexityN(n_polys);
}
BENCHMARK(BM_HeightSolver)->RangeMultiplier(4)->Range(4, 256)->Complexity();

/// What the extender runs per queued segment: two side solvers built with
/// `for_segment` over an environment of obstacles on both sides of a
/// 100-long segment, then one width-capped DP whose height callback queries
/// them.
void BM_HeightSolverPerSegment(benchmark::State& state) {
  const int n_polys = static_cast<int>(state.range(0));
  lmr::core::Environment env;
  for (int i = 0; i < n_polys; ++i) {
    const double x = (i * 37 % 100) - 0.5;
    const double y = (i % 2 == 0 ? 1.0 : -2.0) * (1.5 + (i * 13 % 7));
    env.add_static(lmr::geom::Polygon::rect({{x, y}, {x + 1.0, y + 1.0}}),
                   lmr::core::EnvKind::Obstacle);
  }
  const lmr::geom::Segment seg{{0.0, 0.0}, {100.0, 0.0}};
  lmr::core::DpParams p;
  p.n = 101;
  p.step = 1.0;
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = 1e9;
  p.max_width_steps = 24;
  const double reach = 8.0;
  for (auto _ : state) {
    const auto up = lmr::core::HeightSolver::for_segment(env, seg, +1, reach, 0.5);
    const auto down = lmr::core::HeightSolver::for_segment(env, seg, -1, reach, 0.5);
    const lmr::core::HeightFn h = [&](int j, int i, int dir, double req) {
      return (dir > 0 ? up : down).max_height(j * p.step, i * p.step, std::min(req, reach));
    };
    benchmark::DoNotOptimize(lmr::core::run_segment_dp(p, h));
  }
  state.SetComplexityN(n_polys);
}
BENCHMARK(BM_HeightSolverPerSegment)->RangeMultiplier(4)->Range(4, 256)->Complexity();

/// The saturated/narrow member extended from its pristine geometry with
/// bench_suite's extender options (l_disc 0.5, width cap 24, the family's
/// tolerance): the extension every paper-board batch route waits on.
void BM_ExtendSaturated(benchmark::State& state) {
  const lmr::scenario::Scenario sc =
      lmr::scenario::materialize(lmr::scenario::family("saturated", false).cases.at(0));
  const lmr::layout::MatchGroup& group = sc.layout.groups().at(0);
  const lmr::layout::GroupMember& member = group.members.at(0);
  lmr::core::ExtenderConfig cfg;
  cfg.l_disc = 0.5;
  cfg.max_width_steps = 24;
  if (sc.spec.extender_tolerance > 0.0) cfg.tolerance = sc.spec.extender_tolerance;
  lmr::core::TraceExtender ext(sc.rules, *sc.layout.routable_area(member.id));
  std::size_t patterns = 0;
  for (auto _ : state) {
    lmr::layout::Trace trace = sc.layout.trace(member.id);
    const lmr::core::ExtendStats st = ext.extend(trace, group.target_for(0), cfg);
    patterns = static_cast<std::size_t>(st.patterns_inserted);
    benchmark::DoNotOptimize(st.final_length);
  }
  state.counters["patterns"] = static_cast<double>(patterns);
}
BENCHMARK(BM_ExtendSaturated)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
