/// \file micro_rangetree.cpp
/// Microbenchmarks for the two spatial indexes: the range tree of §IV-D
/// (O(N log N) build, O(log^2 N + k) window queries — Alg. 2's P_check
/// accelerator inside HeightSolver) and the uniform segment grid (O(1)
/// insert/remove, O(cells + k) window visits) behind
/// layout::ClearanceIndex. The ClearanceSweep trio times that index's
/// sweep cold / warm / one-dirty.

#include <benchmark/benchmark.h>

#include <random>

#include "index/range_tree.hpp"
#include "index/seg_grid.hpp"
#include "layout/clearance_index.hpp"

namespace {

std::vector<lmr::index::RangeTree2D::Entry> random_entries(std::size_t n) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> u(0.0, 1000.0);
  std::vector<lmr::index::RangeTree2D::Entry> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    entries.push_back({{u(rng), u(rng)}, i});
  }
  return entries;
}

/// Short random segments in the same 1000x1000 arena the point entries use
/// (10-30 long: the scale of one meander leg against a ~20 cell).
std::vector<lmr::geom::Segment> random_segments(std::size_t n) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> u(0.0, 970.0);
  std::uniform_real_distribution<double> d(10.0, 30.0);
  std::vector<lmr::geom::Segment> segs;
  segs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const lmr::geom::Point a{u(rng), u(rng)};
    segs.push_back({a, {a.x + d(rng), a.y + d(rng)}});
  }
  return segs;
}

void BM_RangeTreeBuild(benchmark::State& state) {
  const auto entries = random_entries(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    lmr::index::RangeTree2D tree{entries};
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RangeTreeBuild)->RangeMultiplier(4)->Range(256, 65536)->Complexity();

void BM_RangeTreeQuerySmallWindow(benchmark::State& state) {
  const auto entries = random_entries(static_cast<std::size_t>(state.range(0)));
  const lmr::index::RangeTree2D tree{entries};
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 980.0);
  for (auto _ : state) {
    const double x = u(rng), y = u(rng);
    std::size_t count = 0;
    tree.visit({{x, y}, {x + 20.0, y + 20.0}}, [&](const auto&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RangeTreeQuerySmallWindow)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

void BM_SegGridBuild(benchmark::State& state) {
  const auto segs = random_segments(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    lmr::index::SegGrid grid(20.0);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      grid.insert(segs[i], static_cast<std::uint64_t>(i));
    }
    benchmark::DoNotOptimize(grid.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SegGridBuild)->RangeMultiplier(4)->Range(256, 65536)->Complexity();

void BM_SegGridQuerySmallWindow(benchmark::State& state) {
  const auto segs = random_segments(static_cast<std::size_t>(state.range(0)));
  lmr::index::SegGrid grid(20.0);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    grid.insert(segs[i], static_cast<std::uint64_t>(i));
  }
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 980.0);
  for (auto _ : state) {
    const double x = u(rng), y = u(rng);
    std::size_t count = 0;
    grid.visit({{x, y}, {x + 20.0, y + 20.0}}, [&](const auto&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SegGridQuerySmallWindow)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

/// ClearanceIndex sweep cache: a board of parallel traces, swept repeatedly.
/// Three regimes — cold (every sweep re-indexes everything, the pre-cache
/// behaviour), warm (nothing changed; cached violations returned verbatim),
/// and one-dirty (a single trace re-inserted per sweep; the grid
/// re-registers that slot's segments). The fixture is the grid's worst
/// case, not a routed board: each trace is one 400-long straight segment,
/// so with cells sized to the 1.2 worst-case gap one segment spans ~330
/// cells. Routed traces are meander legs of a few cells each.
struct SweepFixture {
  lmr::drc::DesignRules rules;
  std::vector<lmr::layout::Trace> traces;

  explicit SweepFixture(std::size_t n) {
    rules.gap = 1.0;
    traces.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      lmr::layout::Trace& t = traces[i];
      t.id = static_cast<lmr::layout::TraceId>(i + 1);
      t.width = 0.2;
      const double y = static_cast<double>(i) * 2.0;
      t.path = lmr::geom::Polyline{{{0.0, y}, {400.0, y}}};
    }
  }

  [[nodiscard]] lmr::layout::ClearanceIndex make_index() const {
    lmr::layout::ClearanceIndex index(rules);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      index.add_slot(traces[i].width, static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = 0; i < traces.size(); ++i) {
      index.insert(static_cast<std::uint32_t>(i), traces[i]);
    }
    return index;
  }
};

void BM_ClearanceSweepCold(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    // A fresh index registers every slot, forcing a full grid build —
    // equivalent to the pre-cache sweep() cost.
    auto index = fx.make_index();
    benchmark::DoNotOptimize(index.sweep().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClearanceSweepCold)->RangeMultiplier(16)->Range(16, 4096)->Complexity();

void BM_ClearanceSweepWarm(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  auto index = fx.make_index();
  benchmark::DoNotOptimize(index.sweep().size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.sweep().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClearanceSweepWarm)->RangeMultiplier(16)->Range(16, 4096)->Complexity();

void BM_ClearanceSweepOneDirty(benchmark::State& state) {
  const SweepFixture fx(static_cast<std::size_t>(state.range(0)));
  auto index = fx.make_index();
  benchmark::DoNotOptimize(index.sweep().size());
  for (auto _ : state) {
    index.insert(0, fx.traces[0]);
    benchmark::DoNotOptimize(index.sweep().size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ClearanceSweepOneDirty)->RangeMultiplier(16)->Range(16, 4096)->Complexity();

}  // namespace

BENCHMARK_MAIN();
