/// \file micro_index.cpp
/// Microbenchmarks for the uniform segment grid (counting-sort build at the
/// first query, O(cells + k) window visits) behind layout::ClearanceIndex.
/// The ClearanceSweep trio times that index's sweep cold / warm / one-dirty
/// on a synthetic worst case; BM_ClearanceSweepOneGroup re-sweeps a routed
/// board after one group's re-insert, and BM_ClearanceSweepRoutedGroup
/// times the cold sweep a route pays per group. The ObstacleIndex pair
/// times, on the full mega_board's obstacles, a full rebuild against moving
/// one obstacle and updating the index in place — what an edit used to pay
/// against what a Session pays now.

#include <benchmark/benchmark.h>

#include <random>
#include <utility>
#include <vector>

#include "index/seg_grid.hpp"
#include "layout/clearance_index.hpp"
#include "layout/obstacle_index.hpp"
#include "pipeline/router.hpp"
#include "scenario/scenario_families.hpp"

namespace {

/// Short random segments in a 1000x1000 arena (10-30 long: the scale of one
/// meander leg against a ~20 cell).
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

/// The inserts plus the first query, which builds the grid.
void BM_SegGridBuild(benchmark::State& state) {
  const auto segs = random_segments(static_cast<std::size_t>(state.range(0)));
  lmr::index::SegGrid::Scratch scratch;
  for (auto _ : state) {
    lmr::index::SegGrid grid(20.0);
    for (std::size_t i = 0; i < segs.size(); ++i) {
      grid.insert(segs[i], static_cast<std::uint64_t>(i));
    }
    std::size_t count = 0;
    grid.visit({{500.0, 500.0}, {520.0, 520.0}}, scratch, [&](const auto&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
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
  lmr::index::SegGrid::Scratch scratch;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 980.0);
  for (auto _ : state) {
    const double x = u(rng), y = u(rng);
    std::size_t count = 0;
    grid.visit({{x, y}, {x + 20.0, y + 20.0}}, scratch, [&](const auto&) {
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
/// re-registers that slot's segments and only that slot re-queries, so the
/// cost no longer grows with n). The fixture is the grid's worst case, not
/// a routed board: each trace is one 400-long straight segment, so with
/// cells sized to the 1.2 worst-case gap one segment spans ~330 cells.
/// Routed traces are meander legs of a few cells each; BM_ClearanceSweepOneGroup
/// times those.
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

/// The regime an edit stream hits: the smoke mega_board (8 groups x 32
/// nets) routed once and indexed in the Session::board_clearance slot shape
/// (members in group order, one net per member, a pair's sub-traces two
/// slots of one net). Each iteration re-inserts the next group's slots, as
/// a reroute of that group does, and sweeps.
void BM_ClearanceSweepOneGroup(benchmark::State& state) {
  using lmr::layout::Trace;
  lmr::scenario::Scenario sc =
      lmr::scenario::materialize(lmr::scenario::family("mega_board", true).cases.at(0));
  lmr::pipeline::RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  opts.run_drc = false;
  (void)lmr::pipeline::Router(sc.rules, opts).route_all(sc.layout);

  lmr::layout::ClearanceIndex index(sc.rules, opts.drc);
  std::vector<std::vector<std::pair<std::uint32_t, const Trace*>>> groups;
  std::uint32_t net = 0;
  for (const lmr::layout::MatchGroup& g : sc.layout.groups()) {
    auto& slots = groups.emplace_back();
    for (const lmr::layout::GroupMember& m : g.members) {
      if (m.kind == lmr::layout::MemberKind::SingleEnded) {
        const Trace& t = sc.layout.trace(m.id);
        slots.emplace_back(index.add_slot(t.width, net), &t);
      } else {
        const lmr::layout::DiffPair& pair = sc.layout.pair(m.id);
        slots.emplace_back(index.add_slot(pair.positive.width, net), &pair.positive);
        slots.emplace_back(index.add_slot(pair.negative.width, net), &pair.negative);
      }
      ++net;
    }
  }
  for (const auto& slots : groups) {
    for (const auto& [slot, t] : slots) index.insert(slot, *t);
  }
  benchmark::DoNotOptimize(index.sweep().size());
  std::size_t g = 0;
  for (auto _ : state) {
    for (const auto& [slot, t] : groups[g]) index.insert(slot, *t);
    g = (g + 1) % groups.size();
    benchmark::DoNotOptimize(index.sweep().size());
  }
}
BENCHMARK(BM_ClearanceSweepOneGroup)->Unit(benchmark::kMicrosecond);

/// The cold cross-member sweep `Router::run` pays once per group, on a
/// routed group: arg 0 is large_group/40's group, arg 1 Table I case 1's.
/// Each iteration declares the group's slots in member order (a pair's
/// sub-traces two slots of one net), inserts every member and sweeps.
void BM_ClearanceSweepRoutedGroup(benchmark::State& state) {
  using lmr::layout::Trace;
  const char* family = state.range(0) == 0 ? "large_group" : "table1";
  lmr::scenario::Scenario sc =
      lmr::scenario::materialize(lmr::scenario::family(family, false).cases.at(0));
  lmr::pipeline::RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  if (sc.spec.extender_tolerance > 0.0) opts.extender.tolerance = sc.spec.extender_tolerance;
  opts.run_drc = false;
  (void)lmr::pipeline::Router(sc.rules, opts).route_all(sc.layout);

  std::vector<std::pair<std::uint32_t, const Trace*>> slots;  // (net, trace)
  std::uint32_t net = 0;
  for (const lmr::layout::GroupMember& m : sc.layout.groups().at(0).members) {
    if (m.kind == lmr::layout::MemberKind::SingleEnded) {
      slots.emplace_back(net, &sc.layout.trace(m.id));
    } else {
      const lmr::layout::DiffPair& pair = sc.layout.pair(m.id);
      slots.emplace_back(net, &pair.positive);
      slots.emplace_back(net, &pair.negative);
    }
    ++net;
  }
  std::size_t segments = 0;
  for (const auto& [n, t] : slots) segments += t->path.segment_count();
  for (auto _ : state) {
    lmr::layout::ClearanceIndex index(sc.rules, opts.drc);
    for (const auto& [n, t] : slots) index.add_slot(t->width, n);
    for (std::uint32_t k = 0; k < slots.size(); ++k) index.insert(k, *slots[k].second);
    benchmark::DoNotOptimize(index.sweep().size());
  }
  state.SetLabel(sc.spec.name);
  state.counters["segments"] = static_cast<double>(segments);
}
BENCHMARK(BM_ClearanceSweepRoutedGroup)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// The full mega_board's obstacles (materialized once per process).
const std::vector<lmr::layout::Obstacle>& mega_obstacles() {
  static const std::vector<lmr::layout::Obstacle> obstacles =
      lmr::scenario::materialize(lmr::scenario::family("mega_board", false).cases.at(0))
          .layout.obstacles();
  return obstacles;
}

void BM_ObstacleIndexRebuild(benchmark::State& state) {
  const std::vector<lmr::layout::Obstacle>& obstacles = mega_obstacles();
  for (auto _ : state) {
    const lmr::layout::ObstacleIndex index(obstacles);
    benchmark::DoNotOptimize(index.size());
  }
  state.counters["obstacles"] = static_cast<double>(obstacles.size());
}
BENCHMARK(BM_ObstacleIndexRebuild)->Unit(benchmark::kMicrosecond);

/// One obstacle moved and folded into the index in place, as
/// Session::apply does for a MoveObstacle edit. Each iteration nudges the
/// next obstacle out and back on alternate passes, so the board stays put.
void BM_ObstacleIndexEdit(benchmark::State& state) {
  std::vector<lmr::layout::Obstacle> obstacles = mega_obstacles();
  lmr::layout::ObstacleIndex index(obstacles);
  lmr::layout::LayoutDelta move;
  move.kind = lmr::layout::DeltaKind::MoveObstacle;
  std::size_t k = 0;
  double dir = 1.0;
  for (auto _ : state) {
    move.obstacle = k;
    for (lmr::geom::Point& p : obstacles[k].shape.points()) p += {0.6 * dir, 0.3 * dir};
    index.apply(move, obstacles);
    if (++k == obstacles.size()) {
      k = 0;
      dir = -dir;
    }
  }
  benchmark::DoNotOptimize(index.size());
}
BENCHMARK(BM_ObstacleIndexEdit)->Unit(benchmark::kMicrosecond);

/// The indexed per-net obstacle check a route pays: arg 0 routes the full
/// mega_board, arg 1 the smoke one, and each iteration runs
/// DrcChecker::check_obstacles through one ObstacleIndex over every routed
/// trace (a pair's sub-traces under the pair's width, as the Router checks
/// them).
void BM_ObstacleIndexQuery(benchmark::State& state) {
  using lmr::layout::Trace;
  lmr::scenario::Scenario sc = lmr::scenario::materialize(
      lmr::scenario::family("mega_board", state.range(0) != 0).cases.at(0));
  lmr::pipeline::RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  opts.run_drc = false;
  (void)lmr::pipeline::Router(sc.rules, opts).route_all(sc.layout);

  std::vector<std::pair<const Trace*, lmr::drc::DesignRules>> traces;
  for (const auto& [id, t] : sc.layout.traces()) traces.emplace_back(&t, sc.rules);
  for (const auto& [id, pair] : sc.layout.pairs()) {
    lmr::drc::DesignRules sub = sc.rules;
    sub.trace_width = pair.positive.width;
    traces.emplace_back(&pair.positive, sub);
    traces.emplace_back(&pair.negative, sub);
  }
  std::size_t segments = 0;
  for (const auto& [t, rules] : traces) segments += t->path.segment_count();
  const lmr::layout::ObstacleIndex index(sc.layout.obstacles());
  const lmr::layout::DrcChecker checker(opts.drc);
  for (auto _ : state) {
    std::size_t violations = 0;
    for (const auto& [t, rules] : traces) {
      violations += checker.check_obstacles(*t, rules, index).size();
    }
    benchmark::DoNotOptimize(violations);
  }
  state.SetLabel(sc.spec.name);
  state.counters["traces"] = static_cast<double>(traces.size());
  state.counters["segments"] = static_cast<double>(segments);
}
BENCHMARK(BM_ObstacleIndexQuery)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
