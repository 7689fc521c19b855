#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "layout/board_edit.hpp"
#include "pipeline/router.hpp"
#include "pipeline/session.hpp"
#include "scenario/scenario_families.hpp"

/// Mega-board contract of Router::route_board / reroute. The router once
/// split a board into spatial tiles with tile-local obstacle subsets; one
/// board-wide layout::ObstacleIndex, shared read-only by every group task,
/// now does that job. The contract the tiles were held to stays: how the
/// board is scheduled never changes the outcome. Routed geometry and
/// violation sets are bit-identical for every thread count, and an
/// incremental reroute equals a fresh route.

namespace lmr::pipeline {
namespace {

/// The bench suite's router configuration (Suite::router_options_for),
/// with the thread count under test on top.
RouterOptions mega_options(const scenario::Scenario& sc, std::size_t threads) {
  RouterOptions o;
  o.extender.l_disc = 0.5;
  o.extender.max_width_steps = 24;
  o.threads = threads;
  if (sc.spec.extender_tolerance > 0.0) o.extender.tolerance = sc.spec.extender_tolerance;
  if (sc.pair_rule_set.size() > 1) o.pair_rule_set = sc.pair_rule_set;
  return o;
}

scenario::Scenario mega_smoke() {
  return scenario::materialize(scenario::family("mega_board", true).cases.at(0));
}

TEST(TileRouting, MegaBoardRouteIsIdenticalAcrossTilesAndThreads) {
  // Baseline: serial. Every thread count must reproduce it bit for bit.
  scenario::Scenario base = mega_smoke();
  const Router baseline(base.rules, mega_options(base, 1));
  const BoardRoute want = baseline.route_board(base.layout);
  ASSERT_GT(base.layout.groups().size(), 1u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    scenario::Scenario sc = mega_smoke();
    const Router router(sc.rules, mega_options(sc, threads));
    const BoardRoute got = router.route_board(sc.layout);
    std::string why;
    EXPECT_TRUE(routes_equivalent(base.layout, want, sc.layout, got, &why)) << why;
  }
}

TEST(TileRouting, RerouteUnderTilingMatchesFreshRoute) {
  // Edit script: retarget one group, nudge one obstacle. The reroute must
  // splice to exactly the state a fresh serial route of the edited board
  // produces — and must not re-run the whole board to get there.
  const auto edits = [](layout::Layout& l) {
    layout::BoardEdit retarget;
    retarget.kind = layout::BoardEditKind::SetGroupTarget;
    retarget.group = 0;
    retarget.target = l.groups()[0].target_length * 1.02;
    layout::apply_edit(l, retarget);

    layout::BoardEdit nudge;
    nudge.kind = layout::BoardEditKind::MoveObstacle;
    nudge.obstacle = 5;
    nudge.move = {0.6, 0.3};
    layout::apply_edit(l, nudge);
  };

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    scenario::Scenario sc = mega_smoke();
    const Router router(sc.rules, mega_options(sc, threads));
    const BoardRoute prior = router.route_board(sc.layout);
    edits(sc.layout);
    const BoardRoute incremental = router.reroute(sc.layout, prior);
    EXPECT_FALSE(incremental.rerouted_groups.empty());
    EXPECT_LT(incremental.rerouted_groups.size(), sc.layout.groups().size())
        << "local edits must not dirty the whole board";

    scenario::Scenario fresh = mega_smoke();
    edits(fresh.layout);
    const Router oracle(fresh.rules, mega_options(fresh, 1));
    const BoardRoute full = oracle.route_board(fresh.layout);
    std::string why;
    EXPECT_TRUE(routes_equivalent(sc.layout, incremental, fresh.layout, full, &why))
        << why;
  }
}

}  // namespace
}  // namespace lmr::pipeline
