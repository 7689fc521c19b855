#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "layout/board_edit.hpp"
#include "layout/obstacle_index.hpp"
#include "pipeline/router.hpp"
#include "pipeline/session.hpp"
#include "scenario/scenario_families.hpp"

/// Mega-board contract of Router::route_board / reroute, with one board-wide
/// layout::ObstacleIndex shared read-only by every group task: how the board
/// is scheduled never changes the outcome. Routed geometry and violation
/// sets are bit-identical for every thread count, and an incremental
/// reroute, which re-runs only the members an edit reaches, equals a fresh
/// route.

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

TEST(MegaBoardRoute, IdenticalAcrossThreadCounts) {
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

TEST(MegaBoardRoute, RerouteMatchesFreshSerialRoute) {
  // Edit script: retarget one group, nudge one obstacle, each followed by a
  // reroute. The reroutes must splice to exactly the state a fresh serial
  // route of the edited board produces — and must not re-run the whole
  // board to get there: the retarget re-runs its group, the nudge only the
  // members near the obstacle.
  const auto script = [](const layout::Layout& l) {
    layout::BoardEdit retarget;
    retarget.kind = layout::BoardEditKind::SetGroupTarget;
    retarget.group = 0;
    retarget.target = l.groups()[0].target_length * 1.02;

    layout::BoardEdit nudge;
    nudge.kind = layout::BoardEditKind::MoveObstacle;
    nudge.obstacle = 5;
    nudge.move = {0.6, 0.3};
    return std::vector<layout::BoardEdit>{retarget, nudge};
  };

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    scenario::Scenario sc = mega_smoke();
    const std::vector<layout::BoardEdit> edits = script(sc.layout);
    const Router router(sc.rules, mega_options(sc, threads));
    BoardRoute route = router.route_board(sc.layout);
    const auto rerouted_in = [&](std::size_t g) {
      std::size_t n = 0;
      for (const layout::GroupMember& m : route.rerouted_members) {
        n += sc.layout.group_of(m.id) == g ? 1 : 0;
      }
      return n;
    };

    layout::apply_edit(sc.layout, edits[0]);
    router.reroute(sc.layout, route, layout::ObstacleIndex(sc.layout.obstacles()));
    EXPECT_EQ(route.rerouted_groups, std::vector<std::size_t>{0});
    EXPECT_EQ(rerouted_in(0), sc.layout.groups()[0].members.size())
        << "a retarget re-runs its whole group";

    layout::apply_edit(sc.layout, edits[1]);
    router.reroute(sc.layout, route, layout::ObstacleIndex(sc.layout.obstacles()));
    ASSERT_FALSE(route.rerouted_members.empty()) << "the nudge must reach some member";
    EXPECT_LT(route.rerouted_groups.size(), sc.layout.groups().size())
        << "a local edit must not dirty the whole board";
    for (const std::size_t g : route.rerouted_groups) {
      EXPECT_LT(rerouted_in(g), sc.layout.groups()[g].members.size())
          << "the nudge re-ran every member of group " << g;
    }

    scenario::Scenario fresh = mega_smoke();
    for (const layout::BoardEdit& e : edits) layout::apply_edit(fresh.layout, e);
    const Router oracle(fresh.rules, mega_options(fresh, 1));
    const BoardRoute full = oracle.route_board(fresh.layout);
    std::string why;
    EXPECT_TRUE(routes_equivalent(sc.layout, route, fresh.layout, full, &why)) << why;
  }
}

}  // namespace
}  // namespace lmr::pipeline
