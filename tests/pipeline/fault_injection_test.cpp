/// Router-level fault injection: the strong exception guarantee under the
/// deterministic fault plane. An injected fault or expired deadline at any
/// stage — member extension, the cross-member sweep, or the extender's
/// pattern loop — must unwind through the Router's rollback (the snapshot
/// its group driver writes back) and leave the layout byte-identical to its
/// pre-route state; a retry with the fault window spent must then produce
/// exactly the route an unfaulted run does.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/cancel.hpp"
#include "fault/fault_plan.hpp"
#include "layout/board_edit.hpp"
#include "layout/obstacle_index.hpp"
#include "pipeline/session.hpp"
#include "scenario/edit_storm.hpp"
#include "scenario/scenario_families.hpp"

namespace lmr::pipeline {
namespace {

/// Serial unless a test says otherwise: members and groups run in order, so
/// a fault finds every earlier one written back.
RouterOptions storm_options(const scenario::Scenario& sc) {
  RouterOptions o;
  o.threads = 1;
  o.extender.l_disc = 0.5;
  o.extender.max_width_steps = 24;
  if (sc.spec.extender_tolerance > 0.0) o.extender.tolerance = sc.spec.extender_tolerance;
  if (sc.pair_rule_set.size() > 1) o.pair_rule_set = sc.pair_rule_set;
  return o;
}

/// Snapshot every member path on the board for the untouched-layout check.
std::vector<std::vector<geom::Point>> all_paths(const layout::Layout& l) {
  std::vector<std::vector<geom::Point>> paths;
  for (const auto& [id, t] : l.traces()) {
    (void)id;
    paths.push_back(t.path.points());
  }
  for (const auto& [id, p] : l.pairs()) {
    (void)id;
    paths.push_back(p.positive.path.points());
    paths.push_back(p.negative.path.points());
  }
  return paths;
}

TEST(FaultInjection, ExtendFaultRollsBackAndRetrySucceeds) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  opts.fault_scope = "b0";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  // Second member of group 0 dies once: sibling members may already have
  // written back, so this exercises the restore loop, not just the throw.
  opts.fault_plan->add({fault::extend_site("b0", 0, 1), /*nth=*/1, /*count=*/1});

  layout::Layout board = storm.scenario.layout;
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route_batch(board, 0), fault::InjectedFault);
  EXPECT_EQ(all_paths(board), before) << "rollback left residue";

  // Window spent: the retry must equal a never-faulted route bit for bit.
  const RouteResult retried = router.route_batch(board, 0);
  layout::Layout clean_board = storm.scenario.layout;
  const Router clean(storm.scenario.rules, storm_options(storm.scenario));
  const RouteResult reference = clean.route_batch(clean_board, 0);
  EXPECT_EQ(all_paths(board), all_paths(clean_board));
  EXPECT_EQ(retried.violation_count(), reference.violation_count());
}

TEST(FaultInjection, BoardRouteRollsBackSiblingGroupsOnFault) {
  // Board-level strong guarantee: sibling groups that finished before one
  // group's fault propagates must be restored too — otherwise a retry
  // re-extends already-extended traces and diverges from a fresh route.
  // Two schedules: at 4 threads with group 0 faulted, siblings complete
  // while it is dying; serially with the last group faulted, every earlier
  // group has written back when it throws.
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  const std::size_t n_groups = storm.scenario.layout.groups().size();
  ASSERT_GE(n_groups, 2u) << "needs sibling groups to expose the leak";
  struct Schedule {
    std::size_t threads;
    std::size_t faulted_group;
  };
  for (const Schedule s : {Schedule{4, 0}, Schedule{1, n_groups - 1}}) {
    SCOPED_TRACE("t" + std::to_string(s.threads) + "/g" + std::to_string(s.faulted_group));
    RouterOptions opts = storm_options(storm.scenario);
    opts.threads = s.threads;
    opts.fault_scope = "b0";
    opts.fault_plan = std::make_shared<fault::FaultPlan>();
    opts.fault_plan->add(
        {fault::extend_site("b0", s.faulted_group, 0), /*nth=*/1, /*count=*/1});

    layout::Layout board = storm.scenario.layout;
    const auto before = all_paths(board);
    const Router router(storm.scenario.rules, opts);
    EXPECT_THROW((void)router.route_board(board), fault::InjectedFault);
    EXPECT_EQ(all_paths(board), before) << "a sibling group kept its geometry";

    // Window spent: the whole-board retry must match a never-faulted board.
    const BoardRoute retried = router.route_board(board);
    layout::Layout clean_board = storm.scenario.layout;
    RouterOptions clean_opts = storm_options(storm.scenario);
    clean_opts.threads = s.threads;
    const Router clean(storm.scenario.rules, clean_opts);
    const BoardRoute reference = clean.route_board(clean_board);
    EXPECT_EQ(all_paths(board), all_paths(clean_board));
    std::string why;
    EXPECT_TRUE(routes_equivalent(board, retried, clean_board, reference, &why)) << why;
  }
}

TEST(FaultInjection, SweepFaultStillRollsBackEveryWriteback) {
  // The sweep site sits after every member's closure completed — every member
  // has written back by then, so rollback must restore all of them.
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  opts.fault_scope = "b0";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  opts.fault_plan->add({fault::sweep_site("b0", 0), /*nth=*/1, /*count=*/1});

  layout::Layout board = storm.scenario.layout;
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route_batch(board, 0), fault::InjectedFault);
  EXPECT_EQ(all_paths(board), before) << "sweep-site fault skipped the rollback";
  EXPECT_NO_THROW((void)router.route_batch(board, 0));
}

TEST(FaultInjection, MemberRerouteFaultLeavesLayoutAndRouteUnchanged) {
  // A reroute re-runs only the members an obstacle nudge reaches. Its fault
  // site names a member by its index in the group, not by its position in
  // the re-run subset, so the fault is armed at the last re-run member of
  // the first group the nudge reaches. The nudged via sits mid-group, so
  // that index lies past its subset position. Occurrence 1 is the
  // initial route; occurrence 2 is the reroute, which must throw and leave
  // every member's geometry and the BoardRoute exactly as before the call.
  // With the window spent, the same reroute then matches a fresh route.
  scenario::Scenario base =
      scenario::materialize(scenario::family("mega_board", true).cases.at(0));
  layout::BoardEdit nudge;
  nudge.kind = layout::BoardEditKind::MoveObstacle;
  nudge.obstacle = 100;
  nudge.move = {0.6, 0.3};

  // Dry run: which members does the nudge re-run?
  std::size_t group = 0;
  std::size_t member = 0;
  {
    scenario::Scenario sc = base;
    const Router router(sc.rules, storm_options(sc));
    BoardRoute route = router.route_board(sc.layout);
    layout::apply_edit(sc.layout, nudge);
    router.reroute(sc.layout, route, layout::ObstacleIndex(sc.layout.obstacles()));
    ASSERT_FALSE(route.rerouted_groups.empty());
    group = route.rerouted_groups.front();
    const std::vector<layout::GroupMember>& members = sc.layout.groups()[group].members;
    std::size_t position = 0;
    for (const layout::GroupMember& m : route.rerouted_members) {
      if (sc.layout.group_of(m.id) != group) continue;
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i].id == m.id) member = i;
      }
      ++position;
    }
    ASSERT_LT(position, members.size()) << "the nudge must not re-run the whole group";
    ASSERT_GE(member, position) << "the armed member must sit past its subset position";
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    scenario::Scenario sc = base;
    RouterOptions opts = storm_options(sc);
    opts.threads = threads;
    opts.fault_scope = "mega";
    opts.fault_plan = std::make_shared<fault::FaultPlan>();
    opts.fault_plan->add({fault::extend_site("mega", group, member), /*nth=*/2, /*count=*/1});
    const Router router(sc.rules, opts);
    BoardRoute route = router.route_board(sc.layout);
    layout::apply_edit(sc.layout, nudge);
    const layout::ObstacleIndex obstacles(sc.layout.obstacles());

    const auto paths = all_paths(sc.layout);
    const layout::Layout layout_before = sc.layout;
    const BoardRoute route_before = route;
    EXPECT_THROW(router.reroute(sc.layout, route, obstacles), fault::InjectedFault);
    EXPECT_EQ(all_paths(sc.layout), paths) << "rollback left residue";
    EXPECT_EQ(route.version, route_before.version);
    EXPECT_EQ(route.rerouted_groups, route_before.rerouted_groups);
    EXPECT_EQ(route.rerouted_members.size(), route_before.rerouted_members.size());
    EXPECT_EQ(route.seeds.size(), route_before.seeds.size());
    std::string why;
    EXPECT_TRUE(routes_equivalent(sc.layout, route, layout_before, route_before, &why)) << why;

    router.reroute(sc.layout, route, obstacles);
    scenario::Scenario fresh = base;
    layout::apply_edit(fresh.layout, nudge);
    const BoardRoute full = Router(fresh.rules, storm_options(fresh)).route_board(fresh.layout);
    EXPECT_TRUE(routes_equivalent(sc.layout, route, fresh.layout, full, &why)) << why;
  }
}

TEST(FaultInjection, ImpossibleDeadlineTimesOutCleanly) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  opts.deadline_s = 1e-12;

  layout::Layout board = storm.scenario.layout;
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route_batch(board, 0), fault::RouteTimeout);
  EXPECT_EQ(all_paths(board), before);
}

TEST(FaultInjection, GenerousDeadlineDoesNotPerturbTheRoute) {
  // The armed-token path (patched extender config, per-pop polls) must be
  // behaviour-neutral: same geometry and violations as the disarmed run.
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions timed = storm_options(storm.scenario);
  timed.deadline_s = 3600.0;

  layout::Layout timed_board = storm.scenario.layout;
  layout::Layout plain_board = storm.scenario.layout;
  const Router timed_router(storm.scenario.rules, timed);
  const Router plain_router(storm.scenario.rules, storm_options(storm.scenario));
  const RouteResult a = timed_router.route_batch(timed_board, 0);
  const RouteResult b = plain_router.route_batch(plain_board, 0);
  EXPECT_EQ(all_paths(timed_board), all_paths(plain_board));
  EXPECT_EQ(a.violation_count(), b.violation_count());
}

TEST(FaultInjection, PreCancelledTokenAbortsBeforeAnyWork) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  RouterOptions opts = storm_options(storm.scenario);
  const fault::CancelToken token = fault::CancelToken::source();
  token.cancel();
  opts.cancel = token;

  layout::Layout board = storm.scenario.layout;
  const auto before = all_paths(board);
  const Router router(storm.scenario.rules, opts);
  EXPECT_THROW((void)router.route_batch(board, 0), fault::RouteCancelled);
  EXPECT_EQ(all_paths(board), before);
}

TEST(FaultInjection, ExtenderLoopHonoursMidRouteCancellation) {
  // Cancellation polled inside the DP loop itself: cancel after routing
  // starts is observed without finishing the board (here pre-armed, the
  // first pop throws; granularity is one pattern placement).
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  core::ExtenderConfig cfg;
  cfg.l_disc = 0.5;
  const fault::CancelToken token = fault::CancelToken::source();
  cfg.cancel = token;
  token.cancel();

  layout::Layout board = storm.scenario.layout;
  const layout::MatchGroup& group = board.groups().at(0);
  ASSERT_FALSE(group.members.empty());
  const layout::GroupMember& member = group.members.front();
  const layout::RoutableArea* area = board.routable_area(member.id);
  ASSERT_NE(area, nullptr);
  if (member.kind != layout::MemberKind::SingleEnded) {
    GTEST_SKIP() << "first member is a pair; extender loop covered via Router";
  }
  layout::Trace trace = board.trace(member.id);
  core::TraceExtender ext(storm.scenario.rules, *area);
  EXPECT_THROW((void)ext.extend(trace, trace.length() * 2.0, cfg),
               fault::RouteCancelled);
}

}  // namespace
}  // namespace lmr::pipeline
