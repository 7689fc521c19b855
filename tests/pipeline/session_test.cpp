/// Session / incremental-reroute oracle tests.
///
/// The contract under test: a `pipeline::Session` driven through an edit
/// script must end bit-identical — member geometry and violation sets — to
/// generating the edited board from scratch and routing it fresh, at every
/// thread count; and the reroute must actually prune
/// work (strictly fewer groups re-run than the board holds) on the
/// multi-group storms. Plus the session-level mutation invariants: edits
/// cannot interleave with a route in flight, and routing never bumps the
/// board version.

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../layout/clearance_oracle.hpp"
#include "fault/fault_plan.hpp"
#include "layout/board_edit.hpp"
#include "layout/obstacle_index.hpp"
#include "pipeline/session.hpp"
#include "scenario/edit_storm.hpp"

namespace lmr::pipeline {
namespace {

/// The bench suite's router configuration (Suite::router_options_for), so
/// the oracle runs the exact flow the recorded storms were validated under.
RouterOptions storm_options(const scenario::Scenario& sc, std::size_t threads) {
  RouterOptions o;
  o.extender.l_disc = 0.5;
  o.extender.max_width_steps = 24;
  o.threads = threads;
  if (sc.spec.extender_tolerance > 0.0) o.extender.tolerance = sc.spec.extender_tolerance;
  if (sc.pair_rule_set.size() > 1) o.pair_rule_set = sc.pair_rule_set;
  return o;
}

TEST(Session, ApplyBeforeRouteThrows) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  Session session(storm.scenario.rules, storm_options(storm.scenario, 1),
                  storm.scenario.layout);
  EXPECT_THROW((void)session.apply(storm.edits.front()), std::logic_error);
}

TEST(Session, EditStormsMatchFreshRouteAcrossThreadCounts) {
  std::vector<scenario::EditStormCase> cases = scenario::edit_storm_cases(true);
  // The mega smoke board: 8 groups x 32 nets in a dense via field.
  cases.push_back(
      {"mega_board/smoke", scenario::family("mega_board", true).cases.at(0), 3, 1201});
  for (const scenario::EditStormCase& c : cases) {
    scenario::EditStorm storm = scenario::materialize_storm(c);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(c.name + "/t" + std::to_string(threads));
      const RouterOptions opts = storm_options(storm.scenario, threads);

      Session session(storm.scenario.rules, opts, storm.scenario.layout);
      session.route();
      const std::uint64_t v0 = session.version();  // route() never edits
      EXPECT_EQ(v0, storm.scenario.layout.version());

      std::size_t rerouted_total = 0;
      bool pruned = false;
      bool pruned_members = false;
      for (const layout::BoardEdit& edit : storm.edits) {
        const ApplyOutcome out = session.apply(edit);
        EXPECT_FALSE(out.deltas.empty());
        rerouted_total += out.rerouted_groups.size();
        if (out.rerouted_groups.size() < out.groups_total) pruned = true;
        std::size_t held = 0;
        for (const std::size_t g : out.rerouted_groups) {
          held += session.layout().groups()[g].members.size();
        }
        if (session.route_state().rerouted_members.size() < held) pruned_members = true;
      }
      EXPECT_GT(session.version(), v0);

      // Fresh oracle: same pristine board, same script, routed from zero.
      scenario::Scenario fresh = scenario::materialize(c.base);
      for (const layout::BoardEdit& edit : storm.edits) {
        layout::apply_edit(fresh.layout, edit);
      }
      const Router router(fresh.rules, opts);
      const BoardRoute full = router.route_board(fresh.layout);
      std::string why;
      EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                    fresh.layout, full, &why))
          << why;

      // Multi-group storms must prove incrementality, not just equality:
      // at least one edit re-routes strictly fewer groups than exist.
      if (session.layout().groups().size() > 1) {
        EXPECT_TRUE(pruned) << "every edit re-routed all "
                            << session.layout().groups().size() << " groups";
      }
      // ... and members: on the mega board an obstacle edit re-runs only
      // the members near it, not their whole group.
      if (c.base.spec.members_per_group > 8) {
        EXPECT_TRUE(pruned_members) << "every edit re-ran whole groups";
      }
      EXPECT_GT(rerouted_total, 0u);
    }
  }
}

TEST(Session, BoardClearanceMatchesAFreshSessionOnTheEditedBoard) {
  // After every edit the session's sweep, which re-queries only re-routed
  // members and keeps the cached violations between the others, must equal
  // a fresh Session's cold sweep of the same edited board field for field
  // and in order: slot numbering is first-seen member order in both
  // sessions (identical group tables). A second call is served from the
  // cache without changing the answer. Routed boards are clean under the
  // storm's rules, so every storm also runs with the gap inflated by one
  // member band (both sessions under the same rules): neighbouring members
  // then violate, and edits both keep and drop cached violations.
  for (const scenario::EditStormCase& c : scenario::edit_storm_cases(true)) {
    const scenario::EditStorm storm = scenario::materialize_storm(c);
    const scenario::Scenario& sc = storm.scenario;
    drc::DesignRules inflated = sc.rules;
    inflated.gap += sc.spec.band_height *
                    (sc.spec.dra_sections > 1 ? sc.spec.dra_width_factor : 1.0);
    for (const bool inflate : {false, true}) {
      const drc::DesignRules& rules = inflate ? inflated : sc.rules;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(c.name + "/t" + std::to_string(threads) +
                     (inflate ? "/inflated gap" : "/storm rules"));
        const RouterOptions opts = storm_options(sc, threads);
        Session session(rules, opts, sc.layout);
        session.route();
        layout::Layout edited = sc.layout;
        std::size_t violations = 0;
        for (std::size_t e = 0; e < storm.edits.size(); ++e) {
          (void)session.apply(storm.edits[e]);
          layout::apply_edit(edited, storm.edits[e]);
          Session fresh(rules, opts, edited);
          fresh.route();
          const std::vector<layout::Violation> incremental = session.board_clearance();
          ASSERT_TRUE(layout::oracle::same_violations(incremental, fresh.board_clearance()))
              << "edit " << e;
          // The groups' own cross-member passes, recomputed over kept and
          // re-routed members alike, agree with the fresh route too.
          std::string why;
          ASSERT_TRUE(routes_equivalent(session.layout(), session.route_state(), fresh.layout(),
                                        fresh.route_state(), &why))
              << "edit " << e << ": " << why;
          ASSERT_TRUE(layout::oracle::same_violations(session.board_clearance(), incremental))
              << "edit " << e << " (cached)";
          violations += incremental.size();
        }
        if (inflate) {
          EXPECT_GT(violations, 0u);
        }
      }
    }
  }
}

TEST(Reroute, VersionIsMonotoneAcrossRouteAndReroute) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  const RouterOptions opts = storm_options(storm.scenario, 1);
  const Router router(storm.scenario.rules, opts);

  layout::Layout board = storm.scenario.layout;
  const std::uint64_t v0 = board.version();
  BoardRoute route = router.route_board(board);
  EXPECT_EQ(board.version(), v0);  // routing write-backs never version
  EXPECT_EQ(route.version, v0);

  std::uint64_t prev = v0;
  for (const layout::BoardEdit& edit : storm.edits) {
    (void)layout::apply_edit(board, edit);
    EXPECT_GT(board.version(), prev);
    router.reroute(board, route, layout::ObstacleIndex(board.obstacles()));
    EXPECT_EQ(route.version, board.version());
    prev = board.version();
  }
}

/// A single-ended trace from (0, line) to (length, line) in the corridor
/// [-1, 41] x [y - 4.5, y + 4.5] (the small_group shape of router_test).
layout::GroupMember corridor_member(layout::Layout& board, double y, double line,
                                    double length) {
  layout::Trace t;
  t.name = "t" + std::to_string(board.traces().size());
  t.path = geom::Polyline{{{0.0, line}, {length, line}}};
  const layout::TraceId id = board.add_trace(t);
  layout::RoutableArea area;
  area.outline = geom::Polygon::rect({{-1.0, y - 4.5}, {41.0, y + 4.5}});
  board.set_routable_area(id, area);
  return {layout::MemberKind::SingleEnded, id};
}

drc::DesignRules corridor_rules(double gap) {
  drc::DesignRules rules;
  rules.gap = gap;
  rules.obs = 0.5;
  rules.protect = 0.5;
  return rules;
}

TEST(Session, ObstacleRemovalRenumbersKeptMembersObstacleViolations) {
  // Two one-trace groups in private corridors at y = 0 and y = 40. Group
  // 1's trace starts 0.3 from obstacle 1, inside the obstacle clearance,
  // so its net carries an ObstacleClearance violation naming obstacle 1.
  // Removing the far obstacle 0 reaches no member, but obstacle 1 becomes
  // obstacle 0: the kept violation must follow it, as a fresh route of the
  // edited board reports it.
  const drc::DesignRules rules = corridor_rules(1.0);
  layout::Layout board;
  for (const double y : {0.0, 40.0}) {
    layout::MatchGroup g;
    g.name = "g" + std::to_string(static_cast<int>(y));
    g.target_length = 50.0;
    g.members.push_back(corridor_member(board, y, y, 30.0));
    board.add_group(g);
  }
  board.add_obstacle({geom::Polygon::rect({{200.0, 200.0}, {201.0, 201.0}}), "far"});
  board.add_obstacle({geom::Polygon::rect({{-0.6, 39.8}, {-0.3, 40.2}}), "near"});

  RouterOptions opts;
  opts.threads = 1;
  Session session(rules, opts, board);
  session.route();
  const auto obstacle_refs = [](const BoardRoute& r) {
    std::vector<std::size_t> refs;
    for (const layout::Violation& v : r.results.at(1).nets.at(0).violations) {
      if (v.kind == layout::ViolationKind::ObstacleClearance) refs.push_back(v.index_b);
    }
    return refs;
  };
  ASSERT_FALSE(obstacle_refs(session.route_state()).empty());
  EXPECT_EQ(obstacle_refs(session.route_state()).front(), 1u);

  layout::BoardEdit remove;
  remove.kind = layout::BoardEditKind::RemoveObstacle;
  remove.obstacle = 0;
  const ApplyOutcome out = session.apply(remove);
  EXPECT_TRUE(out.rerouted_groups.empty()) << "the far obstacle reaches no member";

  layout::Layout fresh = board;
  layout::apply_edit(fresh, remove);
  const BoardRoute full = Router(rules, opts).route_board(fresh);
  EXPECT_EQ(obstacle_refs(full), std::vector<std::size_t>{0});
  EXPECT_EQ(obstacle_refs(session.route_state()), obstacle_refs(full));
  std::string why;
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(), fresh, full, &why))
      << why;
}

TEST(Session, PartialReroutesMatchAFreshRoute) {
  // One group of three corridor members. Members 0 and 1 run their traces
  // 2.5 apart, across their shared corridor border, so under a 3.0 gap
  // they violate each other. Two edits, each re-running members 0 and 1
  // and keeping member 2, which lies beyond the interaction radius:
  //  - a keepout punched under member 0's trace blocks every meander it
  //    had, so member 0 stops short and the group's Eq. 19 errors and its
  //    cross-member violations change; both must be recomputed over kept
  //    and re-run members alike;
  //  - a sliver in the strip between the two corridors lands in no area,
  //    so only its own obstacle delta can reach member 1, whose trace it
  //    crowds: member 1 gains clearance violations against it, found
  //    through the session's updated obstacle index.
  // After each edit the session equals a fresh route of the edited board.
  const drc::DesignRules rules = corridor_rules(3.0);
  layout::Layout board;
  layout::MatchGroup g;
  g.name = "g";
  g.target_length = 50.0;
  g.members.push_back(corridor_member(board, 0.0, 3.5, 30.0));
  g.members.push_back(corridor_member(board, 10.0, 6.0, 33.0));
  g.members.push_back(corridor_member(board, 20.0, 20.0, 36.0));
  board.add_group(g);

  RouterOptions opts;
  opts.threads = 1;
  Session session(rules, opts, board);
  session.route();
  const RouteResult before = session.route_state().results.at(0);
  ASSERT_FALSE(before.cross_violations.empty());

  layout::BoardEdit keepout;
  keepout.kind = layout::BoardEditKind::AddObstacle;
  keepout.shape = geom::Polygon::rect({{1.0, -4.0}, {29.0, 2.5}});
  keepout.name = "keepout";
  layout::BoardEdit sliver = keepout;
  sliver.shape = geom::Polygon::rect({{10.0, 4.55}, {12.0, 5.7}});
  sliver.name = "sliver";

  layout::Layout edited = board;  // pristine traces, the script so far
  for (const layout::BoardEdit& edit : {keepout, sliver}) {
    SCOPED_TRACE(edit.name);
    (void)session.apply(edit);
    layout::apply_edit(edited, edit);
    layout::Layout fresh = edited;
    const BoardRoute full = Router(rules, opts).route_board(fresh);
    std::string why;
    EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(), fresh, full, &why))
        << why;
    EXPECT_EQ(session.route_state().rerouted_members.size(), 2u) << "member 2 is kept";
  }
  const RouteResult& now = session.route_state().results.at(0);
  EXPECT_FALSE(now.group.members.at(0).reached);
  EXPECT_NE(now.group.max_error_pct, before.group.max_error_pct);
  EXPECT_NE(now.cross_violations.size(), before.cross_violations.size());
  EXPECT_FALSE(now.nets.at(1).violations.empty());
}

TEST(Session, ApplyOutcomeCorrelatesEditsWithJournalVersions) {
  // Satellite contract: the outcome alone — deltas + edit_offsets +
  // version_before/after — lets a caller attribute every journal version to
  // the edit that produced it, without re-reading deltas_since.
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  Session session(storm.scenario.rules, storm_options(storm.scenario, 1),
                  storm.scenario.layout);
  session.route();

  // Per-edit apply: offsets are {0, deltas.size()} and the versions bracket
  // exactly the deltas returned.
  const std::uint64_t v0 = session.version();
  const ApplyOutcome one = session.apply(storm.edits.at(0));
  ASSERT_EQ(one.edit_offsets.size(), 2u);
  EXPECT_EQ(one.edit_offsets.front(), 0u);
  EXPECT_EQ(one.edit_offsets.back(), one.deltas.size());
  EXPECT_EQ(one.version_before, v0);
  EXPECT_EQ(one.version_after, session.version());
  EXPECT_EQ(one.version_after - one.version_before, one.deltas.size());
  for (std::size_t k = 0; k < one.deltas.size(); ++k) {
    EXPECT_EQ(one.deltas[k].version, one.version_before + k + 1);
  }

  // Batch apply: one offset bracket per edit, contiguous and exhaustive.
  const std::span<const layout::BoardEdit> rest(storm.edits.data() + 1,
                                                storm.edits.size() - 1);
  const ApplyOutcome batch = session.apply(rest);
  ASSERT_EQ(batch.edit_offsets.size(), rest.size() + 1);
  EXPECT_EQ(batch.edit_offsets.front(), 0u);
  EXPECT_EQ(batch.edit_offsets.back(), batch.deltas.size());
  for (std::size_t k = 0; k + 1 < batch.edit_offsets.size(); ++k) {
    EXPECT_LE(batch.edit_offsets[k], batch.edit_offsets[k + 1]);
    // Every edit lowers to at least one delta on these storms.
    EXPECT_LT(batch.edit_offsets[k], batch.edit_offsets[k + 1]);
  }
  EXPECT_EQ(batch.version_before, one.version_after);
  EXPECT_EQ(batch.version_after, session.version());
  for (std::size_t k = 0; k < batch.deltas.size(); ++k) {
    EXPECT_EQ(batch.deltas[k].version, batch.version_before + k + 1);
  }
}

TEST(Session, ReleaseThenThawContinuesIdentically) {
  // Eviction round trip: a session dismantled to {layout, route} and
  // rebuilt from the snapshot must continue an edit script exactly like the
  // session that never released — the service's thaw-on-next-edit contract.
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  const RouterOptions opts = storm_options(storm.scenario, 1);
  ASSERT_GE(storm.edits.size(), 2u);

  Session witness(storm.scenario.rules, opts, storm.scenario.layout);
  witness.route();

  Session before(storm.scenario.rules, opts, storm.scenario.layout);
  before.route();
  (void)witness.apply(storm.edits.at(0));
  (void)before.apply(storm.edits.at(0));

  auto [board, route] = before.release();
  Session after(storm.scenario.rules, opts, std::move(board), std::move(route));
  for (std::size_t k = 1; k < storm.edits.size(); ++k) {
    (void)witness.apply(storm.edits.at(k));
    (void)after.apply(storm.edits.at(k));
  }
  std::string why;
  EXPECT_TRUE(routes_equivalent(after.layout(), after.route_state(),
                                witness.layout(), witness.route_state(), &why))
      << why;
  // The rebuilt clearance index answers like the uninterrupted one.
  EXPECT_EQ(after.board_clearance().size(), witness.board_clearance().size());
}

TEST(Session, ReleaseAndThawErrorPaths) {
  scenario::EditStorm storm =
      scenario::materialize_storm(scenario::edit_storm_cases(true).at(0));
  const RouterOptions opts = storm_options(storm.scenario, 1);

  // release() before route(): no whole-board route to snapshot.
  Session unrouted(storm.scenario.rules, opts, storm.scenario.layout);
  EXPECT_THROW((void)unrouted.release(), std::logic_error);

  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();

  // release() while a route is (apparently) in flight: the freeze makes
  // try_freeze fail, so dismantling is refused.
  {
    // White-box: grab a freeze on the session's own (non-const-owned) layout
    // to simulate an in-flight route. freeze_for_routing only bumps the
    // atomic freeze counter — no journaled state is touched, so the
    // recorded-mutator discipline is preserved.
    const layout::Layout::RoutingFreeze freeze =
        // lmr-lint: allow(cast, layout-state)
        const_cast<layout::Layout&>(session.layout()).freeze_for_routing();
    EXPECT_THROW((void)session.release(), std::logic_error);
  }

  // Thaw with a mismatched snapshot version is rejected up front.
  auto [board, route] = session.release();
  layout::Layout edited = board;
  (void)layout::apply_edit(edited, storm.edits.at(0));
  EXPECT_THROW(Session(storm.scenario.rules, opts, edited, route),
               std::invalid_argument);
  Session thawed(storm.scenario.rules, opts, std::move(board), std::move(route));
  EXPECT_NO_THROW((void)thawed.apply(storm.edits.at(0)));
}

TEST(Session, BatchApplyReroutesThePrefixBeforeRethrowing) {
  // Exception safety: when edit k of a batch fails to lower, the session
  // must reroute over edits [0, k) so layout and route stay in sync — and
  // then keep working normally.
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  const RouterOptions opts = storm_options(storm.scenario, 1);
  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();

  layout::BoardEdit bogus;
  bogus.kind = layout::BoardEditKind::SetGroupTarget;
  bogus.group = session.layout().groups().size() + 7;  // no such group
  bogus.target = 100.0;

  std::vector<layout::BoardEdit> batch = {storm.edits.at(0), bogus,
                                          storm.edits.at(1)};
  EXPECT_THROW((void)session.apply(std::span<const layout::BoardEdit>(batch)),
               std::out_of_range);

  // The good prefix landed: same end state as an oracle session that
  // applied edit 0, then the remaining script on both.
  Session oracle(storm.scenario.rules, opts, storm.scenario.layout);
  oracle.route();
  (void)oracle.apply(storm.edits.at(0));
  for (std::size_t k = 1; k < storm.edits.size(); ++k) {
    (void)session.apply(storm.edits.at(k));
    (void)oracle.apply(storm.edits.at(k));
  }
  std::string why;
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                oracle.layout(), oracle.route_state(), &why))
      << why;
}

TEST(Reroute, BoardEditsCannotInterleaveWithARouteInFlight) {
  // Two halves. (1) Deterministic: while any routing freeze is alive —
  // exactly the state Router::run holds for its whole body — every recorded
  // mutator throws before touching the board, so an edit stream can never
  // corrupt a route in flight. (2) Threaded: a real route_all observably
  // raises the freeze from another thread (atomic read only: attempting the
  // mutation from here would race with the route's own reads between group
  // chains) and releases it by the time it returns, after which edits work.
  scenario::Scenario sc =
      scenario::materialize(scenario::family("multi_group", false).cases.at(0));
  RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  opts.threads = 2;
  const Router router(sc.rules, opts);

  {
    const layout::Layout::RoutingFreeze freeze = sc.layout.freeze_for_routing();
    const std::uint64_t v = sc.layout.version();
    EXPECT_THROW(sc.layout.add_obstacle(
                     {geom::Polygon::rect({{1.0, 1.0}, {1.5, 1.5}}), "mid-route"}),
                 std::logic_error);
    EXPECT_EQ(sc.layout.version(), v);  // the rejected edit left no journal entry
  }

  std::atomic<bool> done{false};
  std::atomic<bool> observed_frozen{false};
  std::thread worker([&] {
    (void)router.route_all(sc.layout);
    done.store(true);
  });
  while (!done.load()) {
    if (sc.layout.frozen()) observed_frozen.store(true);
  }
  worker.join();
  EXPECT_TRUE(observed_frozen.load());
  EXPECT_FALSE(sc.layout.frozen());
  const std::size_t obstacles = sc.layout.obstacle_count();
  (void)sc.layout.add_obstacle(
      {geom::Polygon::rect({{1.0, 1.0}, {1.5, 1.5}}), "post-route"});
  EXPECT_EQ(sc.layout.obstacle_count(), obstacles + 1);
}

TEST(Session, MidBatchApplyFaultKeepsThePrefixContract) {
  // Lowering of the second edit in a batch of three dies (injected
  // session:apply fault). The prefix contract: exactly one edit lowered
  // AND committed (the session reroutes the prefix before rethrowing),
  // last_partial_outcome's offsets/version bracket match that prefix, the
  // session stays in sync, and its state equals a fresh route of the
  // one-edit board. The batch's survivors then replay to the full state.
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  ASSERT_GE(storm.edits.size(), 3u);
  RouterOptions opts = storm_options(storm.scenario, 1);
  opts.fault_scope = "sess";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  opts.fault_plan->add({fault::apply_site("sess"), /*nth=*/2, /*count=*/1});

  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();
  const std::uint64_t v0 = session.version();

  const std::span<const layout::BoardEdit> batch(storm.edits.data(), 3);
  EXPECT_THROW((void)session.apply(batch), fault::InjectedFault);

  const std::optional<ApplyOutcome>& part = session.last_partial_outcome();
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->edit_offsets.size(), 2u);  // one edit lowered
  EXPECT_EQ(part->version_before, v0);
  EXPECT_EQ(part->version_after, session.version());
  EXPECT_EQ(part->version_after - part->version_before, part->deltas.size());
  EXPECT_TRUE(session.in_sync()) << "prefix reroute must have committed";

  scenario::Scenario prefix = scenario::materialize(c.base);
  layout::apply_edit(prefix.layout, storm.edits.at(0));
  const Router router(prefix.rules, storm_options(prefix, 1));
  const BoardRoute prefix_route = router.route_board(prefix.layout);
  std::string why;
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                prefix.layout, prefix_route, &why))
      << why;

  // Window spent: replaying the rest converges to the full edited board,
  // and the success clears the partial record.
  (void)session.apply(std::span<const layout::BoardEdit>(storm.edits.data() + 1, 2));
  EXPECT_FALSE(session.last_partial_outcome().has_value());
  scenario::Scenario full = scenario::materialize(c.base);
  for (std::size_t k = 0; k < 3; ++k) layout::apply_edit(full.layout, storm.edits.at(k));
  const BoardRoute full_route = router.route_board(full.layout);
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                full.layout, full_route, &why))
      << why;
}

TEST(Session, RerouteFaultLeavesSessionOutOfSyncAndResyncHeals) {
  // The other failure phase: the edit lowers fine but the *reroute* dies
  // (first extend site visited after the initial route). The deltas are
  // journaled, the Router's rollback restored the pre-apply geometry (not
  // the pristine seeds the reroute restarted from), so the session reports
  // out-of-sync — and resync() must converge it to the fresh oracle without
  // re-lowering anything.
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  RouterOptions opts = storm_options(storm.scenario, 1);

  // Count the members the initial route extends: the fault window starts
  // right after them, so the reroute's first member extension dies.
  std::size_t members = 0;
  for (const layout::MatchGroup& g : storm.scenario.layout.groups()) {
    members += g.members.size();
  }
  opts.fault_scope = "sess";
  opts.fault_plan = std::make_shared<fault::FaultPlan>();
  opts.fault_plan->add({"extend:sess/*", /*nth=*/members + 1, /*count=*/1});

  Session session(storm.scenario.rules, opts, storm.scenario.layout);
  session.route();
  const std::uint64_t v0 = session.version();
  const layout::Layout routed = session.layout();

  EXPECT_THROW((void)session.apply(storm.edits.at(0)), fault::InjectedFault);
  const std::optional<ApplyOutcome>& part = session.last_partial_outcome();
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->edit_offsets.size(), 2u);  // the edit *did* lower
  EXPECT_FALSE(session.in_sync()) << "reroute failed: route must lag the journal";
  EXPECT_GT(session.version(), v0);
  for (const layout::MatchGroup& g : routed.groups()) {
    for (const layout::GroupMember& m : g.members) {
      if (m.kind == layout::MemberKind::SingleEnded) {
        EXPECT_EQ(session.layout().trace(m.id).path.points(),
                  routed.trace(m.id).path.points())
            << "trace " << m.id;
      } else {
        EXPECT_EQ(session.layout().pair(m.id).positive.path.points(),
                  routed.pair(m.id).positive.path.points())
            << "pair " << m.id;
        EXPECT_EQ(session.layout().pair(m.id).negative.path.points(),
                  routed.pair(m.id).negative.path.points())
            << "pair " << m.id;
      }
    }
  }

  const ApplyOutcome healed = session.resync();
  EXPECT_TRUE(session.in_sync());
  EXPECT_FALSE(session.last_partial_outcome().has_value());
  EXPECT_EQ(healed.version_after, session.version());
  EXPECT_FALSE(healed.rerouted_groups.empty());

  scenario::Scenario fresh = scenario::materialize(c.base);
  layout::apply_edit(fresh.layout, storm.edits.at(0));
  const Router router(fresh.rules, storm_options(fresh, 1));
  const BoardRoute full = router.route_board(fresh.layout);
  std::string why;
  EXPECT_TRUE(routes_equivalent(session.layout(), session.route_state(),
                                fresh.layout, full, &why))
      << why;
}

}  // namespace
}  // namespace lmr::pipeline
