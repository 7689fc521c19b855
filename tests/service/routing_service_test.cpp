/// RoutingService tests: the multi-board serving tier over Sessions.
///
/// The hard contract mirrors the session oracle, lifted to N boards: after
/// replaying a service_storm stream — queued edits, coalesced batches,
/// mid-stream eviction and thaw included — every board's end state must be
/// routes_equivalent to a fresh route_board of its edited board at 1 and 4
/// threads. Around it, the scheduling semantics the bench counters report:
/// edits queue instead of hitting the RoutingFreeze throw, a serial service
/// coalesces a burst into one batch, eviction refuses busy/queued boards,
/// and a failed edit surfaces at drain() without wedging the board. The
/// robustness tier rides the same oracle: injected faults retried to the
/// same end state, quarantine reverting to the last-good snapshot,
/// resurrect + replay converging, and queue backpressure shedding typed
/// rejections.

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/cancel.hpp"
#include "fault/fault_plan.hpp"
#include "pipeline/session.hpp"
#include "scenario/edit_storm.hpp"
#include "scenario/service_storm.hpp"
#include "service/routing_service.hpp"

namespace lmr::service {
namespace {

/// The bench suite's router configuration (Suite::scenario_router_options):
/// the storms were generated and validated under exactly this flow.
pipeline::RouterOptions storm_options(const scenario::Scenario& sc) {
  pipeline::RouterOptions o;
  o.extender.l_disc = 0.5;
  o.extender.max_width_steps = 24;
  if (sc.spec.extender_tolerance > 0.0) o.extender.tolerance = sc.spec.extender_tolerance;
  if (sc.pair_rule_set.size() > 1) o.pair_rule_set = sc.pair_rule_set;
  return o;
}

/// Full-speed replay honouring the stream's sync/evict markers — the same
/// loop Suite::run_service and the CI gate run.
void replay(RoutingService& svc, const scenario::ServiceStorm& storm) {
  for (const scenario::ServiceStormEvent& ev : storm.stream) {
    svc.submit(storm.boards[ev.board].spec.name, ev.edit);
    if (ev.sync_after) svc.drain();
    if (ev.evict_after) {
      svc.drain();
      svc.evict_idle();
    }
  }
  svc.drain();
}

TEST(RoutingService, ServiceStormMatchesFreshRoutesAcrossThreadCounts) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  ASSERT_GE(storm.boards.size(), 8u);

  // Fresh oracles: regenerate each board, replay its script, route from
  // scratch.
  std::vector<scenario::Scenario> fresh;
  std::vector<pipeline::BoardRoute> fresh_routes;
  for (const scenario::EditStorm& bs : storm.boards) {
    scenario::Scenario f = scenario::materialize(bs.spec.base);
    for (const layout::BoardEdit& e : bs.edits) layout::apply_edit(f.layout, e);
    const pipeline::Router router(f.rules, storm_options(f));
    fresh_routes.push_back(router.route_board(f.layout));
    fresh.push_back(std::move(f));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("t" + std::to_string(threads));
    ServiceOptions sopts;
    sopts.threads = threads;
    RoutingService svc(sopts);
    for (const scenario::EditStorm& bs : storm.boards) {
      svc.add_board(bs.spec.name, bs.scenario.rules,
                    storm_options(bs.scenario), bs.scenario.layout);
    }
    svc.drain();
    replay(svc, storm);

    ServiceTotals totals = svc.totals();
    EXPECT_EQ(totals.submitted, storm.stream.size());
    EXPECT_EQ(totals.applied, storm.stream.size());
    // The stream's evict marker fired mid-replay and later edits thawed.
    EXPECT_GT(totals.evictions, 0u);
    EXPECT_GT(totals.thaws, 0u);
    EXPECT_LE(totals.thaws, totals.evictions);
    if (threads == 1) {
      // Serial replay queues whole bursts between drains: coalescing is
      // deterministic, not a scheduling accident.
      EXPECT_GT(totals.coalesced_batches, 0u);
      EXPECT_GT(totals.max_batch, 1u);
    }

    for (std::size_t b = 0; b < storm.boards.size(); ++b) {
      const std::string& id = storm.boards[b].spec.name;
      std::string why;
      EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id),
                                              svc.board_route(id), fresh[b].layout,
                                              fresh_routes[b], &why))
          << id << ": " << why;
    }
  }
}

TEST(RoutingService, SerialServiceCoalescesABurstIntoOneBatch) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);
  ASSERT_GE(bs.edits.size(), 3u);

  ServiceOptions sopts;
  sopts.threads = 1;  // 0-worker pool: pumps only run inside drain()
  RoutingService svc(sopts);
  const std::string id = bs.spec.name;
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  svc.drain();

  // A burst of 3 submits with no drain between: all of them queue (the
  // dispatch cannot run yet), none throws despite the routed board.
  EXPECT_EQ(svc.submit(id, bs.edits.at(0)).ordinal, 1u);
  EXPECT_EQ(svc.submit(id, bs.edits.at(1)).ordinal, 2u);
  EXPECT_EQ(svc.submit(id, bs.edits.at(2)).ordinal, 3u);
  EXPECT_EQ(svc.queue_depth(id), 3u);
  svc.drain();
  EXPECT_EQ(svc.queue_depth(id), 0u);

  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.applied, 3u);
  EXPECT_EQ(st.batches, 1u);  // one dispatch, one reroute, one sweep
  EXPECT_EQ(st.coalesced_batches, 1u);
  EXPECT_EQ(st.max_batch, 3u);
  EXPECT_EQ(st.max_queue_depth, 3u);
  EXPECT_EQ(st.reroutes, 1u);

  // The coalesced end state equals applying the same prefix to a fresh
  // session as one batch.
  scenario::Scenario f = scenario::materialize(bs.spec.base);
  for (std::size_t k = 0; k < 3; ++k) layout::apply_edit(f.layout, bs.edits.at(k));
  const pipeline::Router router(f.rules, storm_options(f));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          f.layout, full, &why))
      << why;
}

TEST(RoutingService, MaxBatchCapsCoalescing) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);
  ASSERT_GE(bs.edits.size(), 3u);

  ServiceOptions sopts;
  sopts.threads = 1;
  sopts.max_batch = 2;
  RoutingService svc(sopts);
  const std::string id = bs.spec.name;
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  svc.drain();
  for (std::size_t k = 0; k < 3; ++k) svc.submit(id, bs.edits.at(k));
  svc.drain();

  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.applied, 3u);
  EXPECT_EQ(st.batches, 2u);  // 2 + 1, not 3 in one
  EXPECT_EQ(st.max_batch, 2u);
}

TEST(RoutingService, EvictAndThawRoundTrip) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);

  ServiceOptions sopts;
  sopts.threads = 1;
  RoutingService svc(sopts);
  const std::string id = bs.spec.name;
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);

  // Not routed yet (initial route still queued): eviction refuses.
  EXPECT_FALSE(svc.evict(id));
  svc.drain();

  // Queued edit: eviction refuses too — the snapshot would go stale.
  svc.submit(id, bs.edits.at(0));
  EXPECT_FALSE(svc.evict(id));
  svc.drain();

  // Idle and routed: evicts to the snapshot; state stays readable; a
  // second evict is a no-op.
  EXPECT_TRUE(svc.evict(id));
  EXPECT_TRUE(svc.is_evicted(id));
  EXPECT_FALSE(svc.evict(id));
  EXPECT_EQ(svc.board_route(id).version, svc.board_layout(id).version());

  // Thaw-on-next-edit: the submit goes through transparently.
  svc.submit(id, bs.edits.at(1));
  svc.drain();
  EXPECT_FALSE(svc.is_evicted(id));
  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.thaws, 1u);
  EXPECT_EQ(st.applied, 2u);

  // And the thawed board still matches a fresh route of the edited board.
  scenario::Scenario f = scenario::materialize(bs.spec.base);
  layout::apply_edit(f.layout, bs.edits.at(0));
  layout::apply_edit(f.layout, bs.edits.at(1));
  const pipeline::Router router(f.rules, storm_options(f));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          f.layout, full, &why))
      << why;
}

TEST(RoutingService, FailedEditSurfacesAtDrainWithoutWedgingTheBoard) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);

  ServiceOptions sopts;
  sopts.threads = 1;
  RoutingService svc(sopts);
  const std::string id = bs.spec.name;
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  svc.drain();

  layout::BoardEdit bogus;
  bogus.kind = layout::BoardEditKind::SetGroupTarget;
  bogus.group = svc.board_layout(id).groups().size() + 5;
  bogus.target = 123.0;
  svc.submit(id, bogus);
  try {
    svc.drain();
    FAIL() << "drain() should have thrown ServiceError";
  } catch (const ServiceError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures().front().board, id);
  }

  // The error was consumed by that drain; the bad edit was dropped (not
  // retried — a logic_error can never succeed), the board keeps serving,
  // and the end state still matches a fresh route of the *good* edits.
  EXPECT_NO_THROW(svc.drain());
  EXPECT_FALSE(svc.is_quarantined(id));
  svc.submit(id, bs.edits.at(0));
  svc.drain();
  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.applied, 1u);
  EXPECT_EQ(st.dropped_edits, 1u);
  EXPECT_EQ(st.retries, 0u);

  scenario::Scenario f = scenario::materialize(bs.spec.base);
  layout::apply_edit(f.layout, bs.edits.at(0));
  const pipeline::Router router(f.rules, storm_options(f));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          f.layout, full, &why))
      << why;
}

TEST(RoutingService, DuplicateAndUnknownBoardIdsThrow) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);

  ServiceOptions sopts;
  sopts.threads = 1;
  RoutingService svc(sopts);
  svc.add_board(bs.spec.name, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  EXPECT_THROW(svc.add_board(bs.spec.name, bs.scenario.rules,
                             storm_options(bs.scenario),
                             bs.scenario.layout),
               std::invalid_argument);
  EXPECT_THROW(svc.submit("no-such-board", bs.edits.at(0)), std::out_of_range);
  EXPECT_THROW((void)svc.stats("no-such-board"), std::out_of_range);
  svc.drain();
}

TEST(RoutingService, SharedStreamStressWithConcurrentSubmitters) {
  // Thread-safety smoke for TSAN: several boards replayed with submits
  // racing the dispatches on a multi-worker pool, then the oracle on one
  // board (the full oracle matrix lives in the storm test above).
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);

  ServiceOptions sopts;
  sopts.threads = 4;
  RoutingService svc(sopts);
  for (const scenario::EditStorm& bs : storm.boards) {
    svc.add_board(bs.spec.name, bs.scenario.rules,
                  storm_options(bs.scenario), bs.scenario.layout);
  }
  // No initial drain: submits race the initial routes — every edit must
  // queue behind its board's route instead of throwing.
  for (const scenario::ServiceStormEvent& ev : storm.stream) {
    svc.submit(storm.boards[ev.board].spec.name, ev.edit);
  }
  svc.drain();
  const ServiceTotals totals = svc.totals();
  EXPECT_EQ(totals.applied, storm.stream.size());

  const scenario::EditStorm& bs = storm.boards.at(0);
  scenario::Scenario f = scenario::materialize(bs.spec.base);
  for (const layout::BoardEdit& e : bs.edits) layout::apply_edit(f.layout, e);
  const pipeline::Router router(f.rules, storm_options(f));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(bs.spec.name),
                                          svc.board_route(bs.spec.name), f.layout,
                                          full, &why))
      << why;
}

TEST(RoutingService, RetryRecoversFromInjectedFault) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);
  const std::string id = bs.spec.name;

  // First edit-lowering attempt on this board dies; the retry's occurrence
  // falls outside the window and succeeds.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->add({fault::apply_site(id), /*nth=*/1, /*count=*/1});

  ServiceOptions sopts;
  sopts.threads = 1;
  sopts.fault_plan = plan;
  RoutingService svc(sopts);
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  svc.drain();
  svc.submit(id, bs.edits.at(0));
  EXPECT_NO_THROW(svc.drain());  // transient, recovered: nothing surfaces

  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.applied, 1u);
  EXPECT_EQ(st.retries, 1u);
  EXPECT_EQ(st.injected_faults, 1u);
  EXPECT_EQ(st.quarantines, 0u);
  EXPECT_EQ(st.dropped_edits, 0u);
  EXPECT_GT(st.backoff_virtual_s, 0.0);
  EXPECT_FALSE(svc.is_quarantined(id));

  scenario::Scenario f = scenario::materialize(bs.spec.base);
  layout::apply_edit(f.layout, bs.edits.at(0));
  const pipeline::Router router(f.rules, storm_options(f));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          f.layout, full, &why))
      << why;
}

TEST(RoutingService, QuarantineRevertsToLastGoodAndResurrectReplays) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);
  ASSERT_GE(bs.edits.size(), 2u);
  const std::string id = bs.spec.name;

  // Lowering of the *second* accepted edit fails on every rung of the
  // ladder (count == max_attempts), so the board quarantines holding the
  // checkpoint from the first edit's successful dispatch.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->add({fault::apply_site(id), /*nth=*/2, /*count=*/3});

  ServiceOptions sopts;
  sopts.threads = 1;
  sopts.max_attempts = 3;
  sopts.fault_plan = plan;
  RoutingService svc(sopts);
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  svc.drain();
  svc.submit(id, bs.edits.at(0));
  svc.drain();
  svc.submit(id, bs.edits.at(1));
  EXPECT_THROW(svc.drain(), ServiceError);

  EXPECT_TRUE(svc.is_quarantined(id));
  EXPECT_TRUE(svc.is_routed(id));
  {
    const BoardStats st = svc.stats(id);
    EXPECT_EQ(st.applied, 1u);
    EXPECT_EQ(st.quarantines, 1u);
    EXPECT_EQ(st.retries, 2u);
    EXPECT_EQ(st.degraded_retries, 1u);
    EXPECT_EQ(st.injected_faults, 3u);
    EXPECT_EQ(st.dropped_edits, 1u);  // the in-flight victim
  }

  // Quarantined serving state == the last-good snapshot: exactly the board
  // after edit 0 only. Submits shed with a typed status.
  scenario::Scenario prefix = scenario::materialize(bs.spec.base);
  layout::apply_edit(prefix.layout, bs.edits.at(0));
  const pipeline::Router router(prefix.rules, storm_options(prefix));
  const pipeline::BoardRoute prefix_route = router.route_board(prefix.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          prefix.layout, prefix_route, &why))
      << why;
  const SubmitResult shed = svc.submit(id, bs.edits.at(1));
  EXPECT_EQ(shed.status, SubmitStatus::Quarantined);
  EXPECT_FALSE(shed.accepted());
  EXPECT_EQ(svc.stats(id).shed, 1u);

  // Resurrect and replay the lost edit: the rule's window is exhausted, so
  // the board converges to the full end state.
  EXPECT_TRUE(svc.resurrect(id));
  EXPECT_FALSE(svc.resurrect(id));  // only once
  EXPECT_FALSE(svc.is_quarantined(id));
  EXPECT_TRUE(svc.submit(id, bs.edits.at(1)).accepted());
  EXPECT_NO_THROW(svc.drain());
  EXPECT_EQ(svc.stats(id).resurrections, 1u);
  EXPECT_EQ(svc.stats(id).thaws, 1u);  // thawed from the last-good snapshot

  scenario::Scenario f = scenario::materialize(bs.spec.base);
  layout::apply_edit(f.layout, bs.edits.at(0));
  layout::apply_edit(f.layout, bs.edits.at(1));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          f.layout, full, &why))
      << why;
}

// Regression: a lowering failure commits the batch prefix before it throws
// (Session::apply reroutes the prefix), and the service counts that prefix
// as applied. The checkpoint must follow, or a later quarantine reverts the
// prefix and serves a board behind its own `applied` count.
TEST(RoutingService, QuarantineServesTheBatchPrefixALoweringFailureCommitted) {
  const scenario::EditStormCase c = scenario::edit_storm_cases(true).at(0);
  scenario::EditStorm storm = scenario::materialize_storm(c);
  ASSERT_GE(storm.edits.size(), 2u);
  const std::string id = c.name;

  // Edit 1's lowering fails on every rung of the ladder.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->add({fault::apply_site(id), /*nth=*/2, /*count=*/3});

  ServiceOptions sopts;
  sopts.threads = 1;
  sopts.max_attempts = 3;
  sopts.fault_plan = plan;
  RoutingService svc(sopts);
  svc.add_board(id, storm.scenario.rules, storm_options(storm.scenario),
                storm.scenario.layout);
  svc.drain();
  // Both queue before the serial service dispatches: one coalesced batch.
  svc.submit(id, storm.edits.at(0));
  svc.submit(id, storm.edits.at(1));
  EXPECT_THROW(svc.drain(), ServiceError);

  EXPECT_TRUE(svc.is_quarantined(id));
  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.applied, 1u);
  EXPECT_EQ(st.dropped_edits, 1u);

  scenario::Scenario prefix = scenario::materialize(c.base);
  layout::apply_edit(prefix.layout, storm.edits.at(0));
  const pipeline::Router router(prefix.rules, storm_options(prefix));
  const pipeline::BoardRoute prefix_route = router.route_board(prefix.layout);
  EXPECT_EQ(svc.board_layout(id).version(), prefix.layout.version());
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          prefix.layout, prefix_route, &why))
      << why;
}

// Regression: a resurrected board that fails straight through the ladder
// again — zero successful dispatches between the two quarantines — must
// still hold its last-good checkpoint. The thaw replenishes it; before
// that, the second quarantine moved an already-moved-from last_good and
// the next state read dereferenced an empty optional.
TEST(RoutingService, RequarantineAfterResurrectKeepsLastGoodSnapshot) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);
  ASSERT_GE(bs.edits.size(), 2u);
  const std::string id = bs.spec.name;

  // Lowering of the second accepted edit fails on every rung of the ladder
  // twice over (count == 2 * max_attempts): quarantine, resurrect, replay,
  // quarantine again without a single success in between.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->add({fault::apply_site(id), /*nth=*/2, /*count=*/6});

  ServiceOptions sopts;
  sopts.threads = 1;
  sopts.max_attempts = 3;
  sopts.fault_plan = plan;
  RoutingService svc(sopts);
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  svc.drain();
  svc.submit(id, bs.edits.at(0));
  svc.drain();  // success: the last-good checkpoint is the board after edit 0

  svc.submit(id, bs.edits.at(1));
  EXPECT_THROW(svc.drain(), ServiceError);  // quarantine #1
  ASSERT_TRUE(svc.resurrect(id));
  EXPECT_TRUE(svc.submit(id, bs.edits.at(1)).accepted());
  EXPECT_THROW(svc.drain(), ServiceError);  // quarantine #2

  EXPECT_TRUE(svc.is_quarantined(id));
  {
    const BoardStats st = svc.stats(id);
    EXPECT_EQ(st.quarantines, 2u);
    EXPECT_EQ(st.thaws, 1u);
    EXPECT_EQ(st.injected_faults, 6u);
    EXPECT_EQ(st.dropped_edits, 2u);
    EXPECT_EQ(st.applied, 1u);
  }

  // The serving state is still the after-edit-0 checkpoint.
  scenario::Scenario prefix = scenario::materialize(bs.spec.base);
  layout::apply_edit(prefix.layout, bs.edits.at(0));
  const pipeline::Router router(prefix.rules, storm_options(prefix));
  const pipeline::BoardRoute prefix_route = router.route_board(prefix.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          prefix.layout, prefix_route, &why))
      << why;

  // The rule's window is spent: the second resurrect's replay converges.
  EXPECT_TRUE(svc.resurrect(id));
  EXPECT_TRUE(svc.submit(id, bs.edits.at(1)).accepted());
  EXPECT_NO_THROW(svc.drain());
  EXPECT_EQ(svc.stats(id).resurrections, 2u);
  EXPECT_EQ(svc.stats(id).thaws, 2u);

  scenario::Scenario f = scenario::materialize(bs.spec.base);
  layout::apply_edit(f.layout, bs.edits.at(0));
  layout::apply_edit(f.layout, bs.edits.at(1));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          f.layout, full, &why))
      << why;
}

TEST(RoutingService, InitialRouteFaultQuarantinesAndResurrectRecovers) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);
  const std::string id = bs.spec.name;

  // Every rung of the initial route dies on the first member's extension.
  auto plan = std::make_shared<fault::FaultPlan>();
  plan->add({fault::extend_site(id, 0, 0), /*nth=*/1, /*count=*/3});

  ServiceOptions sopts;
  sopts.threads = 1;
  sopts.max_attempts = 3;
  sopts.fault_plan = plan;
  RoutingService svc(sopts);
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  EXPECT_THROW(svc.drain(), ServiceError);
  EXPECT_TRUE(svc.is_quarantined(id));
  EXPECT_FALSE(svc.is_routed(id));
  EXPECT_EQ(svc.submit(id, bs.edits.at(0)).status, SubmitStatus::Quarantined);

  // Resurrect reschedules the never-completed initial route (the rule's
  // window is spent), then ordinary serving resumes.
  EXPECT_TRUE(svc.resurrect(id));
  EXPECT_NO_THROW(svc.drain());
  EXPECT_TRUE(svc.is_routed(id));
  svc.submit(id, bs.edits.at(0));
  svc.drain();

  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.quarantines, 1u);
  EXPECT_EQ(st.resurrections, 1u);
  EXPECT_EQ(st.injected_faults, 3u);
  EXPECT_EQ(st.applied, 1u);

  scenario::Scenario f = scenario::materialize(bs.spec.base);
  layout::apply_edit(f.layout, bs.edits.at(0));
  const pipeline::Router router(f.rules, storm_options(f));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          f.layout, full, &why))
      << why;
}

TEST(RoutingService, QueueLimitShedsWithTypedStatus) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);
  ASSERT_GE(bs.edits.size(), 3u);
  const std::string id = bs.spec.name;

  ServiceOptions sopts;
  sopts.threads = 1;  // 0-worker pool: nothing dispatches until drain()
  sopts.queue_limit = 2;
  RoutingService svc(sopts);
  svc.add_board(id, bs.scenario.rules,
                storm_options(bs.scenario), bs.scenario.layout);
  svc.drain();

  EXPECT_TRUE(svc.submit(id, bs.edits.at(0)).accepted());
  EXPECT_TRUE(svc.submit(id, bs.edits.at(1)).accepted());
  const SubmitResult full_result = svc.submit(id, bs.edits.at(2));
  EXPECT_EQ(full_result.status, SubmitStatus::QueueFull);
  EXPECT_EQ(full_result.ordinal, 0u);
  EXPECT_EQ(svc.queue_depth(id), 2u);
  svc.drain();

  // Shed edits are not errors: drain stays clean and the retried submit
  // lands once the queue has room again.
  EXPECT_TRUE(svc.submit(id, bs.edits.at(2)).accepted());
  svc.drain();
  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.applied, 3u);
  EXPECT_EQ(st.shed, 1u);

  scenario::Scenario f = scenario::materialize(bs.spec.base);
  for (std::size_t k = 0; k < 3; ++k) layout::apply_edit(f.layout, bs.edits.at(k));
  const pipeline::Router router(f.rules, storm_options(f));
  const pipeline::BoardRoute full = router.route_board(f.layout);
  std::string why;
  EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(id), svc.board_route(id),
                                          f.layout, full, &why))
      << why;
}

TEST(RoutingService, DrainAggregatesEveryFailedBoard) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  ASSERT_GE(storm.boards.size(), 2u);

  ServiceOptions sopts;
  sopts.threads = 1;
  RoutingService svc(sopts);
  for (std::size_t b = 0; b < 2; ++b) {
    const scenario::EditStorm& bs = storm.boards.at(b);
    svc.add_board(bs.spec.name, bs.scenario.rules,
                  storm_options(bs.scenario), bs.scenario.layout);
  }
  svc.drain();

  // One bogus edit per board: drain must list *both* failures, not just
  // the first one it finds.
  for (std::size_t b = 0; b < 2; ++b) {
    const std::string& id = storm.boards.at(b).spec.name;
    layout::BoardEdit bogus;
    bogus.kind = layout::BoardEditKind::SetGroupTarget;
    bogus.group = 9999;
    bogus.target = 1.0;
    svc.submit(id, bogus);
  }
  try {
    svc.drain();
    FAIL() << "drain() should have thrown ServiceError";
  } catch (const ServiceError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures().at(0).board, storm.boards.at(0).spec.name);
    EXPECT_EQ(e.failures().at(1).board, storm.boards.at(1).spec.name);
    EXPECT_NE(std::string(e.what()).find(storm.boards.at(0).spec.name),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find(storm.boards.at(1).spec.name),
              std::string::npos);
  }
  EXPECT_NO_THROW(svc.drain());
}

TEST(RoutingService, DeadlineTimeoutsWalkTheLadderIntoQuarantine) {
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);
  const scenario::EditStorm& bs = storm.boards.at(0);
  const std::string id = bs.spec.name;

  // An impossible per-group budget: every attempt (degraded included)
  // times out deterministically at the first stage-boundary poll.
  pipeline::RouterOptions ropts = storm_options(bs.scenario);
  ropts.deadline_s = 1e-12;

  ServiceOptions sopts;
  sopts.threads = 1;
  sopts.max_attempts = 3;
  RoutingService svc(sopts);
  svc.add_board(id, bs.scenario.rules, ropts, bs.scenario.layout);
  try {
    svc.drain();
    FAIL() << "drain() should have thrown ServiceError";
  } catch (const ServiceError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_NE(e.failures().front().message.find("deadline"), std::string::npos);
  }

  const BoardStats st = svc.stats(id);
  EXPECT_EQ(st.timeouts, 3u);
  EXPECT_EQ(st.retries, 2u);
  EXPECT_EQ(st.degraded_retries, 1u);
  EXPECT_EQ(st.quarantines, 1u);
  EXPECT_TRUE(svc.is_quarantined(id));
  EXPECT_FALSE(svc.is_routed(id));
}

TEST(RoutingService, EvictionRacingFaultingPumpsStaysConsistent) {
  // evict_idle() hammered from the replay thread while pumps fail and
  // retry on workers: eviction must only ever capture in-sync quiescent
  // sessions (never a mid-rollback or stale-route state), and the end
  // state must still match the fresh oracle. Runs at 1, 2 and hardware
  // threads; the TSAN job compiles this file too.
  const scenario::ServiceStormCase c = scenario::service_storm_cases(true).at(0);
  scenario::ServiceStorm storm = scenario::materialize_service_storm(c);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{0}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Every board's second lowering attempt dies once; retries recover.
    auto plan = std::make_shared<fault::FaultPlan>();
    plan->add({"session:apply:*", /*nth=*/2, /*count=*/1});

    ServiceOptions sopts;
    sopts.threads = threads;
    sopts.fault_plan = plan;
    RoutingService svc(sopts);
    for (const scenario::EditStorm& bs : storm.boards) {
      svc.add_board(bs.spec.name, bs.scenario.rules,
                    storm_options(bs.scenario), bs.scenario.layout);
    }
    for (std::size_t e = 0; e < storm.stream.size(); ++e) {
      const scenario::ServiceStormEvent& ev = storm.stream[e];
      svc.submit(storm.boards[ev.board].spec.name, ev.edit);
      if (e % 3 == 1) svc.evict_idle();  // race the pumps
    }
    EXPECT_NO_THROW(svc.drain());

    const ServiceTotals totals = svc.totals();
    EXPECT_EQ(totals.applied, storm.stream.size());
    EXPECT_EQ(totals.quarantines, 0u);
    EXPECT_EQ(totals.dropped_edits, 0u);

    for (std::size_t b = 0; b < storm.boards.size(); ++b) {
      const scenario::EditStorm& bs = storm.boards[b];
      scenario::Scenario f = scenario::materialize(bs.spec.base);
      for (const layout::BoardEdit& e : bs.edits) layout::apply_edit(f.layout, e);
      const pipeline::Router router(f.rules, storm_options(f));
      const pipeline::BoardRoute full = router.route_board(f.layout);
      std::string why;
      EXPECT_TRUE(pipeline::routes_equivalent(svc.board_layout(bs.spec.name),
                                              svc.board_route(bs.spec.name),
                                              f.layout, full, &why))
          << bs.spec.name << ": " << why;
    }
  }
}

}  // namespace
}  // namespace lmr::service
