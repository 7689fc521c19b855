#include "pipeline/router.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exec/task_pool.hpp"
#include "pipeline/session.hpp"
#include "scenario/scenario_families.hpp"
#include "workload/metrics.hpp"
#include "workload/table1_cases.hpp"

namespace lmr::pipeline {
namespace {

/// The bench configuration of Table I ("Ours"): fine grid, capped width loop.
RouterOptions table1_options() {
  RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  return opts;
}

/// Three staggered single-ended traces in private corridors, target 50.
layout::Layout small_group(drc::DesignRules& rules) {
  layout::Layout l;
  layout::MatchGroup g;
  g.name = "g0";
  g.target_length = 50.0;
  for (int i = 0; i < 3; ++i) {
    layout::Trace t;
    t.name = "t" + std::to_string(i);
    const double y = i * 10.0;
    t.path = geom::Polyline{{{0, y}, {30.0 + i * 3.0, y}}};
    const auto id = l.add_trace(t);
    layout::RoutableArea area;
    area.outline = geom::Polygon::rect({{-1, y - 4.5}, {41, y + 4.5}});
    l.set_routable_area(id, area);
    g.members.push_back({layout::MemberKind::SingleEnded, id});
  }
  l.add_group(g);
  rules = drc::DesignRules{};
  rules.gap = 1.0;
  rules.obs = 0.5;
  rules.protect = 0.5;
  return l;
}

TEST(Router, BadGroupIndexThrows) {
  layout::Layout l;
  const Router router{drc::DesignRules{}};
  EXPECT_THROW((void)router.route_batch(l, 0), std::out_of_range);
}

TEST(Router, MissingAreaThrows) {
  layout::Layout l;
  layout::Trace t;
  t.path = geom::Polyline{{{0, 0}, {10, 0}}};
  const auto id = l.add_trace(t);
  layout::MatchGroup g;
  g.target_length = 20.0;
  g.members.push_back({layout::MemberKind::SingleEnded, id});
  l.add_group(g);
  const Router router{drc::DesignRules{}};
  EXPECT_THROW((void)router.route_batch(l), std::invalid_argument);
}

TEST(Router, SmallGroupMatchesAndPassesDrc) {
  drc::DesignRules rules;
  layout::Layout l = small_group(rules);
  const Router router{rules};
  const RouteResult res = router.route_batch(l);

  ASSERT_EQ(res.nets.size(), 3u);
  EXPECT_TRUE(res.matched());
  EXPECT_TRUE(res.drc_clean());
  EXPECT_TRUE(res.ok());
  EXPECT_LT(res.group.max_error_pct, 0.1);
  EXPECT_GT(res.group.initial_max_error_pct, 30.0);
  for (const NetResult& net : res.nets) {
    EXPECT_FALSE(net.member.name.empty());
    EXPECT_TRUE(net.member.reached) << net.member.name;
    EXPECT_NEAR(net.member.final_length, 50.0, 1e-4);
    EXPECT_TRUE(net.drc_clean()) << net.member.name;
    EXPECT_GT(net.member.patterns, 0);
  }
}

TEST(Router, MemberTargetOverrideReachesItsOwnTarget) {
  layout::Layout l;
  layout::MatchGroup g;
  g.target_length = 40.0;
  layout::Trace t;
  t.path = geom::Polyline{{{0, 0}, {30, 0}}};
  const auto id = l.add_trace(t);
  layout::RoutableArea area;
  area.outline = geom::Polygon::rect({{-1, -5}, {31, 5}});
  l.set_routable_area(id, area);
  g.members.push_back({layout::MemberKind::SingleEnded, id});
  g.member_targets = {45.0};
  l.add_group(g);
  drc::DesignRules rules;
  rules.gap = 1.0;
  rules.protect = 0.5;
  const RouteResult res = Router{rules}.route_batch(l);
  EXPECT_NEAR(res.group.members[0].final_length, 45.0, 1e-4);
}

TEST(Router, Table1CaseEndToEnd) {
  // A full Table I dense single-ended case through the one-call facade:
  // errors collapse from the ~30 % initial band to the paper's few-percent
  // band and the oracle sweep stays clean.
  auto c = workload::table1_case(3);
  const Router router(c.rules, table1_options());
  const RouteResult res = router.route_batch(c.layout);

  ASSERT_EQ(res.nets.size(), static_cast<std::size_t>(c.group_size));
  EXPECT_GT(res.group.initial_max_error_pct, 25.0);
  EXPECT_LT(res.group.max_error_pct, 5.0);
  EXPECT_TRUE(res.drc_clean());
  // The facade's write-back must agree with the layout's own lengths.
  const auto lengths = workload::group_member_lengths(c.layout);
  ASSERT_EQ(lengths.size(), res.nets.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_DOUBLE_EQ(lengths[i], res.nets[i].member.final_length);
  }
}

TEST(Router, DifferentialCaseDiagnostics) {
  auto c = workload::table1_case(5);
  const Router router(c.rules, table1_options());
  const RouteResult res = router.route_batch(c.layout);

  ASSERT_EQ(res.nets.size(), static_cast<std::size_t>(c.group_size));
  for (const NetResult& net : res.nets) {
    EXPECT_EQ(net.member.kind, layout::MemberKind::Differential);
    EXPECT_GE(net.member.final_length, net.member.initial_length);
  }
  EXPECT_LT(res.group.max_error_pct, res.group.initial_max_error_pct / 2.0);
  // Both restored sub-traces of every pair stay free of self-intersections.
  for (const auto& [id, pair] : c.layout.pairs()) {
    EXPECT_FALSE(pair.positive.path.self_intersects()) << "pair " << id;
    EXPECT_FALSE(pair.negative.path.self_intersects()) << "pair " << id;
  }
}

TEST(Router, AidtBaselineSelection) {
  auto c = workload::table1_case(2);
  RouterOptions opts;
  opts.engine = Engine::AidtStyle;
  opts.run_drc = false;
  const Router router(c.rules, opts);
  const RouteResult res = router.route_batch(c.layout);
  // The greedy baseline improves on the initial state but (on dense cases)
  // stays behind the DP flow's few-percent band.
  EXPECT_LT(res.group.max_error_pct, res.group.initial_max_error_pct);
  EXPECT_GT(res.group.max_error_pct, 0.0);
  EXPECT_TRUE(res.nets[0].violations.empty());  // run_drc=false: no sweep ran
}

/// route_batch must be bit-identical on every trace, whatever the thread
/// count.
TEST(Router, BatchIdenticalSingleVsMultiThreaded) {
  for (const int case_id : {1, 5}) {
    auto sequential = workload::table1_case(case_id);
    auto threaded = workload::table1_case(case_id);

    RouterOptions opts = table1_options();
    opts.threads = 1;
    const RouteResult res_seq =
        Router(sequential.rules, opts).route_batch(sequential.layout);
    opts.threads = 8;
    const RouteResult res_par =
        Router(threaded.rules, opts).route_batch(threaded.layout);

    ASSERT_EQ(res_seq.nets.size(), res_par.nets.size());
    for (std::size_t i = 0; i < res_seq.nets.size(); ++i) {
      EXPECT_DOUBLE_EQ(res_seq.nets[i].member.final_length,
                       res_par.nets[i].member.final_length);
      EXPECT_EQ(res_seq.nets[i].member.patterns, res_par.nets[i].member.patterns);
      EXPECT_EQ(res_seq.nets[i].violations.size(), res_par.nets[i].violations.size());
    }
    EXPECT_DOUBLE_EQ(res_seq.group.max_error_pct, res_par.group.max_error_pct);
    // Geometry identical point for point.
    for (const auto& [id, t] : sequential.layout.traces()) {
      const auto& other = threaded.layout.trace(id).path.points();
      const auto& mine = t.path.points();
      ASSERT_EQ(mine.size(), other.size());
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(mine[i].x, other[i].x);
        EXPECT_EQ(mine[i].y, other[i].y);
      }
    }
    for (const auto& [id, p] : sequential.layout.pairs()) {
      EXPECT_EQ(p.positive.path.points().size(),
                threaded.layout.pair(id).positive.path.points().size());
      EXPECT_DOUBLE_EQ(p.positive.path.length(),
                       threaded.layout.pair(id).positive.path.length());
      EXPECT_DOUBLE_EQ(p.negative.path.length(),
                       threaded.layout.pair(id).negative.path.length());
    }
    // Exact: geometry bit for bit (sub-traces included) and violations field
    // by field, in order.
    BoardRoute want;
    want.results = {res_seq};
    BoardRoute got;
    got.results = {res_par};
    std::string why;
    EXPECT_TRUE(routes_equivalent(sequential.layout, want, threaded.layout, got, &why))
        << "case " << case_id << ": " << why;
  }
}

/// Compare every trace and pair of two layouts point for point.
void expect_identical_geometry(const layout::Layout& a, const layout::Layout& b) {
  for (const auto& [id, t] : a.traces()) {
    const auto& mine = t.path.points();
    const auto& other = b.trace(id).path.points();
    ASSERT_EQ(mine.size(), other.size()) << "trace " << id;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine[i].x, other[i].x) << "trace " << id << " point " << i;
      EXPECT_EQ(mine[i].y, other[i].y) << "trace " << id << " point " << i;
    }
  }
  for (const auto& [id, p] : a.pairs()) {
    for (const auto sub : {&layout::DiffPair::positive, &layout::DiffPair::negative}) {
      const auto& mine = (p.*sub).path.points();
      const auto& other = (b.pair(id).*sub).path.points();
      ASSERT_EQ(mine.size(), other.size()) << "pair " << id;
      for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(mine[i].x, other[i].x) << "pair " << id << " point " << i;
        EXPECT_EQ(mine[i].y, other[i].y) << "pair " << id << " point " << i;
      }
    }
  }
}

/// route_all on seeded multi-group boards: bit-identical to serial per-group
/// route_batch whatever the thread count, results in group order. The mega
/// smoke board (8 groups x 32 nets in a dense via field) runs its groups as
/// concurrent tasks sharing one obstacle index.
TEST(Router, RouteAllDeterministicAcrossThreadCounts) {
  for (const char* name : {"multi_group", "mega_board"}) {
    SCOPED_TRACE(name);
    const auto fam = scenario::family(name, true);
    const scenario::Scenario reference_sc = scenario::materialize(fam.cases.at(0));
    ASSERT_GT(reference_sc.layout.groups().size(), 1u);

    auto reference = reference_sc.layout;
    RouterOptions ref_opts = table1_options();
    ref_opts.threads = 1;
    const Router ref_router(reference_sc.rules, ref_opts);
    std::vector<RouteResult> ref_results;
    for (std::size_t g = 0; g < reference.groups().size(); ++g) {
      ref_results.push_back(ref_router.route_batch(reference, g));
    }

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      scenario::Scenario sc = scenario::materialize(fam.cases.at(0));
      RouterOptions opts = table1_options();
      opts.threads = threads;
      const Router router(sc.rules, opts);
      const std::vector<RouteResult> results = router.route_all(sc.layout);

      ASSERT_EQ(results.size(), ref_results.size()) << threads;
      for (std::size_t g = 0; g < results.size(); ++g) {
        EXPECT_EQ(results[g].group.group_name, ref_results[g].group.group_name);
        EXPECT_DOUBLE_EQ(results[g].group.max_error_pct, ref_results[g].group.max_error_pct);
        EXPECT_DOUBLE_EQ(results[g].group.avg_error_pct, ref_results[g].group.avg_error_pct);
        EXPECT_EQ(results[g].violation_count(), ref_results[g].violation_count());
        ASSERT_EQ(results[g].nets.size(), ref_results[g].nets.size());
        for (std::size_t i = 0; i < results[g].nets.size(); ++i) {
          EXPECT_DOUBLE_EQ(results[g].nets[i].member.final_length,
                           ref_results[g].nets[i].member.final_length);
          EXPECT_EQ(results[g].nets[i].member.patterns,
                    ref_results[g].nets[i].member.patterns);
        }
      }
      expect_identical_geometry(reference, sc.layout);
      BoardRoute want;
      want.results = ref_results;
      BoardRoute got;
      got.results = results;
      std::string why;
      EXPECT_TRUE(routes_equivalent(reference, want, sc.layout, got, &why))
          << threads << " threads: " << why;
    }
  }
}

/// A target below the current trace length makes the extender throw inside
/// a member task; the pool must capture and rethrow it from route_batch,
/// leaving the layout untouched (write-back never runs).
TEST(Router, ThrowingMemberTaskPropagatesAndAbortsCleanly) {
  drc::DesignRules rules;
  layout::Layout l = small_group(rules);
  l.set_group_target(0, 5.0);  // every trace is already >= 30 long
  const layout::Layout before = l;

  RouterOptions opts;
  opts.threads = 8;
  const Router router(rules, opts);
  EXPECT_THROW((void)router.route_batch(l), std::invalid_argument);
  expect_identical_geometry(before, l);
}

/// Repeated route_batch calls on one Router reuse the same private pool:
/// results stay identical call after call and no per-call state leaks.
TEST(Router, RepeatedRouteBatchOnOneRouterIsStable) {
  const auto fam = scenario::family("multi_group", true);
  const scenario::Scenario sc = scenario::materialize(fam.cases.at(0));
  RouterOptions opts = table1_options();
  opts.threads = 4;
  const Router router(sc.rules, opts);

  double first_error = -1.0;
  for (int call = 0; call < 25; ++call) {
    layout::Layout layout = sc.layout;  // fresh board, same router+pool
    const RouteResult rr = router.route_batch(layout, 0);
    if (first_error < 0.0) first_error = rr.group.max_error_pct;
    EXPECT_DOUBLE_EQ(rr.group.max_error_pct, first_error) << "call " << call;
  }
}

/// An explicitly provided executor is honoured (the Suite wiring): one
/// pool shared by several Routers, including nested route_all fan-out.
TEST(Router, SharedExplicitPoolAcrossRouters) {
  exec::TaskPool pool(2);
  const auto fam = scenario::family("multi_group", true);
  for (int r = 0; r < 3; ++r) {
    scenario::Scenario sc = scenario::materialize(fam.cases.at(0));
    RouterOptions opts = table1_options();
    opts.threads = 3;
    opts.pool = &pool;
    const Router router(sc.rules, opts);
    EXPECT_EQ(&router.pool(), &pool);
    const std::vector<RouteResult> results = router.route_all(sc.layout);
    EXPECT_EQ(results.size(), sc.layout.groups().size());
    // The family's own gate: few-percent Max error, not exact matching
    // (residuals below the minimum pattern gain are unreachable).
    for (const RouteResult& rr : results) {
      EXPECT_LT(rr.group.max_error_pct, 5.0);
      EXPECT_LT(rr.group.max_error_pct, rr.group.initial_max_error_pct);
    }
  }
}

}  // namespace
}  // namespace lmr::pipeline
