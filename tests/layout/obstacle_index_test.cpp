#include "layout/obstacle_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "layout/drc_checker.hpp"
#include "layout/layout.hpp"
#include "pipeline/router.hpp"
#include "scenario/scenario_families.hpp"

/// The ObstacleIndex contract the per-net oracle depends on: (a) a window
/// query returns, ascending and unique, a superset of the obstacles whose
/// bbox intersects the window, also on hostile geometry; (b) the indexed
/// DrcChecker::check_obstacles equals the brute-force vector overload field
/// for field and in order, on every smoke family's routed traces, a rotated
/// board, and traces pushed through the via fields (routed boards are
/// clean, so only the pushed traces reach the violation path); (c) an index
/// kept current through `apply` answers like a fresh build after every
/// recorded add, move and remove.

namespace lmr::layout {
namespace {

using geom::Box;
using geom::Point;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Obstacle poly(std::vector<Point> pts, const std::string& name) {
  return {geom::Polygon(std::move(pts)), name};
}

Obstacle rect(const Box& b, const std::string& name = "rect") {
  return {geom::Polygon::rect(b), name};
}

std::vector<Obstacle> random_obstacles(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::uniform_real_distribution<double> side(0.0, 3.0);
  std::vector<Obstacle> obs;
  for (std::size_t i = 0; i < n; ++i) {
    const Point lo{u(rng), u(rng)};
    obs.push_back(rect({lo, {lo.x + side(rng), lo.y + side(rng)}}));
  }
  return obs;
}

/// A random field plus every hostile case: empty and point polygons, a
/// NaN vertex, a board-sized keepout, far outliers (gridded and beyond
/// index::GridCore::kLimit) and non-finite bboxes.
std::vector<Obstacle> hostile_obstacles(std::mt19937_64& rng) {
  std::vector<Obstacle> obs = random_obstacles(rng, 120);
  for (const Obstacle& o :
       {poly({}, "empty"), poly({{30.0, 30.0}}, "point"), poly({{kNaN, kNaN}}, "NaN vertex"),
        rect({{-5.0, -5.0}, {105.0, 105.0}}, "keepout"),
        rect({{1e9, 1e9}, {1e9 + 1.0, 1e9 + 1.0}}, "far"),
        rect({{-1e12, 3.0}, {-1e12 + 0.5, 3.5}}, "far west"),
        rect({{1e300, 1e300}, {1.5e300, 1.5e300}}, "beyond the grid"),
        poly({{0.0, 40.0}, {kInf, 40.0}, {kInf, 41.0}}, "to +inf"),
        poly({{-kInf, -kInf}, {kInf, -kInf}, {0.0, kInf}}, "everywhere")}) {
    obs.push_back(o);
  }
  return obs;
}

/// Windows of every shape a segment bbox takes — boxes, points (zero-length
/// segments), horizontal and vertical slivers — partly or wholly off the
/// obstacle field, plus windows no finite arithmetic copes with.
std::vector<Box> windows(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(-20.0, 120.0);
  std::uniform_real_distribution<double> side(0.0, 8.0);
  std::vector<Box> out = {
      Box{{-kInf, -kInf}, {kInf, kInf}},     Box{{50.0, 50.0}, {kInf, 50.0}},
      Box{{1e9, 1e9}, {1e9, 1e9}},           Box{{1.2e300, 1.2e300}, {1.3e300, 1.3e300}},
      Box{{-1e300, -1e300}, {1e300, 1e300}}, Box{{kNaN, 0.0}, {10.0, 10.0}},
      Box{}};
  for (std::size_t i = 0; i < n; ++i) {
    const Point lo{u(rng), u(rng)};
    const double a = side(rng);
    const double b = side(rng);
    const Point hi[] = {
        {lo.x + a, lo.y + b}, lo, {lo.x + 10.0 * a, lo.y}, {lo.x, lo.y + 10.0 * b}};
    out.push_back({lo, hi[i % 4]});
  }
  return out;
}

TEST(ObstacleIndex, QueryIsAnAscendingSupersetOfTheScan) {
  std::mt19937_64 rng(20260);
  for (const std::vector<Obstacle>& obs :
       {std::vector<Obstacle>{}, random_obstacles(rng, 1), random_obstacles(rng, 7),
        random_obstacles(rng, 300), hostile_obstacles(rng)}) {
    const ObstacleIndex index(obs);
    ASSERT_EQ(index.size(), obs.size());
    std::vector<std::uint32_t> got;
    for (const Box& w : windows(rng, 400)) {
      index.query(w, got);
      EXPECT_EQ(std::adjacent_find(got.begin(), got.end(), std::greater_equal<>()), got.end())
          << obs.size() << " obstacles: not ascending and unique";
      std::vector<std::uint32_t> want;
      for (std::size_t i = 0; i < obs.size(); ++i) {
        if (obs[i].shape.bbox().intersects(w)) want.push_back(static_cast<std::uint32_t>(i));
      }
      EXPECT_TRUE(std::includes(got.begin(), got.end(), want.begin(), want.end()))
          << obs.size() << " obstacles: missed an intersecting obstacle";
    }
  }
}

TEST(ObstacleIndex, EmptyBboxesNeverAndNonFiniteBboxesAlwaysAreCandidates) {
  const std::vector<Obstacle> obs = {
      poly({}, "empty"), rect({{0.0, 0.0}, {2.0, 2.0}}), poly({{kNaN, kNaN}}, "NaN vertex"),
      poly({{0.0, 0.0}, {kInf, 0.0}, {kInf, 1.0}}, "to +inf"), poly({{5.0, 5.0}}, "point")};
  const ObstacleIndex index(obs);
  std::vector<std::uint32_t> got;
  index.query({{-kInf, -kInf}, {kInf, kInf}}, got);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 3, 4}));
  index.query({{1e6, 0.5}, {1e6, 0.5}}, got);  // off the grid
  EXPECT_EQ(got, (std::vector<std::uint32_t>{3}));
  const std::vector<Obstacle> none;
  ObstacleIndex(none).query({{-kInf, -kInf}, {kInf, kInf}}, got);
  EXPECT_TRUE(got.empty());
}

/// `index`'s candidates for `w` that survive the exact bbox test: what any
/// index over the same obstacles must agree on.
std::vector<std::uint32_t> exact_candidates(const ObstacleIndex& index, const Box& w) {
  std::vector<std::uint32_t> got;
  index.query(w, got);
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end(), std::greater_equal<>()), got.end())
      << "not ascending and unique";
  std::erase_if(got, [&](std::uint32_t i) { return !index.bbox(i).intersects(w); });
  return got;
}

TEST(ObstacleIndex, EditedIndexAnswersLikeAFreshBuildAfterEveryEdit) {
  // A Session-style index: built once over the board, then fed every
  // recorded obstacle mutation through apply() and re-pointed at
  // layout.obstacles() each time, because the list may reallocate. After
  // every edit its candidates, filtered by exact bbox intersection, must
  // equal a fresh build's over random windows. Each script opens with the
  // cases a grid update can get wrong — an add outside the original grid
  // extent, a non-finite and an empty bbox, removing the first and the
  // last obstacle, a move off the grid and back — then runs a seeded mix;
  // one board starts with no obstacles at all.
  for (const std::size_t start : {std::size_t{0}, std::size_t{1}, std::size_t{80}}) {
    SCOPED_TRACE(std::to_string(start) + " obstacles at build");
    std::mt19937_64 rng(4100 + start);
    Layout board;
    for (const Obstacle& o : random_obstacles(rng, start)) (void)board.add_obstacle(o);
    ObstacleIndex index(board.obstacles());
    std::size_t step = 0;
    const auto edited = [&](const LayoutDelta& d) {
      index.apply(d, board.obstacles());
      SCOPED_TRACE("edit " + std::to_string(step++));
      ASSERT_TRUE(index.indexes(board.obstacles()));
      const ObstacleIndex fresh(board.obstacles());
      for (const Box& w : windows(rng, 150)) {
        ASSERT_EQ(exact_candidates(index, w), exact_candidates(fresh, w));
      }
    };

    edited(board.add_obstacle(rect({{250.0, -90.0}, {252.0, -88.0}}, "outside the grid")));
    edited(board.add_obstacle(poly({{10.0, 20.0}, {kInf, 20.0}, {kInf, 21.0}}, "to +inf")));
    edited(board.add_obstacle(poly({}, "empty")));
    edited(board.add_obstacle(rect({{40.0, 40.0}, {41.5, 41.0}}, "inside")));
    edited(board.remove_obstacle(0));
    edited(board.remove_obstacle(board.obstacle_count() - 1));
    edited(board.move_obstacle(0, {-400.0, 300.0}));
    edited(board.move_obstacle(0, {400.0, -300.0}));
    edited(board.set_obstacle_shape(0, geom::Polygon::rect({{kNaN, 0.0}, {1.0, 1.0}})));

    std::uniform_real_distribution<double> u(-10.0, 110.0);
    for (int k = 0; k < 40; ++k) {
      const std::size_t n = board.obstacle_count();
      const std::size_t op = n == 0 ? 0 : rng() % 3;
      if (op == 0) {
        const Point lo{u(rng), u(rng)};
        edited(board.add_obstacle(rect({lo, {lo.x + 2.0, lo.y + 1.0}})));
      } else if (op == 1) {
        edited(board.move_obstacle(rng() % n, {u(rng) - 50.0, u(rng) - 50.0}));
      } else {
        const std::size_t victims[] = {0, n - 1, static_cast<std::size_t>(rng() % n)};
        edited(board.remove_obstacle(victims[k % 3]));
      }
    }
    // Other delta kinds only re-point the index.
    edited(board.set_board(geom::Polygon::rect({{-20.0, -20.0}, {120.0, 120.0}})));
  }
}

/// Check `t` both ways and compare field for field; returns the count.
std::size_t expect_same_check(const Trace& t, const drc::DesignRules& rules,
                              const std::vector<Obstacle>& obs, const ObstacleIndex& index,
                              const std::string& tag) {
  const DrcChecker checker;
  const std::vector<Violation> want = checker.check_obstacles(t, rules, obs);
  const std::vector<Violation> got = checker.check_obstacles(t, rules, index);
  EXPECT_EQ(got.size(), want.size()) << tag << " trace " << t.id;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const Violation& x = got[i];
    const Violation& y = want[i];
    EXPECT_TRUE(x.kind == y.kind && x.trace == y.trace && x.other_trace == y.other_trace &&
                x.index_a == y.index_a && x.index_b == y.index_b && x.measured == y.measured &&
                x.required == y.required && x.note == y.note)
        << tag << " trace " << t.id << ": violation " << i << " differs";
  }
  return want.size();
}

/// Every routed trace (pair sub-traces under their sub-trace rules, as the
/// Router checks them) and copies pushed into the via field, plus one trace
/// threading every third obstacle. Returns the pushed traces' count.
std::size_t check_board(const scenario::Scenario& sc, const std::string& tag) {
  const std::vector<Obstacle>& obs = sc.layout.obstacles();
  const ObstacleIndex index(obs);
  std::vector<std::pair<const Trace*, drc::DesignRules>> traces;
  for (const auto& [id, t] : sc.layout.traces()) {
    (void)id;
    traces.emplace_back(&t, sc.rules);
  }
  for (const auto& [id, p] : sc.layout.pairs()) {
    (void)id;
    drc::DesignRules sub = sc.rules;
    sub.trace_width = p.positive.width;
    traces.emplace_back(&p.positive, sub);
    traces.emplace_back(&p.negative, sub);
  }
  std::size_t pushed = 0;
  for (const auto& [t, rules] : traces) {
    (void)expect_same_check(*t, rules, obs, index, tag);
    for (const geom::Vec2 d : {geom::Vec2{0.0, 0.45}, geom::Vec2{0.0, -0.9},
                               geom::Vec2{0.7, 1.6}, geom::Vec2{-1.3, 0.2}}) {
      Trace moved = *t;
      for (Point& p : moved.path.points()) p = p + d;
      pushed += expect_same_check(moved, rules, obs, index, tag + " pushed");
    }
  }
  Trace threaded;
  for (std::size_t i = 0; i < obs.size(); i += 3) {
    threaded.path.push_back(obs[i].shape.centroid());
  }
  return pushed + expect_same_check(threaded, sc.rules, obs, index, tag + " threaded");
}

TEST(ObstacleIndex, IndexedCheckMatchesTheScanOnEverySmokeFamily) {
  std::vector<std::pair<std::string, scenario::Scenario>> boards;
  for (const scenario::Family& fam : scenario::standard_families(true)) {
    for (const scenario::FamilyCase& fc : fam.cases) {
      boards.emplace_back(fam.name + "/" + fc.spec.name, scenario::materialize(fc));
    }
  }
  // A 30-degree board: every band's bbox covers most of the board, so its
  // long diagonal segments query many grid cells at once.
  scenario::ScenarioSpec spec;
  spec.name = "test/rotated";
  spec.groups = 3;
  spec.members_per_group = 3;
  spec.corridor_length = 60.0;
  spec.corridor_angle_deg = 30.0;
  spec.extender_tolerance = 0.05;
  spec.vias_per_band = 4;
  boards.emplace_back(spec.name, scenario::ScenarioGenerator(spec).generate(7711));

  for (auto& [tag, sc] : boards) {
    pipeline::RouterOptions opts;
    opts.extender.l_disc = 0.5;
    opts.extender.max_width_steps = 24;
    if (sc.spec.extender_tolerance > 0.0) opts.extender.tolerance = sc.spec.extender_tolerance;
    if (sc.pair_rule_set.size() > 1) opts.pair_rule_set = sc.pair_rule_set;
    (void)pipeline::Router(sc.rules, opts).route_all(sc.layout);
    const std::size_t pushed = check_board(sc, tag);
    if (!sc.layout.obstacles().empty()) {
      EXPECT_GT(pushed, 0u) << tag << ": pushed traces must reach the violation path";
    }
  }
}

TEST(ObstacleIndex, IndexedCheckMatchesTheScanOnHostileGeometry) {
  std::mt19937_64 rng(5);
  const std::vector<Obstacle> obs = hostile_obstacles(rng);
  const ObstacleIndex index(obs);
  drc::DesignRules rules;
  rules.obs = 0.5;
  std::size_t found = 0;
  for (const std::vector<Point>& pts : std::vector<std::vector<Point>>{
           {{30.0, 30.0}, {30.0, 30.0}, {60.0, 30.0}},  // zero-length first segment
           {{10.0, 10.0}, {90.0, 90.0}, {90.0, 10.0}},
           {{10.0, 40.5}, {1e300, 40.5}},
           {{10.0, 10.0}, {kInf, 10.0}},
           {{-kInf, 50.0}, {kInf, 50.0}},
           {{kNaN, 20.0}, {50.0, 20.0}, {50.0, kNaN}},
           {{1e300, 1e300}, {1.2e300, 1.2e300}}}) {
    Trace t;
    t.path = geom::Polyline(pts);
    found += expect_same_check(t, rules, obs, index, "hostile");
  }
  EXPECT_GT(found, 0u);
}

}  // namespace
}  // namespace lmr::layout
