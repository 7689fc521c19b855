#include "scenario/scenario_generator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "layout/drc_checker.hpp"
#include "pipeline/router.hpp"
#include "scenario/scenario_families.hpp"

namespace lmr::scenario {
namespace {

/// Byte-identical polyline comparison (no tolerance: determinism means the
/// exact same doubles).
void expect_identical(const geom::Polyline& a, const geom::Polyline& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
  }
}

void expect_identical(const geom::Polygon& a, const geom::Polygon& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
  }
}

ScenarioSpec busy_spec() {
  ScenarioSpec s;
  s.name = "test/busy";
  s.groups = 2;
  s.members_per_group = 4;
  s.diff_fraction = 0.5;
  s.corridor_length = 60.0;
  s.vias_per_band = 8;
  return s;
}

TEST(ScenarioGenerator, SameSpecAndSeedIsByteIdentical) {
  const ScenarioGenerator gen(busy_spec());
  const Scenario a = gen.generate(42);
  const Scenario b = gen.generate(42);

  expect_identical(a.layout.board(), b.layout.board());
  ASSERT_EQ(a.layout.obstacles().size(), b.layout.obstacles().size());
  for (std::size_t i = 0; i < a.layout.obstacles().size(); ++i) {
    expect_identical(a.layout.obstacles()[i].shape, b.layout.obstacles()[i].shape);
  }
  ASSERT_EQ(a.layout.traces().size(), b.layout.traces().size());
  for (const auto& [id, t] : a.layout.traces()) {
    expect_identical(t.path, b.layout.trace(id).path);
  }
  ASSERT_EQ(a.layout.pairs().size(), b.layout.pairs().size());
  for (const auto& [id, p] : a.layout.pairs()) {
    expect_identical(p.positive.path, b.layout.pair(id).positive.path);
    expect_identical(p.negative.path, b.layout.pair(id).negative.path);
  }
  ASSERT_EQ(a.layout.groups().size(), b.layout.groups().size());
  for (std::size_t g = 0; g < a.layout.groups().size(); ++g) {
    EXPECT_EQ(a.layout.groups()[g].name, b.layout.groups()[g].name);
    EXPECT_EQ(a.layout.groups()[g].target_length, b.layout.groups()[g].target_length);
    EXPECT_EQ(a.layout.groups()[g].members.size(), b.layout.groups()[g].members.size());
  }
}

TEST(ScenarioGenerator, DifferentSeedsDifferentObstacles) {
  const ScenarioGenerator gen(busy_spec());
  const Scenario a = gen.generate(1);
  const Scenario b = gen.generate(2);
  ASSERT_FALSE(a.layout.obstacles().empty());
  std::set<std::pair<double, double>> ca, cb;
  for (const auto& o : a.layout.obstacles()) {
    ca.insert({o.shape.centroid().x, o.shape.centroid().y});
  }
  for (const auto& o : b.layout.obstacles()) {
    cb.insert({o.shape.centroid().x, o.shape.centroid().y});
  }
  EXPECT_NE(ca, cb);
}

TEST(ScenarioGenerator, StructureMatchesSpec) {
  ScenarioSpec spec = busy_spec();
  const Scenario sc = ScenarioGenerator(spec).generate(7);
  ASSERT_EQ(sc.layout.groups().size(), 2u);
  for (const auto& g : sc.layout.groups()) {
    EXPECT_EQ(g.members.size(), 4u);
    EXPECT_DOUBLE_EQ(g.target_length, spec.target_fraction * spec.corridor_length);
    int diffs = 0;
    for (const auto& m : g.members) {
      if (m.kind == layout::MemberKind::Differential) ++diffs;
      EXPECT_NE(sc.layout.routable_area(m.id), nullptr);
    }
    EXPECT_EQ(diffs, 2);  // diff_fraction 0.5 of 4 members
  }
}

TEST(ScenarioGenerator, InitialGeometryIsDrcSane) {
  // Generated boards must start legal: no stub segments, obstacle
  // clearances met, every member inside its corridor.
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const Scenario sc = ScenarioGenerator(busy_spec()).generate(seed);
    const layout::DrcChecker checker;
    for (const auto& [id, t] : sc.layout.traces()) {
      EXPECT_TRUE(checker.check_trace(t, sc.rules).empty()) << "seed " << seed;
      EXPECT_TRUE(
          checker.check_obstacles(t, sc.rules, sc.layout.obstacles()).empty())
          << "seed " << seed;
      EXPECT_TRUE(checker.check_containment(t, *sc.layout.routable_area(id)).empty())
          << "seed " << seed;
    }
  }
}

TEST(ScenarioGenerator, RotationPreservesLengths) {
  ScenarioSpec flat = busy_spec();
  ScenarioSpec tilted = flat;
  tilted.corridor_angle_deg = 30.0;
  const Scenario a = ScenarioGenerator(flat).generate(5);
  const Scenario b = ScenarioGenerator(tilted).generate(5);
  for (const auto& [id, t] : a.layout.traces()) {
    EXPECT_NEAR(t.path.length(), b.layout.trace(id).path.length(), 1e-9);
  }
  // And the rotated board is genuinely tilted.
  const auto& p0 = b.layout.board()[0];
  const auto& p1 = b.layout.board()[1];
  EXPECT_GT(std::abs(p1.y - p0.y), 1.0);
}

TEST(ScenarioGenerator, MultiDraPairsWidenPerSection) {
  ScenarioSpec spec;
  spec.name = "test/dra";
  spec.members_per_group = 1;
  spec.diff_fraction = 1.0;
  spec.dra_sections = 3;
  spec.dra_width_factor = 2.0;
  spec.band_height = 6.0;
  spec.vias_per_band = 0;
  const Scenario sc = ScenarioGenerator(spec).generate(11);
  ASSERT_EQ(sc.pair_rule_set.size(), 3u);
  EXPECT_LT(sc.pair_rule_set.front(), sc.pair_rule_set.back());
  ASSERT_EQ(sc.layout.pairs().size(), 1u);
  const auto& pair = sc.layout.pairs().begin()->second;
  // Separation at the run's start vs end follows the section pitches.
  const double sep_start =
      std::abs(pair.positive.path.front().y - pair.negative.path.front().y);
  const double sep_end =
      std::abs(pair.positive.path.back().y - pair.negative.path.back().y);
  EXPECT_NEAR(sep_start, spec.pair_pitch, 1e-9);
  EXPECT_NEAR(sep_end, spec.pair_pitch * spec.dra_width_factor, 1e-9);
}

TEST(ScenarioFamilies, StandardFamiliesCoverTheRoadmapAxes) {
  const auto fams = standard_families(true);
  std::set<std::string> names;
  for (const auto& f : fams) {
    EXPECT_FALSE(f.cases.empty()) << f.name;
    names.insert(f.name);
  }
  for (const char* required :
       {"multi_group", "mixed_se_diff", "pair_corridors", "obstacle_sweep", "saturated"}) {
    EXPECT_TRUE(names.count(required)) << required;
  }
  EXPECT_THROW((void)family("no_such_family", true), std::out_of_range);
}

TEST(ScenarioFamilies, Table1FullyGatedOnDrc) {
  // The rule-aware restore closed the case-5 DRC debt: every Table I case —
  // including the dense differential one — now expects a clean oracle.
  for (const bool smoke : {false, true}) {
    const Family f = family("table1", smoke);
    for (const FamilyCase& fc : f.cases) {
      EXPECT_TRUE(fc.expect_drc_clean) << fc.spec.name;
    }
  }
}

TEST(ScenarioFamilies, SmokeVariantsAreSmaller) {
  std::size_t smoke_members = 0, full_members = 0;
  for (const auto& f : standard_families(true)) {
    for (const auto& c : f.cases) {
      smoke_members += static_cast<std::size_t>(c.spec.groups) *
                       static_cast<std::size_t>(c.spec.members_per_group);
    }
  }
  for (const auto& f : standard_families(false)) {
    for (const auto& c : f.cases) {
      full_members += static_cast<std::size_t>(c.spec.groups) *
                      static_cast<std::size_t>(c.spec.members_per_group);
    }
  }
  EXPECT_LT(smoke_members, full_members);
}

TEST(ScenarioFamilies, SaturatedScenarioSaturatesCleanly) {
  // The exported saturation reproduction: route it end to end; matching is
  // impossible but the meander must be DRC-clean (the regression this
  // PR's height-solver fix addresses at system level).
  const Scenario sc = ScenarioGenerator(saturated_corridor_spec()).generate(7601);
  pipeline::RouterOptions opts;
  opts.extender.l_disc = 0.5;
  opts.extender.max_width_steps = 24;
  const pipeline::Router router(sc.rules, opts);
  layout::Layout layout = sc.layout;
  const pipeline::RouteResult res = router.route_batch(layout);
  EXPECT_FALSE(res.matched());
  EXPECT_TRUE(res.drc_clean()) << res.violation_count() << " violations";
  EXPECT_GT(res.group.members[0].final_length, res.group.members[0].initial_length);
}

TEST(ScenarioGenerator, DegenerateSpecThrows) {
  ScenarioSpec s;
  s.members_per_group = 0;
  EXPECT_THROW(ScenarioGenerator{s}, std::invalid_argument);
}

}  // namespace
}  // namespace lmr::scenario
