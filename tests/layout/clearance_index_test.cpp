#include "layout/clearance_index.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "clearance_oracle.hpp"
#include "exec/task_pool.hpp"
#include "pipeline/session.hpp"
#include "scenario/scenario_families.hpp"
#include "scenario/scenario_generator.hpp"

namespace lmr::layout {
namespace {

using oracle::same_violations;

drc::DesignRules test_rules() {
  drc::DesignRules r;
  r.gap = 1.0;
  r.obs = 0.5;
  r.protect = 0.5;
  r.trace_width = 0.25;
  return r;
}

/// A generated board plus its traces as oracle slots (one net each) and the
/// rule set the sweep runs under. Generated boards are born legal, so the
/// sweep rules inflate the gap past the band spacing: the existing parallel
/// runs then genuinely violate, giving the oracle checks a real, dense
/// violation set to diff.
struct DenseBoard {
  scenario::Scenario sc;
  std::vector<oracle::Slot> slots;
  drc::DesignRules rules;
};

DenseBoard dense_board(std::uint64_t seed, int groups = 2, int members = 5) {
  scenario::ScenarioSpec spec;
  spec.name = "test/clearance_index";
  spec.groups = groups;
  spec.members_per_group = members;
  spec.corridor_length = 80.0;
  spec.band_height = 3.2;
  spec.vias_per_band = 6;
  spec.rules = test_rules();
  DenseBoard b{scenario::ScenarioGenerator(spec).generate(seed), {}, test_rules()};
  b.rules.gap = 4.0;  // > band spacing: neighbouring members violate
  std::uint32_t net = 0;
  for (const auto& [id, t] : b.sc.layout.traces()) {
    (void)id;
    b.slots.push_back({&t, net++});
  }
  return b;
}

/// Declare every slot of `slots` and insert them in slot order.
void declare_and_insert(ClearanceIndex& index, const std::vector<oracle::Slot>& slots) {
  for (const oracle::Slot& s : slots) index.add_slot(s.trace->width, s.net);
  for (std::uint32_t i = 0; i < slots.size(); ++i) index.insert(i, *slots[i].trace);
}

TEST(ClearanceIndex, MatchesOneShotSweepIncludingOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const DenseBoard b = dense_board(seed);
    const auto reference = oracle::sweep(b.slots, b.rules);
    ClearanceIndex index(b.rules);
    declare_and_insert(index, b.slots);
    EXPECT_FALSE(reference.empty()) << "seed " << seed << ": want real violations";
    EXPECT_TRUE(same_violations(index.sweep(), reference)) << "seed " << seed;
  }
}

TEST(ClearanceIndex, InsertionOrderCannotChangeTheResult) {
  const DenseBoard b = dense_board(2);
  // Reverse insertion order: candidate order keys on slot ids fixed at
  // declaration, so the output must be the same, in the same order.
  ClearanceIndex index(b.rules);
  for (const oracle::Slot& s : b.slots) index.add_slot(s.trace->width, s.net);
  for (std::uint32_t i = static_cast<std::uint32_t>(b.slots.size()); i-- > 0;) {
    index.insert(i, *b.slots[i].trace);
  }
  EXPECT_TRUE(same_violations(index.sweep(), oracle::sweep(b.slots, b.rules)));
}

TEST(ClearanceIndex, ConcurrentInsertsMatchSerial) {
  // The router inserts each member's geometry from its own task; distinct
  // slots must be safely writable from concurrent tasks.
  const DenseBoard b = dense_board(3);
  const auto reference = oracle::sweep(b.slots, b.rules);

  exec::TaskPool pool(3);
  for (int rep = 0; rep < 10; ++rep) {
    ClearanceIndex index(b.rules);
    for (const oracle::Slot& s : b.slots) index.add_slot(s.trace->width, s.net);
    exec::parallel_for_dynamic(pool, b.slots.size(), 4, [&](std::size_t i) {
      index.insert(static_cast<std::uint32_t>(i), *b.slots[i].trace);
    });
    ASSERT_TRUE(same_violations(index.sweep(), reference)) << "rep " << rep;
  }
}

TEST(ClearanceIndex, UninsertedSlotsDoNotParticipate) {
  Trace a, b;
  a.id = 1;
  a.width = 0.25;
  a.path = geom::Polyline{{{0, 0}, {20, 0}}};
  b.id = 2;
  b.width = 0.25;
  b.path = geom::Polyline{{{0, 0.9}, {20, 0.9}}};  // violating pair with a

  ClearanceIndex index(test_rules());
  index.add_slot(a.width, 0);
  index.add_slot(b.width, 1);
  index.add_slot(10.0, 2);  // declared wide trace, never inserted

  index.insert(0, a);
  EXPECT_TRUE(index.sweep().empty());  // one inserted trace: nothing to check
  index.insert(1, b);
  const auto swept = index.sweep();
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0].kind, ViolationKind::TraceGap);
  EXPECT_NEAR(swept[0].measured, 0.9, 1e-12);
}

TEST(ClearanceIndex, SweepIsRepeatable) {
  const DenseBoard b = dense_board(1);
  ClearanceIndex index(b.rules);
  declare_and_insert(index, b.slots);
  const auto first = index.sweep();
  EXPECT_TRUE(same_violations(index.sweep(), first));  // query-only: no state consumed
}

TEST(ClearanceIndex, RemoveTakesSlotOutOfTheSweep) {
  const DenseBoard b = dense_board(1);
  ClearanceIndex index(b.rules);
  declare_and_insert(index, b.slots);
  ASSERT_FALSE(index.sweep().empty());

  // Removing a slot must be equivalent to never having inserted it.
  const std::uint32_t victim = 3;
  index.remove(victim);
  EXPECT_FALSE(index.slot_inserted(victim));
  std::vector<oracle::Slot> remaining = b.slots;
  remaining[victim].trace = nullptr;
  EXPECT_TRUE(same_violations(index.sweep(), oracle::sweep(remaining, b.rules)));

  // ...and re-inserting restores the full result, in the original order.
  index.insert(victim, *b.slots[victim].trace);
  EXPECT_TRUE(same_violations(index.sweep(), oracle::sweep(b.slots, b.rules)));
}

TEST(ClearanceIndex, CachedSweepSurvivesEditStorms) {
  // Interleave moves (re-insert with shifted geometry), removes and
  // restores; after every step the incrementally re-registered grid must
  // match the oracle over the current traces.
  const DenseBoard b = dense_board(2);
  std::vector<Trace> shifted(b.slots.size());
  ClearanceIndex index(b.rules);
  declare_and_insert(index, b.slots);
  ASSERT_FALSE(index.sweep().empty());

  std::vector<oracle::Slot> current = b.slots;
  for (std::uint32_t step = 0; step < 20; ++step) {
    const auto i = static_cast<std::uint32_t>((step * 7 + 3) % b.slots.size());
    switch (step % 3) {
      case 0: {  // move: re-insert shifted geometry (kept alive in `shifted`)
        shifted[i] = *b.slots[i].trace;
        for (geom::Point& p : shifted[i].path.points()) p += {0.0, 0.35};
        index.insert(i, shifted[i]);
        current[i].trace = &shifted[i];
        break;
      }
      case 1:  // remove
        index.remove(i);
        current[i].trace = nullptr;
        break;
      default:  // restore original
        index.insert(i, *b.slots[i].trace);
        current[i].trace = b.slots[i].trace;
    }
    const auto reference = oracle::sweep(current, b.rules);
    ASSERT_TRUE(same_violations(index.sweep(), reference)) << "step " << step;
    // Back-to-back sweep with no edit: served from the violation cache.
    ASSERT_TRUE(same_violations(index.sweep(), reference)) << "step " << step << " (cached)";
  }
}

TEST(ClearanceIndex, ChurnSweepsStayIdentical) {
  // Remove / reinsert / replace-geometry sequences, checked against the
  // oracle after every mutation: the grid's incremental re-registration
  // must track the slot contents exactly.
  const DenseBoard b = dense_board(21, 2, 6);
  ClearanceIndex index(b.rules);
  declare_and_insert(index, b.slots);
  std::vector<oracle::Slot> current = b.slots;
  ASSERT_TRUE(same_violations(index.sweep(), oracle::sweep(current, b.rules))) << "initial";

  const auto n = static_cast<std::uint32_t>(b.slots.size());
  for (std::uint32_t step = 0; step < n; ++step) {
    const std::uint32_t victim = (step * 5 + 3) % n;
    index.remove(victim);
    current[victim].trace = nullptr;
    EXPECT_TRUE(same_violations(index.sweep(), oracle::sweep(current, b.rules)))
        << "after remove " << victim;

    index.insert(victim, *b.slots[victim].trace);
    current[victim].trace = b.slots[victim].trace;
    EXPECT_TRUE(same_violations(index.sweep(), oracle::sweep(current, b.rules)))
        << "after reinsert " << victim;
  }

  // Replace geometry in place: shift one trace into its neighbour's band.
  Trace shifted = *b.slots[0].trace;
  for (geom::Point& p : shifted.path.points()) p.y += 1.5;
  index.insert(0, shifted);
  current[0].trace = &shifted;
  EXPECT_TRUE(same_violations(index.sweep(), oracle::sweep(current, b.rules)))
      << "after geometry replace";
}

TEST(ClearanceIndex, SeededChurnMatchesOracle) {
  // Random churn over a dense board plus hostile traces: two crossing
  // diagonals across every band (each bbox covers more cells than SegGrid
  // registers by bbox, so they take its walk registration) and traces with
  // zero-length segments. Steps remove, reinsert and replace geometry, and
  // declare wider slots after the first sweep (as a Session does when an
  // edit adds a group: the query windows widen, the cells do not). After
  // every step the sweep, and a back-to-back cached sweep, must equal the
  // oracle over the current slot contents.
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    const DenseBoard b = dense_board(seed);
    std::deque<Trace> owned;  // stable addresses for every trace ever inserted
    const auto own = [&](std::vector<geom::Point> pts, double width) -> const Trace& {
      Trace& t = owned.emplace_back();
      t.id = static_cast<TraceId>(1000 + owned.size());
      t.width = width;
      t.path = geom::Polyline{std::move(pts)};
      return t;
    };
    std::vector<oracle::Slot> current = b.slots;
    auto net = static_cast<std::uint32_t>(current.size());
    current.push_back({&own({{0, 0}, {80, 32}}, 0.25), net++});
    current.push_back({&own({{0, 32}, {80, 1}}, 0.25), net++});
    current.push_back({&own({{10, 5}, {10, 5}, {30, 5}, {30, 5}}, 0.25), net++});
    current.push_back({&own({{55, 9}, {55, 9}}, 0.25), net++});

    ClearanceIndex index(b.rules);
    declare_and_insert(index, current);
    std::vector<oracle::Slot> original = current;  // what case 1 restores
    ASSERT_TRUE(same_violations(index.sweep(), oracle::sweep(current, b.rules)))
        << "seed " << seed << " initial";

    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> shift(-2.5, 2.5);
    for (int step = 0; step < 60; ++step) {
      const auto k = static_cast<std::uint32_t>(rng() % current.size());
      switch (rng() % 5) {
        case 0:
          index.remove(k);
          current[k].trace = nullptr;
          break;
        case 1:
          index.insert(k, *original[k].trace);
          current[k].trace = original[k].trace;
          break;
        case 2: {  // replace geometry: a shifted copy of the original
          const Trace& from = *original[k].trace;
          const geom::Vec2 d{shift(rng), shift(rng)};
          std::vector<geom::Point> pts = from.path.points();
          for (geom::Point& p : pts) p += d;
          current[k].trace = &own(std::move(pts), from.width);
          index.insert(k, *current[k].trace);
          break;
        }
        case 3: {  // a wider slot, declared after the first sweep
          const double w = 0.5 + 0.25 * static_cast<double>(rng() % 4);
          const double y = 32.0 * static_cast<double>(rng() % 1000) / 1000.0;
          const Trace& t = own({{5, y}, {40, y + 3.0}, {75, y}}, w);
          const std::uint32_t slot = index.add_slot(w, net);
          index.insert(slot, t);
          current.push_back({&t, net});
          original.push_back({&t, net++});
          break;
        }
        default:  // no edit: the next sweep is served from the cache
          break;
      }
      const auto reference = oracle::sweep(current, b.rules);
      ASSERT_TRUE(same_violations(index.sweep(), reference))
          << "seed " << seed << " step " << step;
      ASSERT_TRUE(same_violations(index.sweep(), reference))
          << "seed " << seed << " step " << step << " (cached)";
    }
  }
}

/// Oracle slots in the `Session::board_clearance` shape: groups in order,
/// members in order, one net per member; a single-ended member is one slot,
/// a pair's sub-traces two slots (positive, negative) sharing the net.
std::vector<oracle::Slot> board_slots(const Layout& layout) {
  std::vector<oracle::Slot> slots;
  std::uint32_t net = 0;
  for (const MatchGroup& g : layout.groups()) {
    for (const GroupMember& m : g.members) {
      if (m.kind == MemberKind::SingleEnded) {
        slots.push_back({&layout.trace(m.id), net});
      } else {
        const DiffPair& pair = layout.pair(m.id);
        slots.push_back({&pair.positive, net});
        slots.push_back({&pair.negative, net});
      }
      ++net;
    }
  }
  return slots;
}

TEST(ClearanceIndex, BoardShapeMatchesOracleOnEverySmokeFamily) {
  // Every smoke family's routed board, swept the way a Session sweeps its
  // whole board: once through Session::board_clearance under the family's
  // rules (routed boards are clean, so this mostly pins the empty answer),
  // and once through an index with the gap inflated by one member band,
  // which puts neighbouring members in violation and exercises the
  // violation path on real routed geometry.
  for (const scenario::Family& fam : scenario::standard_families(true)) {
    for (const scenario::FamilyCase& fc : fam.cases) {
      const std::string tag = fam.name + "/" + fc.spec.name;
      scenario::Scenario sc = scenario::materialize(fc);
      pipeline::RouterOptions opts;
      opts.extender.l_disc = 0.5;
      opts.extender.max_width_steps = 24;
      if (sc.spec.extender_tolerance > 0.0) opts.extender.tolerance = sc.spec.extender_tolerance;
      if (sc.pair_rule_set.size() > 1) opts.pair_rule_set = sc.pair_rule_set;
      pipeline::Session session(sc.rules, opts, std::move(sc.layout));
      (void)session.route();

      const std::vector<oracle::Slot> slots = board_slots(session.layout());
      EXPECT_TRUE(same_violations(session.board_clearance(),
                                  oracle::sweep(slots, sc.rules, opts.drc)))
          << tag << " family rules";

      // One member band: the generator's centerline pitch between members.
      const double band = sc.spec.band_height *
                          (sc.spec.dra_sections > 1 ? sc.spec.dra_width_factor : 1.0);
      drc::DesignRules inflated = sc.rules;
      inflated.gap += band;
      ClearanceIndex index(inflated, opts.drc);
      declare_and_insert(index, slots);
      const auto reference = oracle::sweep(slots, inflated, opts.drc);
      EXPECT_TRUE(same_violations(index.sweep(), reference)) << tag << " inflated gap";
      std::size_t nets = 0;
      for (const MatchGroup& g : session.layout().groups()) nets += g.members.size();
      if (nets > 1) {
        EXPECT_FALSE(reference.empty()) << tag << ": inflated gap must reach violations";
      }
    }
  }
}

TEST(ClearanceIndex, MoveLeavesMovedFromEmptyAndReusable) {
  const DenseBoard b = dense_board(1);
  ClearanceIndex index(b.rules);
  declare_and_insert(index, b.slots);
  const auto reference = index.sweep();  // populate grid + result caches
  ASSERT_FALSE(reference.empty());

  // Move construction transfers slots and caches wholesale.
  ClearanceIndex moved(std::move(index));
  EXPECT_TRUE(same_violations(moved.sweep(), reference));

  // The moved-from index is an empty-but-valid index: no slots, clean
  // sweep, and it can be rebuilt from scratch without touching stale cache.
  EXPECT_EQ(index.slot_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(index.sweep().empty());
  declare_and_insert(index, b.slots);
  EXPECT_TRUE(same_violations(index.sweep(), reference));

  // Move assignment, including self-refresh afterwards.
  ClearanceIndex assigned(b.rules);
  assigned = std::move(moved);
  EXPECT_TRUE(same_violations(assigned.sweep(), reference));
}

}  // namespace
}  // namespace lmr::layout
