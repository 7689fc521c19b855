#include "layout/clearance_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "clearance_oracle.hpp"
#include "exec/task_pool.hpp"
#include "pipeline/session.hpp"
#include "scenario/scenario_families.hpp"
#include "scenario/scenario_generator.hpp"

namespace lmr::layout {
namespace {

using oracle::same_violations;

/// Centerline pitch between the dense board's members.
constexpr double kBandHeight = 3.2;

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
  spec.band_height = kBandHeight;
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
  // Random multi-slot churn over a dense board plus hostile traces: two
  // crossing diagonals across every band (each bbox covers more cells than
  // SegGrid registers by bbox, so they take its walk registration) and
  // traces with zero-length segments. Between two sweeps a step mutates k
  // distinct slots, k in {1, 2, 3, half the slots, all slots}: remove,
  // restore the original, re-insert the current trace unchanged (the epoch
  // moves, the geometry does not), replace geometry, or declare a wider
  // slot (as a Session does when an edit adds a group: the query windows
  // widen, the cells do not). Each seed runs under the generation rules and
  // under the gap inflated by one member band, where neighbouring members
  // violate. After every step the sweep, and a back-to-back cached sweep,
  // must equal the oracle over the current slot contents. The tally proves
  // the steps reached the cases an incremental sweep can get wrong.
  struct Tally {
    int dirty_pairs = 0;        ///< violations between two dirty slots
    int gained = 0;             ///< a clean slot gained one against a dirty slot
    int lost = 0;               ///< ... or lost one
    int removed_violating = 0;  ///< violations of a slot removed this step
    int same_geometry = 0;      ///< re-inserts of unchanged geometry
    int wider = 0;              ///< wider slots declared after the first sweep
  } tally;
  using Key = std::tuple<TraceId, TraceId, std::size_t, std::size_t>;
  const auto key = [](const Violation& v) {
    return Key{v.trace, v.other_trace, v.index_a, v.index_b};
  };
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    for (const double inflate : {0.0, kBandHeight}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", gap +" + std::to_string(inflate));
      const DenseBoard b = dense_board(seed);
      drc::DesignRules rules = test_rules();
      rules.gap += inflate;
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

      ClearanceIndex index(rules);
      declare_and_insert(index, current);
      std::vector<oracle::Slot> original = current;  // what a restore inserts
      std::map<TraceId, std::uint32_t> slot_of;       // every trace ever inserted
      for (std::uint32_t t = 0; t < current.size(); ++t) slot_of[current[t].trace->id] = t;
      std::vector<Violation> before = oracle::sweep(current, rules);
      ASSERT_TRUE(same_violations(index.sweep(), before)) << "initial";

      std::mt19937_64 rng(seed);
      std::uniform_real_distribution<double> shift(-2.5, 2.5);
      for (int step = 0; step < 60; ++step) {
        const std::size_t n = current.size();
        const std::size_t ks[] = {1, 2, 3, n / 2, n};
        const std::size_t k = ks[rng() % 5];
        std::vector<std::uint32_t> picks(n);
        std::iota(picks.begin(), picks.end(), 0u);
        std::shuffle(picks.begin(), picks.end(), rng);
        std::vector<bool> dirty(n, false);
        std::vector<bool> removed(n, false);
        for (std::size_t m = 0; m < k; ++m) {
          const std::uint32_t t = picks[m];
          std::uint64_t kind = rng() % 5;
          if (kind == 2 && current[t].trace == nullptr) kind = 1;  // nothing to re-insert
          if (kind == 4 && current.size() >= 32) kind = 3;         // bound the oracle's cost
          switch (kind) {
            case 0:
              removed[t] = current[t].trace != nullptr;
              index.remove(t);
              current[t].trace = nullptr;
              break;
            case 1:
              index.insert(t, *original[t].trace);
              current[t].trace = original[t].trace;
              break;
            case 2:
              index.insert(t, *current[t].trace);
              ++tally.same_geometry;
              break;
            case 3: {  // replace geometry: a shifted copy of the original
              const Trace& from = *original[t].trace;
              const geom::Vec2 d{shift(rng), shift(rng)};
              std::vector<geom::Point> pts = from.path.points();
              for (geom::Point& p : pts) p += d;
              current[t].trace = &own(std::move(pts), from.width);
              slot_of[current[t].trace->id] = t;
              index.insert(t, *current[t].trace);
              break;
            }
            default: {  // a wider slot; slot t stays as it is
              const double w = 0.5 + 0.25 * static_cast<double>(rng() % 4);
              const double y = 32.0 * static_cast<double>(rng() % 1000) / 1000.0;
              const Trace& tr = own({{5, y}, {40, y + 3.0}, {75, y}}, w);
              const std::uint32_t slot = index.add_slot(w, net);
              index.insert(slot, tr);
              slot_of[tr.id] = slot;
              current.push_back({&tr, net});
              original.push_back({&tr, net++});
              dirty.push_back(true);
              removed.push_back(false);
              ++tally.wider;
              continue;
            }
          }
          dirty[t] = true;
        }
        const std::vector<Violation> after = oracle::sweep(current, rules);
        ASSERT_TRUE(same_violations(index.sweep(), after)) << "step " << step << ", k " << k;
        ASSERT_TRUE(same_violations(index.sweep(), after))
            << "step " << step << ", k " << k << " (cached)";

        std::set<Key> before_keys, after_keys;
        for (const Violation& v : before) before_keys.insert(key(v));
        for (const Violation& v : after) after_keys.insert(key(v));
        const auto dirty_slots = [&](const Violation& v) {
          return (dirty[slot_of.at(v.trace)] ? 1 : 0) + (dirty[slot_of.at(v.other_trace)] ? 1 : 0);
        };
        for (const Violation& v : after) {
          tally.dirty_pairs += dirty_slots(v) == 2 ? 1 : 0;
          tally.gained += dirty_slots(v) == 1 && !before_keys.contains(key(v)) ? 1 : 0;
        }
        for (const Violation& v : before) {
          tally.lost += dirty_slots(v) == 1 && !after_keys.contains(key(v)) ? 1 : 0;
          tally.removed_violating +=
              removed[slot_of.at(v.trace)] || removed[slot_of.at(v.other_trace)] ? 1 : 0;
        }
        before = after;
      }
    }
  }
  EXPECT_GT(tally.dirty_pairs, 0);
  EXPECT_GT(tally.gained, 0);
  EXPECT_GT(tally.lost, 0);
  EXPECT_GT(tally.removed_violating, 0);
  EXPECT_GT(tally.same_geometry, 0);
  EXPECT_GT(tally.wider, 0);
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

TEST(ClearanceIndex, OverLongAndNonFiniteSegmentsAreSwept) {
  // A segment running out to 1e20 (or 1e30, 1e300, +inf) once landed in no
  // grid cell: its cell coordinate and its walk's step count overflowed
  // their integer casts. The sweep then missed its violation against a
  // neighbour 0.3 away that the brute force finds.
  drc::DesignRules rules;
  rules.gap = 1.0;
  rules.trace_width = 0.0;
  for (const double far : {1e20, 1e30, 1e300, std::numeric_limits<double>::infinity()}) {
    Trace a;
    a.id = 1;
    a.width = 0.0;
    a.path = geom::Polyline{{{0.0, 0.0}, {10.0, 0.0}, {far, 0.0}}};
    Trace b;
    b.id = 2;
    b.width = 0.0;
    b.path = geom::Polyline{{{0.0, 0.3}, {10.0, 0.3}}};
    const std::vector<oracle::Slot> slots{{&a, 0}, {&b, 1}};
    const auto reference = oracle::sweep(slots, rules);
    ASSERT_EQ(reference.size(), 2u) << "far end " << far;
    ClearanceIndex index(rules);
    declare_and_insert(index, slots);
    EXPECT_TRUE(same_violations(index.sweep(), reference)) << "far end " << far;
  }
}

}  // namespace
}  // namespace lmr::layout
