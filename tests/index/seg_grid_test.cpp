#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "index/seg_grid.hpp"

/// The SegGrid contract layout::ClearanceIndex and the scenario
/// generator's placement scan depend on: a window query visits a
/// conservative *superset* of the entries intersecting the window (never a
/// miss), each entry at most once per query, with removals forgotten and
/// `visit_above` filtering exactly by payload floor. The superset check runs
/// against an exact brute-force segment/box intersection over randomized
/// mixed workloads — short legs, long diagonals (cell-walk registration),
/// degenerate points, axis-aligned runs — on both sides of the build the
/// first query runs, and on hostile geometry (NaN, ±inf, 1e300, segments
/// far outside the built extent).

namespace lmr::index {
namespace {

using geom::Box;
using geom::Point;
using geom::Segment;

/// Exact closed-segment vs closed-box intersection (Liang-Barsky clip).
bool seg_intersects_box(const Segment& s, const Box& box) {
  double t0 = 0.0, t1 = 1.0;
  const double dx = s.b.x - s.a.x, dy = s.b.y - s.a.y;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {s.a.x - box.lo.x, box.hi.x - s.a.x, s.a.y - box.lo.y,
                       box.hi.y - s.a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0.0) {
      if (q[i] < 0.0) return false;
    } else {
      const double r = q[i] / p[i];
      if (p[i] < 0.0) {
        t0 = std::max(t0, r);
      } else {
        t1 = std::min(t1, r);
      }
    }
  }
  return t0 <= t1;
}

/// A mixed bag of segments: short legs, degenerate points, long diagonals
/// and long axis-aligned runs (both registration strategies exercised).
std::vector<Segment> mixed_segments(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::uniform_real_distribution<double> leg(-3.0, 3.0);
  std::vector<Segment> segs;
  segs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point a{u(rng), u(rng)};
    switch (i % 4) {
      case 0:  // short leg, the common meander-scale case
        segs.push_back({a, {a.x + leg(rng), a.y + leg(rng)}});
        break;
      case 1:  // degenerate point (via centroids in the generator)
        segs.push_back({a, a});
        break;
      case 2:  // long diagonal: forces the sampled cell walk
        segs.push_back({a, {a.x + u(rng), a.y + u(rng)}});
        break;
      default:  // long axis-aligned run (straight corridor trace)
        segs.push_back({a, {a.x + u(rng), a.y}});
        break;
    }
  }
  return segs;
}

TEST(SegGrid, WindowQueryIsSupersetOfExactIntersections) {
  std::mt19937_64 rng(42);
  const std::vector<Segment> segs = mixed_segments(rng, 200);
  SegGrid grid(2.5);
  SegGrid::Scratch scratch;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    grid.insert(segs[i], i);
  }
  ASSERT_EQ(grid.size(), segs.size());

  std::uniform_real_distribution<double> u(0.0, 100.0);
  std::uniform_real_distribution<double> w(0.1, 15.0);
  for (int q = 0; q < 300; ++q) {
    const Point lo{u(rng), u(rng)};
    const Box box{lo, {lo.x + w(rng), lo.y + w(rng)}};
    std::vector<bool> seen(segs.size(), false);
    grid.visit(box, scratch, [&](const SegGrid::Entry& e) {
      EXPECT_FALSE(seen[e.payload]) << "entry reported twice in one query";
      seen[e.payload] = true;
      return true;
    });
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (seg_intersects_box(segs[i], box)) {
        EXPECT_TRUE(seen[i]) << "query " << q << " missed intersecting segment " << i;
      }
    }
  }
}

TEST(SegGrid, LongDiagonalNeverMissedAlongItsRun) {
  // A diagonal hundreds of cells long: every small window centered on a
  // point of the segment must report it (the sampled walk's 3x3
  // neighborhoods must cover the true geometry).
  SegGrid grid(1.0);
  SegGrid::Scratch scratch;
  const Segment diag{{0.0, 0.0}, {400.0, 173.0}};
  grid.insert(diag, 7);
  for (int k = 0; k <= 1000; ++k) {
    const double t = static_cast<double>(k) / 1000.0;
    const Point p = diag.at(t);
    bool found = false;
    grid.visit(Box{p, p}.inflated(0.25), scratch, [&](const SegGrid::Entry& e) {
      found = e.payload == 7;
      return !found;
    });
    EXPECT_TRUE(found) << "missed at t=" << t;
  }
}

TEST(SegGrid, RemoveForgetsAndIdsRecycle) {
  SegGrid grid(2.0);
  SegGrid::Scratch scratch;
  const std::uint32_t a = grid.insert({{0, 0}, {5, 0}}, 1);
  const std::uint32_t b = grid.insert({{0, 3}, {5, 3}}, 2);
  EXPECT_EQ(grid.size(), 2u);
  grid.remove(a);
  EXPECT_EQ(grid.size(), 1u);

  std::size_t hits = 0;
  grid.visit(Box{{-1, -1}, {6, 4}}, scratch, [&](const SegGrid::Entry& e) {
    EXPECT_EQ(e.payload, 2u);
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 1u);

  // The freed id is recycled and the new geometry is immediately queryable.
  const std::uint32_t c = grid.insert({{10, 10}, {12, 10}}, 3);
  EXPECT_EQ(c, a);
  bool found = false;
  grid.visit(Box{{9, 9}, {13, 11}}, scratch, [&](const SegGrid::Entry& e) {
    found = found || e.payload == 3;
    return true;
  });
  EXPECT_TRUE(found);
  (void)b;
}

TEST(SegGrid, VisitAboveFiltersByPayloadFloor) {
  // The sweep's pair-dedup depends on visit_above((t+1) << 32) skipping
  // every lower-slot entry, including after removals leave a cell's cached
  // max payload stale-high (prune-only metadata).
  SegGrid grid(2.0);
  SegGrid::Scratch scratch;
  std::vector<std::uint32_t> ids;
  for (std::uint64_t p = 0; p < 8; ++p) {
    ids.push_back(grid.insert({{0.0, 0.5 * static_cast<double>(p)}, {4.0, 0.5 * static_cast<double>(p)}}, p));
  }
  const Box all{{-1, -1}, {5, 5}};

  std::vector<std::uint64_t> seen;
  grid.visit_above(all, 5, scratch, [&](const SegGrid::Entry& e) {
    seen.push_back(e.payload);
    return true;
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{5, 6, 7}));

  // Remove the max-payload entry: the stale cell max must not resurrect it.
  grid.remove(ids[7]);
  seen.clear();
  grid.visit_above(all, 5, scratch, [&](const SegGrid::Entry& e) {
    seen.push_back(e.payload);
    return true;
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{5, 6}));
}

TEST(SegGrid, EarlyStopAndReset) {
  SegGrid grid(1.0);
  SegGrid::Scratch scratch;
  for (int i = 0; i < 10; ++i) {
    grid.insert({{static_cast<double>(i), 0.0}, {static_cast<double>(i) + 0.5, 0.0}},
                static_cast<std::uint64_t>(i));
  }
  std::size_t visits = 0;
  grid.visit(Box{{-1, -1}, {11, 1}}, scratch, [&](const SegGrid::Entry&) {
    ++visits;
    return false;  // stop after the first
  });
  EXPECT_EQ(visits, 1u);

  grid.reset(3.0);
  EXPECT_TRUE(grid.empty());
  EXPECT_EQ(grid.cell(), 3.0);
  visits = 0;
  grid.visit(Box{{-10, -10}, {20, 20}}, scratch, [&](const SegGrid::Entry&) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0u);
}

TEST(SegGrid, ChurnKeepsSupersetGuarantee) {
  // Interleaved insert/remove churn with brute-force mirrors: the grid must
  // stay exact-superset through id recycling and extent growth.
  std::mt19937_64 rng(7);
  SegGrid grid(2.0);
  SegGrid::Scratch scratch;
  struct LiveSeg {
    std::uint32_t id;
    Segment seg;
    std::uint64_t payload;
  };
  std::vector<LiveSeg> live;
  std::uniform_real_distribution<double> u(0.0, 60.0);
  std::uint64_t next_payload = 0;
  for (int step = 0; step < 500; ++step) {
    const bool remove = !live.empty() && (rng() % 3 == 0);
    if (remove) {
      const std::size_t k = rng() % live.size();
      grid.remove(live[k].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const Point a{u(rng), u(rng)};
      const Segment s{a, {a.x + u(rng) * 0.2, a.y + u(rng) * 0.2}};
      live.push_back({grid.insert(s, next_payload), s, next_payload});
      ++next_payload;
    }
    ASSERT_EQ(grid.size(), live.size());
    if (step % 25 != 0) continue;
    const Point lo{u(rng), u(rng)};
    const Box box{lo, {lo.x + 10.0, lo.y + 10.0}};
    std::vector<std::uint64_t> reported;
    grid.visit(box, scratch, [&](const SegGrid::Entry& e) {
      reported.push_back(e.payload);
      return true;
    });
    std::sort(reported.begin(), reported.end());
    for (const LiveSeg& ls : live) {
      if (!seg_intersects_box(ls.seg, box)) continue;
      EXPECT_TRUE(std::binary_search(reported.begin(), reported.end(), ls.payload))
          << "step " << step << " missed live segment payload " << ls.payload;
    }
    // Nothing dead may be reported.
    for (const std::uint64_t p : reported) {
      EXPECT_TRUE(std::any_of(live.begin(), live.end(),
                              [&](const LiveSeg& ls) { return ls.payload == p; }))
          << "step " << step << " reported removed payload " << p;
    }
  }
}

/// Every payload `grid.visit(box)` reports, failing the test on a repeat.
std::vector<std::uint64_t> reported(const SegGrid& grid, const Box& box,
                                    std::uint64_t floor = 0) {
  std::vector<std::uint64_t> out;
  SegGrid::Scratch scratch;
  grid.visit_above(box, floor, scratch, [&](const SegGrid::Entry& e) {
    out.push_back(e.payload);
    return true;
  });
  std::sort(out.begin(), out.end());
  EXPECT_TRUE(std::adjacent_find(out.begin(), out.end()) == out.end())
      << "an entry was reported twice in one query";
  return out;
}

bool has(const std::vector<std::uint64_t>& sorted, std::uint64_t p) {
  return std::binary_search(sorted.begin(), sorted.end(), p);
}

TEST(SegGrid, HostileEndpointsAreNeverMissed) {
  // Segments with a NaN, ±inf or 1e300 endpoint, before and after the
  // build: a cell-coordinate cast of such a value is undefined behaviour,
  // and a segment that lands in no cell is silently missed. Each must be
  // reported by a window around its finite end.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Segment> hostile{
      {{5, 5}, {nan, 5}},  {{5, 5}, {5, nan}},   {{5, 5}, {inf, 5}},  {{5, 5}, {-inf, 5}},
      {{5, 5}, {5, inf}},  {{5, 5}, {inf, inf}}, {{5, 5}, {1e300, 5}}, {{5, 5}, {-1e300, -1e300}},
      {{5, 5}, {1e20, 5}}, {{5, 5}, {5, -1e30}}};
  for (const bool before_build : {true, false}) {
    SegGrid grid(1.0);
    grid.insert({{0, 0}, {10, 10}}, 1000);  // an ordinary entry sets the extent
    if (!before_build) (void)reported(grid, Box{{0, 0}, {1, 1}});
    for (std::size_t i = 0; i < hostile.size(); ++i) grid.insert(hostile[i], i);
    const std::vector<std::uint64_t> near = reported(grid, Box{{4.9, 4.9}, {5.1, 5.1}});
    for (std::size_t i = 0; i < hostile.size(); ++i) {
      EXPECT_TRUE(has(near, i)) << "segment " << i << (before_build ? " before" : " after")
                                << " the build";
    }
    EXPECT_TRUE(has(near, 1000));
    // Hostile windows are defined behaviour too, and a whole-plane window
    // reports every entry.
    (void)reported(grid, Box{{nan, nan}, {nan, nan}});
    const std::vector<std::uint64_t> all = reported(grid, Box{{-inf, -inf}, {inf, inf}});
    EXPECT_EQ(all.size(), hostile.size() + 1);
  }
}

TEST(SegGrid, SegmentLongerThanTheWalkCapIsKept) {
  // After the build the grid only walks segments that fit its rows and
  // columns; a diagonal a million cells long goes on the always-visited
  // list, and one that leaves the extent but still fits is walked through
  // the clamped border cells. Both must be found along their whole run.
  SegGrid grid(1.0);
  grid.insert({{0, 0}, {20, 0}}, 0);
  grid.insert({{0, 20}, {20, 20}}, 1);
  (void)reported(grid, Box{{0, 0}, {1, 1}});
  const Segment huge{{-3, -2}, {1e6, 7e5}};
  const Segment outside{{-30, 5}, {50, 45}};
  grid.insert(huge, 2);
  grid.insert(outside, 3);
  for (const auto& [seg, payload] : {std::pair{huge, 2u}, std::pair{outside, 3u}}) {
    for (int k = 0; k <= 400; ++k) {
      const Point p = seg.at(static_cast<double>(k) / 400.0);
      EXPECT_TRUE(has(reported(grid, Box{p, p}.inflated(0.01)), payload))
          << "payload " << payload << " missed at step " << k;
    }
  }
}

TEST(SegGrid, InsertsOutsideTheBuiltExtentLandInBorderCells) {
  SegGrid grid(1.0);
  for (int i = 0; i < 10; ++i) {
    const double x = static_cast<double>(i);
    grid.insert({{x, x}, {x + 0.5, x}}, static_cast<std::uint64_t>(i));
  }
  (void)reported(grid, Box{{0, 0}, {1, 1}});  // builds over [0, 9.5] x [0, 9]
  const std::vector<Segment> far{{{-40, 3}, {-39, 3}},   {{3, 80}, {3.5, 81}},
                                 {{200, -200}, {201, -199}}, {{-5, -5}, {-5, -5}},
                                 {{12, 4}, {30, 4}}};
  for (std::size_t i = 0; i < far.size(); ++i) grid.insert(far[i], 100 + i);
  for (std::size_t i = 0; i < far.size(); ++i) {
    const Point mid = far[i].at(0.5);
    EXPECT_TRUE(has(reported(grid, Box{mid, mid}.inflated(0.1)), 100 + i)) << "far " << i;
  }
  // A window over every cell reports each entry once (`reported` checks).
  EXPECT_EQ(reported(grid, Box{{-1e9, -1e9}, {1e9, 1e9}}).size(), 10 + far.size());
}

TEST(SegGrid, ChurnAcrossTheBuildKeepsTheContract) {
  // Seeded churn checked against a brute-force mirror after every step:
  // inserts before and after the first query, removals of entries that sit
  // in the built CSR slices, of entries an edit placed and of entries on
  // the always-visited list, id recycling, inserts far outside the built
  // extent or too long to walk, and a grid whose cells the build
  // coarsened (sparse entries over a wide area) or kept at the requested
  // size (dense entries).
  for (const bool sparse : {false, true}) {
    std::mt19937_64 rng(sparse ? 11 : 5);
    const double span = sparse ? 4000.0 : 12.0;
    std::uniform_real_distribution<double> u(0.0, span);
    std::uniform_real_distribution<double> leg(-4.0, 4.0);
    SegGrid grid(2.0);
    struct LiveSeg {
      std::uint32_t id;
      Segment seg;
      std::uint64_t payload;
    };
    std::vector<LiveSeg> live;
    std::vector<std::uint64_t> dead;
    std::uint64_t next_payload = 0;
    bool built = false;
    const double inf = std::numeric_limits<double>::infinity();
    const auto random_segment = [&]() -> Segment {
      const Point a{u(rng), u(rng)};
      switch (rng() % 8) {
        case 0:
          return {a, a};
        case 1:  // long diagonal
          return {a, {a.x + 0.5 * u(rng), a.y + 0.5 * u(rng)}};
        case 2:  // beyond the build-time extent
          return built ? Segment{{a.x + 2.0 * span, a.y - 3.0 * span}, {a.x + 2.0 * span, a.y}}
                       : Segment{a, {a.x + leg(rng), a.y}};
        case 3:  // never gridded: always visited
          return {a, {rng() % 2 == 0 ? inf : 1e300, a.y}};
        case 4:  // longer than the built grid's walk
          return built ? Segment{a, {a.x + 1e7 * span, a.y + 1e7 * span}}
                       : Segment{a, {a.x, a.y + leg(rng)}};
        default:
          return {a, {a.x + leg(rng), a.y + leg(rng)}};
      }
    };
    for (int step = 0; step < 600; ++step) {
      const bool remove = !live.empty() && rng() % 3 == 0;
      if (remove) {
        const std::size_t k = rng() % live.size();
        grid.remove(live[k].id);
        dead.push_back(live[k].payload);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        const Segment s = random_segment();
        const std::uint32_t id = grid.insert(s, next_payload);
        for (const LiveSeg& ls : live) ASSERT_NE(ls.id, id) << "a live id was handed out";
        live.push_back({id, s, next_payload++});
      }
      ASSERT_EQ(grid.size(), live.size());
      // No query for the first 150 steps: those inserts and removals all
      // happen before the build.
      if (step < 150) continue;
      built = true;
      const Point lo{u(rng), u(rng)};
      const Box windows[] = {Box{lo, {lo.x + 0.1 * span, lo.y + 0.1 * span}},
                             live.empty() ? Box{lo, lo} : live[rng() % live.size()].seg.bbox()};
      const std::uint64_t floor = rng() % 2 == 0 ? 0 : next_payload / 2;
      for (const Box& box : windows) {
        const std::vector<std::uint64_t> got = reported(grid, box, floor);
        for (const LiveSeg& ls : live) {
          if (ls.payload < floor) {
            EXPECT_FALSE(has(got, ls.payload)) << "step " << step << " below the floor";
          } else if (seg_intersects_box(ls.seg, box)) {
            EXPECT_TRUE(has(got, ls.payload))
                << "step " << step << " missed live payload " << ls.payload;
          }
        }
        for (const std::uint64_t p : dead) {
          EXPECT_FALSE(has(got, p)) << "step " << step << " reported removed payload " << p;
        }
      }
    }
    if (sparse) {
      EXPECT_GT(grid.cell(), 2.0) << "the sparse grid's build must coarsen its cells";
    } else {
      EXPECT_EQ(grid.cell(), 2.0);
    }
  }
}

TEST(SegGrid, ConcurrentQueriesOnABuiltGridMatchSerial) {
  // A built grid keeps no query state: each thread brings its own Scratch.
  // Four threads query one grid with the same seeded windows, payload
  // floors included, and each must get the serial run's answers. The grid
  // is edited after its build first, so the threads also read edited cell
  // lists and the always-visited list.
  std::mt19937_64 rng(2026);
  const std::vector<Segment> segs = mixed_segments(rng, 400);
  SegGrid grid(2.5);
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < 300; ++i) ids.push_back(grid.insert(segs[i], i));
  (void)reported(grid, Box{{0, 0}, {1, 1}});  // builds the grid
  for (std::size_t i = 300; i < segs.size(); ++i) grid.insert(segs[i], i);
  for (std::size_t i = 0; i < 300; i += 7) grid.remove(ids[i]);
  grid.insert({{-50, -50}, {-49, 260}}, 1000);
  grid.insert({{5, 5}, {std::numeric_limits<double>::infinity(), 5}}, 1001);

  std::uniform_real_distribution<double> u(-20.0, 120.0);
  std::uniform_real_distribution<double> w(0.1, 20.0);
  std::vector<std::pair<Box, std::uint64_t>> queries;
  for (int q = 0; q < 400; ++q) {
    const Point lo{u(rng), u(rng)};
    queries.emplace_back(Box{lo, {lo.x + w(rng), lo.y + w(rng)}}, q % 3 == 0 ? 250 : 0);
  }
  const auto answers = [&](SegGrid::Scratch& scratch) {
    std::vector<std::vector<std::uint64_t>> out;
    for (const auto& [box, floor] : queries) {
      std::vector<std::uint64_t>& got = out.emplace_back();
      grid.visit_above(box, floor, scratch, [&](const SegGrid::Entry& e) {
        got.push_back(e.payload);
        return true;
      });
      std::sort(got.begin(), got.end());
    }
    return out;
  };
  SegGrid::Scratch serial_scratch;
  const std::vector<std::vector<std::uint64_t>> serial = answers(serial_scratch);

  std::vector<std::vector<std::vector<std::uint64_t>>> per_thread(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    threads.emplace_back([&, t] {
      SegGrid::Scratch scratch;
      per_thread[t] = answers(scratch);
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    EXPECT_EQ(per_thread[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace lmr::index
