#include "core/segment_dp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <tuple>

namespace lmr::core {
namespace {

/// Brute-force reference: run_segment_dp as it was before the Eq. 8
/// predecessor was hoisted out of the width loop, kept verbatim. It picks
/// the predecessor again for every (i, d, width).
namespace reference {

constexpr double kTieEps = 1e-12;

struct Transit {
  int pi = -1;
  int pdir = 0;
  int w = 0;
  double h = 0.0;
  bool connected = false;
};

struct State {
  double gain = 0.0;
  bool through_pattern = false;
  Transit tr;
};

int dir_of(int d) { return d == 0 ? 1 : -1; }

DpResult run_segment_dp(const DpParams& params, const HeightFn& height) {
  DpResult result;
  const int n = params.n;
  if (n < 2) return result;
  const int g = std::max(1, params.gap_steps);
  const int p = std::max(1, params.protect_steps);

  std::vector<std::array<State, 2>> dp(static_cast<std::size_t>(n));
  for (int d = 0; d < 2; ++d) {
    dp[0][d].gain = 0.0;
    dp[0][d].tr = Transit{};
  }

  const auto right_node_ok = [&](int i) { return i == n - 1 || (n - 1 - i) >= p; };
  const auto left_node_ok = [&](int j) { return j == 0 || j >= p; };

  for (int i = 1; i < n; ++i) {
    for (int d = 0; d < 2; ++d) {
      State s = dp[i - 1][d];
      s.through_pattern = false;
      s.tr = Transit{i - 1, d, 0, 0.0, false};
      if (i - 1 == 0) s.tr.pi = -1;
      dp[i][d] = s;
    }
    if (!right_node_ok(i)) continue;

    const int min_w = std::max(g, p);
    const int max_w = params.max_width_steps > 0 ? std::min(params.max_width_steps, i) : i;
    for (int d = 0; d < 2; ++d) {
      const int od = 1 - d;
      for (int w = min_w; w <= max_w; ++w) {
        const int j = i - w;
        if (!left_node_ok(j)) continue;

        double best_pred = -1.0;
        int best_pi = -1, best_pdir = d;
        bool best_connected = false;
        const auto consider = [&](double gain, int pi, int pdir, bool connected) {
          if (gain > best_pred + kTieEps ||
              (gain > best_pred - kTieEps && connected && !best_connected)) {
            best_pred = gain;
            best_pi = pi;
            best_pdir = pdir;
            best_connected = connected;
          }
        };
        if (j - g >= 0) consider(dp[j - g][d].gain, j - g, d, false);
        if (j - p >= 0) consider(dp[j - p][od].gain, j - p, od, false);
        if (dp[j][od].through_pattern) consider(dp[j][od].gain, j, od, true);
        if (j == 0) consider(0.0, -1, d, false);
        if (best_pred < 0.0) continue;

        double h_request =
            height_for_gain(std::max(0.0, params.needed_gain - best_pred),
                            params.style, params.miter);
        if (h_request < params.min_height) {
          if (params.needed_gain - best_pred <= 0.0) continue;
          h_request = params.min_height;
        }
        const double h = height(j, i, dir_of(d), h_request);
        if (h < params.min_height) continue;
        const double gain = pattern_gain(h, params.style, params.miter);
        if (gain <= 0.0) continue;

        const double total = best_pred + gain;
        State& cur = dp[i][d];
        const bool better = total > cur.gain + kTieEps;
        const bool tie_preferred = total > cur.gain - kTieEps && !cur.through_pattern;
        if (better || tie_preferred) {
          cur.gain = total;
          cur.through_pattern = true;
          cur.tr = Transit{best_pi, best_pdir, w, h, best_connected};
        }
      }
    }
  }

  const int best_d = dp[n - 1][0].gain >= dp[n - 1][1].gain ? 0 : 1;
  result.gain = dp[n - 1][best_d].gain;
  if (result.gain <= 0.0) return result;

  int i = n - 1, d = best_d;
  while (i > 0) {
    const Transit& tr = dp[i][d].tr;
    if (tr.w > 0) {
      result.patterns.push_back(Pattern{i - tr.w, i, tr.h, dir_of(d)});
      if (tr.pi < 0) break;
      i = tr.pi;
      d = tr.pdir;
    } else {
      if (tr.pi < 0) break;
      i = tr.pi;
      d = tr.pdir;
    }
  }
  std::reverse(result.patterns.begin(), result.patterns.end());
  return result;
}

}  // namespace reference

DpParams base_params(int n) {
  DpParams p;
  p.n = n;
  p.step = 1.0;
  p.gap_steps = 2;
  p.protect_steps = 1;
  p.min_height = 1.0;
  p.needed_gain = 1e9;
  return p;
}

HeightFn flat(double h) {
  return [h](int, int, int, double req) { return std::min(h, req); };
}

/// Check the spacing legality of a restored chain against the DP rules.
void expect_chain_legal(const std::vector<Pattern>& chain, const DpParams& p) {
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const Pattern& c = chain[k];
    EXPECT_LT(c.foot_lo, c.foot_hi);
    EXPECT_GE(c.foot_lo, 0);
    EXPECT_LE(c.foot_hi, p.n - 1);
    EXPECT_GE(c.height, p.min_height - 1e-12);
    // Width >= max(gap, protect).
    EXPECT_GE(c.width_steps(), std::max(p.gap_steps, p.protect_steps));
    // Feet vs segment nodes (protect or node-connect).
    EXPECT_TRUE(c.foot_lo == 0 || c.foot_lo >= p.protect_steps);
    EXPECT_TRUE(c.foot_hi == p.n - 1 || (p.n - 1 - c.foot_hi) >= p.protect_steps);
    if (k > 0) {
      const Pattern& prev = chain[k - 1];
      const int spacing = c.foot_lo - prev.foot_hi;
      EXPECT_GE(spacing, 0);
      if (prev.dir == c.dir) {
        EXPECT_GE(spacing, p.gap_steps);
      } else {
        EXPECT_TRUE(spacing == 0 || spacing >= p.protect_steps)
            << "opposite-direction spacing " << spacing;
      }
    }
  }
}

TEST(SegmentDp, EmptySegmentNoGain) {
  const DpResult r = run_segment_dp(base_params(1), flat(5.0));
  EXPECT_DOUBLE_EQ(r.gain, 0.0);
  EXPECT_TRUE(r.patterns.empty());
}

TEST(SegmentDp, BlockedEverywhereNoGain) {
  const DpResult r = run_segment_dp(base_params(20), flat(0.0));
  EXPECT_DOUBLE_EQ(r.gain, 0.0);
}

TEST(SegmentDp, SinglePatternWhenOnlyRoomForOne) {
  // n = 5 with gap 2, protect 1: one pattern of width >= 2 fits.
  const DpResult r = run_segment_dp(base_params(5), flat(4.0));
  EXPECT_GT(r.gain, 0.0);
  expect_chain_legal(r.patterns, base_params(5));
}

TEST(SegmentDp, FillsLongSegment) {
  const DpParams p = base_params(41);
  const DpResult r = run_segment_dp(p, flat(5.0));
  EXPECT_GT(r.patterns.size(), 3u);
  expect_chain_legal(r.patterns, p);
  double total = 0.0;
  for (const Pattern& pat : r.patterns) total += 2.0 * pat.height;
  EXPECT_NEAR(total, r.gain, 1e-9);
}

TEST(SegmentDp, GainBoundedByNeed) {
  DpParams p = base_params(41);
  p.needed_gain = 7.0;
  const DpResult r = run_segment_dp(p, flat(10.0));
  // The DP caps pattern heights at the remaining requirement; small
  // overshoot from min-height quantization is allowed.
  EXPECT_LE(r.gain, 7.0 + 2.0 * p.min_height);
  EXPECT_GE(r.gain, 7.0 - 1e-9);
}

TEST(SegmentDp, RespectsProtectAtRightNode) {
  DpParams p = base_params(10);
  p.protect_steps = 3;
  const DpResult r = run_segment_dp(p, flat(4.0));
  expect_chain_legal(r.patterns, p);
}

TEST(SegmentDp, HeightVariationPrefersTallSpot) {
  // Height 1.0 everywhere except a tall window [10, 15] where 6.0 fits:
  // the best chain must exploit the window.
  DpParams p = base_params(21);
  const HeightFn h = [](int j, int i, int, double req) {
    const bool tall = j >= 10 && i <= 15;
    return std::min(req, tall ? 6.0 : 1.0);
  };
  const DpResult r = run_segment_dp(p, h);
  bool uses_window = false;
  for (const Pattern& pat : r.patterns) {
    if (pat.foot_lo >= 10 && pat.foot_hi <= 15 && pat.height > 5.0) uses_window = true;
  }
  EXPECT_TRUE(uses_window);
  expect_chain_legal(r.patterns, p);
}

TEST(SegmentDp, OppositeDirectionsUsedWhenOneSideBlocked) {
  // +1 side blocked on the left half, -1 side blocked on the right half.
  DpParams p = base_params(31);
  const HeightFn h = [](int j, int i, int dir, double req) {
    const bool left = i <= 15;
    if (left && dir > 0) return 0.0;
    if (!left && dir < 0 && j >= 15) return 0.0;
    return std::min(req, 3.0);
  };
  const DpResult r = run_segment_dp(p, h);
  bool has_up = false, has_down = false;
  for (const Pattern& pat : r.patterns) {
    (pat.dir > 0 ? has_up : has_down) = true;
  }
  EXPECT_TRUE(has_up);
  EXPECT_TRUE(has_down);
  expect_chain_legal(r.patterns, p);
}

TEST(SegmentDp, ConnectedPatternsWhenProtectTooTight) {
  // protect_steps so large that separated opposite patterns cannot fit, but
  // connected ones can (shared foot, spacing 0).
  DpParams p = base_params(13);
  p.gap_steps = 4;
  p.protect_steps = 4;
  // Only opposite-direction patterns of width 4 starting at 0/4/8 fit in 13
  // points (0..12) if connected: feet (0,4),(4,8),(8,12).
  const DpResult r = run_segment_dp(p, flat(3.0));
  expect_chain_legal(r.patterns, p);
  EXPECT_GE(r.patterns.size(), 2u);
  bool any_connected = false;
  for (std::size_t k = 1; k < r.patterns.size(); ++k) {
    if (r.patterns[k].foot_lo == r.patterns[k - 1].foot_hi) any_connected = true;
  }
  EXPECT_TRUE(any_connected);
}

TEST(SegmentDp, WidthCapHonored) {
  DpParams p = base_params(41);
  p.max_width_steps = 3;
  const DpResult r = run_segment_dp(p, flat(5.0));
  for (const Pattern& pat : r.patterns) EXPECT_LE(pat.width_steps(), 3);
}

TEST(SegmentDp, CombinesTallWindowWithConnectedFlanks) {
  // A wide tall window (gain 13) flanked by narrow up-side windows (gain 4
  // each). Greedy same-side packing reaches 12; the optimum takes the tall
  // pattern on the *opposite* side, connecting to a narrow pattern at each
  // shared foot (Fig. 3c / Fig. 5 behaviour): 4 + 13 + 4 = 21.
  DpParams p = base_params(13);
  p.gap_steps = 2;
  p.protect_steps = 2;
  const HeightFn h = [](int j, int i, int dir, double req) {
    if (j == 2 && i == 10) return std::min(req, 6.5);          // tall wide pattern
    if (i - j <= 3 && dir > 0) return std::min(req, 2.0);      // narrow fallbacks
    return 0.0;
  };
  const DpResult r = run_segment_dp(p, h);
  EXPECT_NEAR(r.gain, 21.0, 1e-9);
  ASSERT_EQ(r.patterns.size(), 3u);
  EXPECT_EQ(r.patterns[1].foot_lo, 2);
  EXPECT_EQ(r.patterns[1].foot_hi, 10);
  EXPECT_EQ(r.patterns[0].foot_hi, r.patterns[1].foot_lo);  // connected
  EXPECT_EQ(r.patterns[2].foot_lo, r.patterns[1].foot_hi);  // connected
  EXPECT_NE(r.patterns[0].dir, r.patterns[1].dir);
  expect_chain_legal(r.patterns, p);
}

TEST(SegmentDp, MiteredGainAccounting) {
  DpParams p = base_params(9);
  p.style = PatternStyle::Mitered;
  p.miter = 0.4;
  const DpResult r = run_segment_dp(p, flat(3.0));
  ASSERT_FALSE(r.patterns.empty());
  double total = 0.0;
  for (const Pattern& pat : r.patterns) {
    total += pattern_gain(pat.height, PatternStyle::Mitered, 0.4);
  }
  EXPECT_NEAR(total, r.gain, 1e-9);
}

/// One height query as the DP issued it; h_request kept as bits.
using Query = std::tuple<int, int, int, std::uint64_t>;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Seeded height callback of one of several kinds, a pure function of
/// (j, i, dir, h_request) so both DPs see the same answers for the same
/// questions. Heights come from a small grid so equal gains (ties) are
/// common.
HeightFn seeded_heights(int kind, std::uint64_t seed, double min_height,
                        std::vector<Query>* log) {
  return [=](int j, int i, int dir, double req) {
    log->emplace_back(j, i, dir, bits(req));
    std::uint64_t x = seed ^ (static_cast<std::uint64_t>(j) * 0x9E3779B97F4A7C15ULL) ^
                      (static_cast<std::uint64_t>(i) * 0xC2B2AE3D27D4EB4FULL) ^
                      (dir > 0 ? 0x165667B19E3779F9ULL : 0);
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 29;
    const double grid = 0.5 * static_cast<double>(1 + x % 8);  // 0.5 .. 4.0
    switch (kind) {
      case 0: return std::min(req, grid);                          // caps at the request
      case 1: return grid;                                         // ignores the request
      case 2: return x % 3 == 0 ? 0.5 * min_height : std::min(req, grid);  // below minimum
      case 3: return (j + i) % 5 == 0 ? 0.0 : (dir > 0 ? std::min(req, 3.0) : 1.5);
      case 4: return req;                                          // grants every request
      default:                                                     // NaN and inf answers
        return x % 7 == 0   ? std::numeric_limits<double>::quiet_NaN()
               : x % 7 == 1 ? std::numeric_limits<double>::infinity()
                            : std::min(req, grid);
    }
  };
}

TEST(SegmentDp, MatchesPerWidthPredecessorReference) {
  // Differential test against the reference above: bit-equal gain, equal
  // pattern chains and the identical sequence of height queries, over
  // seeded parameters spanning both node rules, width caps, need signs,
  // minimum heights, both pattern styles and every callback kind.
  std::mt19937_64 rng(19);
  std::uniform_int_distribution<int> steps(1, 6);
  std::uniform_int_distribution<int> kind_of(0, 5);
  int cases = 0;
  for (int c = 0; c < 3000; ++c) {
    DpParams p;
    const int size_class = c % 20;
    std::uniform_int_distribution<int> n_of(2, size_class == 0 ? 300 : size_class < 6 ? 120 : 40);
    p.n = n_of(rng);
    p.step = 1.0;
    p.gap_steps = steps(rng);
    p.protect_steps = steps(rng);
    p.min_height = c % 3 == 0 ? 0.0 : 0.5 * steps(rng);
    switch (c % 5) {
      case 0: p.needed_gain = 0.0; break;
      case 1: p.needed_gain = -2.5; break;
      case 2: p.needed_gain = 0.5 * steps(rng) * steps(rng); break;
      case 3: p.needed_gain = 1e9; break;
      default: p.needed_gain = c % 2 == 0 ? 1e9 : std::numeric_limits<double>::quiet_NaN();
    }
    p.max_width_steps = (c / 4) % 2 == 0 ? 0 : std::uniform_int_distribution<int>(1, 24)(rng);
    if ((c / 8) % 2 == 1) {
      p.style = PatternStyle::Mitered;
      p.miter = 0.1 * steps(rng);
    }
    const int kind = kind_of(rng);
    const std::uint64_t seed = rng();
    std::vector<Query> got_log, want_log;
    const DpResult got = run_segment_dp(p, seeded_heights(kind, seed, p.min_height, &got_log));
    const DpResult want =
        reference::run_segment_dp(p, seeded_heights(kind, seed, p.min_height, &want_log));
    const auto where = [&] {
      return ::testing::Message() << "case " << c << " kind " << kind << " n " << p.n
                                  << " g " << p.gap_steps << " p " << p.protect_steps
                                  << " need " << p.needed_gain << " min_h " << p.min_height
                                  << " max_w " << p.max_width_steps;
    };
    ASSERT_EQ(bits(got.gain), bits(want.gain)) << where();
    ASSERT_EQ(got.patterns.size(), want.patterns.size()) << where();
    for (std::size_t k = 0; k < got.patterns.size(); ++k) {
      const Pattern& a = got.patterns[k];
      const Pattern& b = want.patterns[k];
      ASSERT_EQ(std::tie(a.foot_lo, a.foot_hi, a.dir), std::tie(b.foot_lo, b.foot_hi, b.dir))
          << where() << " pattern " << k;
      ASSERT_EQ(bits(a.height), bits(b.height)) << where() << " pattern " << k;
    }
    ASSERT_EQ(got_log, want_log) << where();
    cases += got.patterns.empty() ? 0 : 1;
  }
  EXPECT_GT(cases, 1000);  // most cases place patterns, so chains are compared
}

TEST(SegmentDp, DeterministicAcrossRuns) {
  const DpParams p = base_params(31);
  const DpResult a = run_segment_dp(p, flat(4.0));
  const DpResult b = run_segment_dp(p, flat(4.0));
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  EXPECT_DOUBLE_EQ(a.gain, b.gain);
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].foot_lo, b.patterns[i].foot_lo);
    EXPECT_EQ(a.patterns[i].dir, b.patterns[i].dir);
  }
}

}  // namespace
}  // namespace lmr::core
