#include "core/segment_dp.hpp"

#include <algorithm>
#include <array>

namespace lmr::core {

namespace {

constexpr double kTieEps = 1e-12;

/// Transit record (Eq. 14): predecessor state plus the inserted pattern.
struct Transit {
  int pi = -1;        ///< predecessor point index (-1 = initial state)
  int pdir = 0;       ///< predecessor dir (index 0/1)
  int w = 0;          ///< inserted pattern width in steps (0 = copy)
  double h = 0.0;     ///< inserted pattern height
  bool connected = false;  ///< transition (c): shared-foot connection
};

struct State {
  double gain = 0.0;
  bool through_pattern = false;  ///< reached via a fresh insertion (Fig. 4)
  Transit tr;
};

/// A pattern's left foot at point j on one side: its best predecessor
/// (Eq. 8) and the height request that predecessor implies.
struct Foot {
  double pred = -1.0;     ///< best predecessor gain
  double h_request = 0.0;
  int pi = -1;
  int pdir = 0;
  bool connected = false;
  bool viable = false;    ///< a pattern may start here (node rule, predecessor, need)
};

int dir_of(int d) { return d == 0 ? 1 : -1; }

}  // namespace

DpResult run_segment_dp(const DpParams& params, const HeightFn& height) {
  DpResult result;
  const int n = params.n;
  if (n < 2) return result;
  const int g = std::max(1, params.gap_steps);
  const int p = std::max(1, params.protect_steps);

  // dp[i][d]; d = 0 is dir +1, d = 1 is dir -1.
  std::vector<std::array<State, 2>> dp(static_cast<std::size_t>(n));
  for (int d = 0; d < 2; ++d) {
    dp[0][d].gain = 0.0;  // Eq. 5
    dp[0][d].tr = Transit{};
  }

  const auto right_node_ok = [&](int i) {
    // Alg. 1 line 7: the right foot must be the node or >= d_protect from it.
    return i == n - 1 || (n - 1 - i) >= p;
  };
  const auto left_node_ok = [&](int j) { return j == 0 || j >= p; };

  // feet[d][j]. A foot's predecessor reads only dp[j-g][d], dp[j-p][1-d] and
  // dp[j][1-d], all final once point j is, so it is settled then (at the top
  // of step j+1), once, instead of once per width that lands on it.
  std::array<std::vector<Foot>, 2> feet;
  feet[0].resize(static_cast<std::size_t>(n));
  feet[1].resize(static_cast<std::size_t>(n));
  const auto settle_feet = [&](int j) {
    if (!left_node_ok(j)) return;
    for (int d = 0; d < 2; ++d) {
      const int od = 1 - d;
      // --- choose the best valid predecessor (Eq. 8) ---
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
      if (j - g >= 0) consider(dp[j - g][d].gain, j - g, d, false);   // (a) p_gap
      if (j - p >= 0) consider(dp[j - p][od].gain, j - p, od, false); // (b) p_protect
      if (dp[j][od].through_pattern) consider(dp[j][od].gain, j, od, true);  // (c) p_local
      if (j == 0) consider(0.0, -1, d, false);  // (d) connect to left node
      if (best_pred < 0.0) continue;

      // --- height request: remaining requirement after the predecessor ---
      double h_request =
          height_for_gain(std::max(0.0, params.needed_gain - best_pred),
                          params.style, params.miter);
      if (h_request < params.min_height) {
        if (params.needed_gain - best_pred <= 0.0) continue;  // nothing needed
        h_request = params.min_height;  // small remainder: allow the minimum
      }
      feet[d][j] = Foot{best_pred, h_request, best_pi, best_pdir, best_connected, true};
    }
  };

  for (int i = 1; i < n; ++i) {
    settle_feet(i - 1);
    for (int d = 0; d < 2; ++d) {
      // Eq. 6: carry the previous best along the segment.
      State s = dp[i - 1][d];
      s.through_pattern = false;
      s.tr = Transit{i - 1, d, 0, 0.0, false};
      // Preserve initial-state semantics: no transit chain from point 0.
      if (i - 1 == 0) s.tr.pi = -1;
      dp[i][d] = s;
    }
    if (!right_node_ok(i)) continue;

    // Pattern legs are same-side parallel runs, so the hat width must meet
    // the gap rule; the hat is itself a segment, so it must also meet
    // d_protect. Hence the minimum width below.
    const int min_w = std::max(g, p);
    const int max_w = params.max_width_steps > 0 ? std::min(params.max_width_steps, i) : i;
    for (int d = 0; d < 2; ++d) {
      for (int w = min_w; w <= max_w; ++w) {
        const int j = i - w;
        const Foot& f = feet[d][j];
        if (!f.viable) continue;
        const double h = height(j, i, dir_of(d), f.h_request);
        if (h < params.min_height) continue;
        const double gain = pattern_gain(h, params.style, params.miter);
        if (gain <= 0.0) continue;

        const double total = f.pred + gain;
        State& cur = dp[i][d];
        const bool better = total > cur.gain + kTieEps;
        const bool tie_preferred =
            total > cur.gain - kTieEps && !cur.through_pattern;  // Fig. 4 priority
        if (better || tie_preferred) {
          cur.gain = total;
          cur.through_pattern = true;
          cur.tr = Transit{f.pi, f.pdir, w, h, f.connected};
        }
      }
    }
  }

  // Pick the best final state (line 14 of Alg. 1).
  const int best_d = dp[n - 1][0].gain >= dp[n - 1][1].gain ? 0 : 1;
  result.gain = dp[n - 1][best_d].gain;
  if (result.gain <= 0.0) return result;

  // Restoration (§IV-C): walk the transit chain backwards.
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

}  // namespace lmr::core
