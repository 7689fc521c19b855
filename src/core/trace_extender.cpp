#include "core/trace_extender.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/height_solver.hpp"
#include "core/segment_dp.hpp"
#include "core/ura.hpp"
#include "geom/chamfer.hpp"
#include "geom/frame.hpp"
#include "geom/offset.hpp"

namespace lmr::core {

namespace {

constexpr double kLocateTol = 1e-7;
constexpr std::size_t kNotFound = std::numeric_limits<std::size_t>::max();

}  // namespace

TraceExtender::TraceExtender(drc::DesignRules rules, const layout::RoutableArea& area,
                             std::vector<geom::Polygon> extra_obstacles)
    : rules_(rules) {
  rules_.validate();
  if (!area.outline.empty()) {
    geom::Polygon outline = area.outline;
    outline.make_ccw();
    env_.add_static(std::move(outline), EnvKind::AreaOutline);
  }
  const double inflate = rules_.obstacle_inflation();
  for (const geom::Polygon& h : area.holes) {
    env_.add_static(geom::inflate_polygon(h, inflate), EnvKind::Obstacle);
  }
  for (geom::Polygon& p : extra_obstacles) {
    env_.add_static(geom::inflate_polygon(std::move(p), inflate), EnvKind::Obstacle);
  }
  const geom::Box bb = area.outline.empty() ? geom::Box{{0, 0}, {1, 1}} : area.bbox();
  area_reach_ = std::hypot(bb.width(), bb.height());
}

ExtendStats TraceExtender::extend(layout::Trace& trace, double target,
                                  const ExtenderConfig& cfg) {
  return run(trace, target, /*bounded=*/true, cfg);
}

ExtendStats TraceExtender::maximize(layout::Trace& trace, const ExtenderConfig& cfg) {
  return run(trace, std::numeric_limits<double>::infinity(), /*bounded=*/false, cfg);
}

std::size_t TraceExtender::locate(const geom::Polyline& path, const QueuedSegment& q) {
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    if (geom::almost_equal(path[k], q.a, kLocateTol) &&
        geom::almost_equal(path[k + 1], q.b, kLocateTol)) {
      return k;
    }
  }
  return kNotFound;
}

ExtendStats TraceExtender::run(layout::Trace& trace, double target, bool bounded,
                               const ExtenderConfig& cfg) {
  ExtendStats stats;
  stats.initial_length = trace.path.length();
  stats.target = target;
  if (bounded && target < stats.initial_length - cfg.tolerance) {
    throw std::invalid_argument("TraceExtender: target below current trace length");
  }

  const double step_base = cfg.l_disc > 0.0 ? cfg.l_disc : rules_.protect;
  const double half = rules_.ura_halfwidth();
  const double eff_gap = rules_.effective_gap();
  const double min_extend =
      cfg.min_extend_length > 0.0 ? cfg.min_extend_length : std::max(eff_gap, rules_.protect);

  std::deque<QueuedSegment> queue;
  for (std::size_t k = 0; k + 1 < trace.path.size(); ++k) {
    queue.push_back({trace.path[k], trace.path[k + 1]});
  }

  double current = stats.initial_length;
  int passes = 0;
  while (!queue.empty() && passes < cfg.max_passes) {
    // Cancellation poll, once per pattern placement: a pop is one DP run
    // plus splice, so an expired deadline aborts within a single pattern's
    // worth of work (the throw unwinds to the Router's rollback).
    cfg.cancel.check();
    const double remaining = target - current;
    if (bounded && remaining <= cfg.tolerance) break;
    ++passes;

    const QueuedSegment q = queue.front();
    queue.pop_front();
    const std::size_t k = locate(trace.path, q);
    if (k == kNotFound) continue;
    const geom::Segment seg{q.a, q.b};
    const double len = seg.length();
    if (len < min_extend) continue;

    // Restore-feasibility margin for this segment (merged-pair medians): the
    // local restore pitch widens every clearance the DP and the height
    // solver enforce, so a pattern whose ±pitch/2 restore offsets would
    // graze the sub-trace rules is never placed at all.
    const drc::RestoreMargin margin =
        cfg.restore_margin ? cfg.restore_margin(seg) : drc::RestoreMargin{};
    const double half_loc = half + margin.clearance;
    const double eff_gap_loc = eff_gap + margin.spacing;

    // Per-segment discretization: n points, exact step dividing the length.
    int n = static_cast<int>(std::floor(len / step_base)) + 1;
    if (n < 2) continue;
    const double step = len / (n - 1);
    DpParams params;
    params.n = n;
    params.step = step;
    params.gap_steps = static_cast<int>(std::ceil(eff_gap_loc / step - 1e-9));
    params.protect_steps = static_cast<int>(std::ceil(rules_.protect / step - 1e-9));
    params.min_height = rules_.protect;
    params.needed_gain = bounded ? remaining : 4.0 * area_reach_ * (len / step_base);
    params.max_width_steps = cfg.max_width_steps;
    params.style = cfg.style;
    params.miter = rules_.miter;
    if (std::max(params.gap_steps, params.protect_steps) >= n) continue;

    // Environment overlay: URAs of every other segment of this trace, with
    // the joints trimmed (same-net adjacency exemption). Under a restore
    // margin each neighbouring leg reserves the room *its own* DRA restore
    // will consume — a wide-DRA leg next to a narrow-DRA segment must keep
    // its wider clearance even though the current segment's margin is zero.
    if (cfg.restore_margin) {
      env_.set_dynamic(self_uras(trace.path, k, half_loc, eff_gap_loc,
                                 [&](const geom::Segment& other) {
                                   return half + cfg.restore_margin(other).clearance;
                                 }));
    } else {
      env_.set_dynamic(self_uras(trace.path, k, half, eff_gap));
    }

    const double max_reach =
        std::min(area_reach_, height_for_gain(params.needed_gain, cfg.style, rules_.miter) +
                                  rules_.protect);
    const HeightSolver up = HeightSolver::for_segment(env_, seg, +1, max_reach, half_loc);
    const HeightSolver down = HeightSolver::for_segment(env_, seg, -1, max_reach, half_loc);

    const HeightFn hfun = [&](int j, int i, int dir, double h_request) {
      const HeightSolver& solver = dir > 0 ? up : down;
      double h = solver.max_height(j * step, i * step, std::min(h_request, max_reach));
      if (cfg.exhaustive_checks && h > 0.0) {
        if (!solver.valid_exhaustive(j * step, i * step, h)) {
          ++stats.oracle_mismatches;
          h = 0.0;
        }
      }
      return h;
    };

    ++stats.dp_runs;
    DpResult dp = run_segment_dp(params, hfun);
    if (dp.gain <= 0.0 || dp.patterns.empty()) continue;

    // Realize the chain; with mitering the realized gain can deviate from
    // the DP's estimate (chamfer cuts clamp on short arms), so trimming
    // iterates on the *realized* length: reduce heights largest-first with
    // solver re-validation (validity is not monotone), dropping trailing
    // patterns when every height is already minimal.
    const auto realize_piece = [&](const std::vector<Pattern>& ps) {
      geom::Polyline pc{realize_patterns(ps, len, step)};
      if (cfg.style == PatternStyle::Mitered && rules_.miter > 0.0) {
        pc = geom::chamfer_corners(pc, rules_.miter);
      }
      return pc;
    };
    geom::Polyline piece = realize_piece(dp.patterns);
    if (bounded) {
      int guard = 0;
      while (piece.length() - len > remaining + cfg.tolerance && ++guard < 200 &&
             !dp.patterns.empty()) {
        const double excess = (piece.length() - len) - remaining;
        // Largest pattern with headroom above the minimum height.
        std::size_t best = dp.patterns.size();
        for (std::size_t idx = 0; idx < dp.patterns.size(); ++idx) {
          const Pattern& pt = dp.patterns[idx];
          if (pt.height <= rules_.protect + cfg.tolerance) continue;
          if (best == dp.patterns.size() || pt.height > dp.patterns[best].height) best = idx;
        }
        bool reduced = false;
        if (best < dp.patterns.size()) {
          Pattern& pt = dp.patterns[best];
          const double h_new =
              std::max(rules_.protect, pt.height - excess / 2.0);
          if (h_new < pt.height - cfg.tolerance / 4.0) {
            const HeightSolver& solver = pt.dir > 0 ? up : down;
            const double h_check =
                solver.max_height(pt.foot_lo * step, pt.foot_hi * step, h_new);
            if (h_check + cfg.tolerance >= h_new) {
              pt.height = h_new;
              reduced = true;
            } else {
              // Shrinking this one would violate DRC (obstacle previously
              // enclosed); drop it instead.
              dp.patterns.erase(dp.patterns.begin() + static_cast<std::ptrdiff_t>(best));
              reduced = true;
            }
          }
        }
        if (!reduced) dp.patterns.pop_back();  // all at min height: drop one
        piece = realize_piece(dp.patterns);
      }
      if (dp.patterns.empty()) continue;
    }
    const geom::Frame frame = geom::Frame::along(seg);
    std::vector<geom::Point> global_pts;
    global_pts.reserve(piece.size());
    for (const geom::Point& p : piece.points()) global_pts.push_back(frame.to_global(p));
    // Snap endpoints exactly onto the original nodes.
    global_pts.front() = q.a;
    global_pts.back() = q.b;
    trace.path.splice(k, k + 1, global_pts);

    stats.patterns_inserted += static_cast<int>(dp.patterns.size());
    ++stats.segments_processed;
    current = trace.path.length();

    // Enqueue the freshly created sub-segments for further meandering
    // ("a segment after the extension is replaced by several new component
    // segments for further extension if needed").
    if (cfg.extend_new_segments) {
      for (std::size_t s2 = 0; s2 + 1 < global_pts.size(); ++s2) {
        const geom::Segment ns{global_pts[s2], global_pts[s2 + 1]};
        if (ns.length() >= min_extend) queue.push_back({ns.a, ns.b});
      }
    }
  }

  stats.final_length = trace.path.length();
  stats.reached = !bounded || std::abs(stats.final_length - target) <= cfg.tolerance * 10.0;
  return stats;
}

}  // namespace lmr::core
