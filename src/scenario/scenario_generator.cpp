#include "scenario/scenario_generator.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "geom/distance.hpp"
#include "index/seg_grid.hpp"
#include "workload/synth.hpp"

namespace lmr::scenario {

namespace {

using geom::Point;
using geom::Polygon;
using geom::Polyline;

/// Height of DRA section `s` (0-based) as a multiple of the base height:
/// linear ramp from 1.0 to `factor` across `sections`.
double section_scale(const ScenarioSpec& spec, int s) {
  if (spec.dra_sections <= 1) return 1.0;
  const double t = static_cast<double>(s) / (spec.dra_sections - 1);
  return 1.0 + (spec.dra_width_factor - 1.0) * t;
}

/// Bresenham-style spreading of `diff_count` differential members over
/// `members` slots (deterministic, spec-only).
bool is_differential(int m, int members, int diff_count) {
  return ((m + 1) * diff_count) / members > (m * diff_count) / members;
}

/// Drop via octagons into the band, rejecting positions that would violate
/// obstacle clearance against `path` (plus placement slack, so the extender
/// has room to thread between via and trace) or crowd another via. A
/// different policy from Table I's `add_band_vias` on purpose: scenarios
/// scatter over the whole band relative to the real path, Table I
/// fragments the strip above the trace.
void sprinkle_vias(layout::Layout& l, layout::RoutableArea& area, std::mt19937_64& rng,
                   const ScenarioSpec& spec, const Polyline& path, double x0, double x1,
                   double y_lo, double y_hi, double keep_clear_extra = 0.0) {
  const double r = spec.via_radius;
  const double clear = spec.rules.effective_obs() + r +
                       0.55 * spec.rules.effective_gap() + keep_clear_extra;
  if (y_hi - r <= y_lo + r || x1 - 2.0 <= x0 + 2.0) return;
  // Seg-grid broadphase over the member's path and the vias placed so far,
  // replacing the quadratic every-candidate-vs-everything scan (the old
  // bottleneck of mega-board generation). The grid only filters candidates;
  // the exact predicates below are byte-for-byte the old ones and the RNG
  // stream is consumed identically, so generated boards are unchanged.
  const double probe = std::max(3.0 * r, clear);
  index::SegGrid grid(probe);
  index::SegGrid::Scratch scratch;
  std::vector<Point> centers;  // hole centroids, indexed by grid payload
  constexpr std::uint64_t kHoleBit = std::uint64_t{1} << 32;
  const auto add_center = [&](const Point& c) {
    grid.insert({c, c}, kHoleBit | centers.size());
    centers.push_back(c);
  };
  for (const auto& h : area.holes) add_center(h.centroid());
  for (std::size_t s = 0; s < path.segment_count(); ++s) {
    grid.insert(path.segment(s), s);
  }
  int placed = 0, attempts = 0;
  while (placed < spec.vias_per_band && attempts < spec.vias_per_band * 40) {
    ++attempts;
    const Point c{workload::uniform_real(rng, x0 + 2.0, x1 - 2.0),
                  workload::uniform_real(rng, y_lo + r, y_hi - r)};
    bool clash = false;
    grid.visit(geom::Box{c, c}.inflated(probe), scratch, [&](const index::SegGrid::Entry& e) {
      if ((e.payload & kHoleBit) != 0) {
        if (geom::dist(centers[e.payload & 0xffffffffu], c) < 3.0 * r) clash = true;
      } else if (geom::dist_point_segment(c, e.seg) < clear) {
        clash = true;
      }
      return !clash;
    });
    if (clash) continue;
    const Polygon via = Polygon::regular(c, r, 8, M_PI / 8.0);
    area.holes.push_back(via);
    l.add_obstacle({via, "via"});
    add_center(via.centroid());
    ++placed;
  }
}

/// Staircase corridor outline: bottom edge straight, top edge stepping up at
/// every DRA boundary (single-section specs degenerate to a rectangle).
Polygon corridor_outline(const ScenarioSpec& spec, double x_lo, double x_hi, double y_bot) {
  const int sections = std::max(1, spec.dra_sections);
  std::vector<Point> pts{{x_lo, y_bot}, {x_hi, y_bot}};
  const double span = x_hi - x_lo;
  for (int s = sections - 1; s >= 0; --s) {
    const double h = spec.band_height * section_scale(spec, s) - 0.4;
    const double x_sec_lo = x_lo + span * s / sections;
    if (s == sections - 1) pts.push_back({x_hi, y_bot + h});
    pts.push_back({x_sec_lo, y_bot + h});
    if (s > 0) {
      const double h_prev = spec.band_height * section_scale(spec, s - 1) - 0.4;
      pts.push_back({x_sec_lo, y_bot + h_prev});
    }
  }
  return Polygon{std::move(pts)};
}

/// Sub-trace path of a differential member: horizontal runs offset from the
/// median by the per-section half pitch, joined by short diagonal tapers at
/// DRA boundaries.
Polyline pair_sub_path(const ScenarioSpec& spec, double x0, double x1, double y,
                       double side) {
  const int sections = std::max(1, spec.dra_sections);
  const double span = x1 - x0;
  const double taper = 2.0;
  std::vector<Point> pts;
  for (int s = 0; s < sections; ++s) {
    const double off = side * spec.pair_pitch * section_scale(spec, s) / 2.0;
    const double sec_lo = x0 + span * s / sections;
    const double sec_hi = x0 + span * (s + 1) / sections;
    pts.push_back({s == 0 ? sec_lo : sec_lo + taper, y + off});
    pts.push_back({sec_hi, y + off});
  }
  Polyline pl{std::move(pts)};
  pl.simplify(1e-12);
  return pl;
}

/// Insert one tiny compensation bump (the MSDTW "tiny pattern" noise of
/// Fig. 11) on the first straight run of `path`.
void add_tiny_pattern(Polyline& path, double protect, double x_at) {
  auto& pts = path.points();
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    if (pts[i].y != pts[i + 1].y || pts[i].x > x_at || pts[i + 1].x < x_at + 2.0 * protect)
      continue;
    const double y = pts[i].y;
    const std::vector<Point> bump{{x_at, y},
                                  {x_at, y - protect},
                                  {x_at + 2.0 * protect, y - protect},
                                  {x_at + 2.0 * protect, y}};
    pts.insert(pts.begin() + static_cast<std::ptrdiff_t>(i) + 1, bump.begin(), bump.end());
    return;
  }
}

void rotate_points(std::vector<Point>& pts, double cos_a, double sin_a) {
  for (Point& p : pts) {
    p = {p.x * cos_a - p.y * sin_a, p.x * sin_a + p.y * cos_a};
  }
}

}  // namespace

ScenarioGenerator::ScenarioGenerator(ScenarioSpec spec) : spec_(std::move(spec)) {
  if (spec_.groups < 1 || spec_.members_per_group < 1) {
    throw std::invalid_argument("ScenarioGenerator: need at least one group member");
  }
  if (spec_.corridor_length <= 0.0 || spec_.band_height <= 1.0) {
    throw std::invalid_argument("ScenarioGenerator: degenerate corridor dimensions");
  }
  spec_.rules.validate();
}

Scenario ScenarioGenerator::generate(std::uint64_t seed) const {
  const ScenarioSpec& spec = spec_;
  Scenario sc;
  sc.spec = spec;
  sc.seed = seed;
  sc.rules = spec.rules;

  std::mt19937_64 rng(seed);
  const double x0 = 0.0, x1 = spec.corridor_length;
  const double straight = x1 - x0;
  const double target = spec.target_fraction * spec.corridor_length;
  const int members = spec.members_per_group;
  const int diff_count =
      std::clamp(static_cast<int>(std::lround(spec.diff_fraction * members)), 0, members);
  const double member_band =
      spec.band_height * (spec.dra_sections > 1 ? spec.dra_width_factor : 1.0);

  for (int s = 0; s < std::max(1, spec.dra_sections); ++s) {
    sc.pair_rule_set.push_back(spec.pair_pitch * section_scale(spec, s));
  }

  double y_base = 0.0;
  for (int g = 0; g < spec.groups; ++g) {
    layout::MatchGroup group;
    group.name = spec.name + "/g" + std::to_string(g);
    group.target_length = target;

    for (int m = 0; m < members; ++m) {
      const double band_lo = y_base;
      const bool diff = is_differential(m, members, diff_count);
      layout::RoutableArea area;
      area.outline = corridor_outline(spec, x0 - 1.0, x1 + 1.0, band_lo + 0.2);

      if (!diff) {
        // Staggered pre-tuned member: random initial length in the spec's
        // band, bump capacity clamped so bumps never overlap.
        const double frac =
            workload::uniform_real(rng, spec.initial_frac_lo, spec.initial_frac_hi);
        const double bump_h = spec.band_height * 0.26;
        const double bump_w = 2.5;
        const int k_max =
            std::max(1, static_cast<int>(std::floor(straight / (1.6 * bump_w))) - 1);
        double extra =
            std::min(std::max(0.0, frac * target - straight), 2.0 * bump_h * k_max);
        // A single bump realizes extra/2 per leg; below 2*d_protect the legs
        // would be illegal stubs, so start straight instead.
        if (extra < 2.0 * spec.rules.protect) extra = 0.0;
        const double y = band_lo + spec.band_height * 0.48;
        layout::Trace t;
        t.name = group.name + "_m" + std::to_string(m);
        t.width = spec.rules.trace_width;
        t.path = workload::pretuned_path(x0, x1, y, extra, bump_h, bump_w);
        sprinkle_vias(sc.layout, area, rng, spec, t.path, x0, x1, band_lo + 0.4,
                      band_lo + member_band - 0.4);
        const layout::TraceId tid = sc.layout.add_trace(t);
        group.members.push_back({layout::MemberKind::SingleEnded, tid});
        sc.layout.set_routable_area(tid, std::move(area));
      } else {
        // Differential member: straight decoupled pair whose pitch widens
        // per DRA section, with one tiny pattern on traceN that MSDTW must
        // filter out.
        const double y = band_lo + 0.2 + spec.band_height * 0.5;
        layout::DiffPair pair;
        pair.name = group.name + "_d" + std::to_string(m);
        pair.pitch = spec.pair_pitch;
        pair.positive.width = spec.rules.trace_width;
        pair.negative.width = spec.rules.trace_width;
        pair.positive.path = pair_sub_path(spec, x0, x1, y, +1.0);
        pair.negative.path = pair_sub_path(spec, x0, x1, y, -1.0);
        add_tiny_pattern(pair.negative.path, spec.rules.protect,
                         x0 + 0.25 * straight);
        // The restored pair can swing anywhere inside the band the median's
        // virtual width covers — in wide DRA sections that band is the last
        // section's full pitch, so vias keep that much extra clearance.
        const double band_reach =
            spec.pair_pitch * section_scale(spec, std::max(1, spec.dra_sections) - 1);
        sprinkle_vias(sc.layout, area, rng, spec, pair.positive.path, x0, x1,
                      band_lo + 0.4, band_lo + member_band - 0.4, band_reach);
        const layout::TraceId pid = sc.layout.add_pair(pair);
        group.members.push_back({layout::MemberKind::Differential, pid});
        sc.layout.set_routable_area(pid, std::move(area));
      }
      y_base += member_band;
    }
    sc.layout.add_group(std::move(group));
  }
  sc.layout.set_board(Polygon::rect({{x0 - 5.0, -5.0}, {x1 + 5.0, y_base + 5.0}}));

  // Any-direction: rotate the whole board about the origin.
  if (spec.corridor_angle_deg != 0.0) {
    const double a = spec.corridor_angle_deg * M_PI / 180.0;
    const double c = std::cos(a), s = std::sin(a);
    geom::Polygon board = sc.layout.board();
    rotate_points(board.points(), c, s);
    sc.layout.set_board(std::move(board));
    for (const auto& [id, t] : sc.layout.traces()) {
      (void)t;
      rotate_points(sc.layout.trace(id).path.points(), c, s);
    }
    for (auto& [id, p] : sc.layout.pairs()) {
      (void)p;
      rotate_points(sc.layout.pair(id).positive.path.points(), c, s);
      rotate_points(sc.layout.pair(id).negative.path.points(), c, s);
    }
    // Obstacles, then every area outline/hole (areas are stored per trace).
    for (std::size_t oi = 0; oi < sc.layout.obstacle_count(); ++oi) {
      geom::Polygon shape = sc.layout.obstacle(oi).shape;
      rotate_points(shape.points(), c, s);
      sc.layout.set_obstacle_shape(oi, std::move(shape));
    }
    const auto rotate_area = [&](layout::TraceId id) {
      if (const layout::RoutableArea* area = sc.layout.routable_area(id)) {
        layout::RoutableArea rotated = *area;
        rotate_points(rotated.outline.points(), c, s);
        for (Polygon& h : rotated.holes) rotate_points(h.points(), c, s);
        sc.layout.set_routable_area(id, std::move(rotated));
      }
    };
    for (const auto& [id, t] : sc.layout.traces()) {
      (void)t;
      rotate_area(id);
    }
    for (const auto& [id, p] : sc.layout.pairs()) {
      (void)p;
      rotate_area(id);
    }
  }
  return sc;
}

}  // namespace lmr::scenario
