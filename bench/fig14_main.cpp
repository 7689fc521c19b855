/// \file fig14_main.cpp
/// Regenerates Fig. 14: (a) display of a length-matching result on Table I
/// case 1; (b) the any-direction functionality on a 30-degree corridor.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/trace_extender.hpp"
#include "pipeline/router.hpp"
#include "viz/render.hpp"
#include "workload/table1_cases.hpp"

int main() {
  std::filesystem::create_directories("out");

  // (a) Case 1 after matching.
  {
    auto c = lmr::workload::table1_case(1);
    lmr::pipeline::RouterOptions opts;
    opts.extender.l_disc = c.rules.gap;
    opts.extender.max_width_steps = 24;
    opts.run_drc = false;
    (void)lmr::pipeline::Router(c.rules, opts).route_batch(c.layout);
    lmr::viz::render_layout(c.layout, "out/fig14a.svg");
    std::printf("fig14a: matched Table I case 1 -> out/fig14a.svg\n");
  }

  // (b) Any-direction: 30-degree corridor with an any-angle trace.
  {
    const double a30 = M_PI / 6.0;
    const lmr::geom::Vec2 dir{std::cos(a30), std::sin(a30)};
    const lmr::geom::Vec2 n{-dir.y, dir.x};
    const lmr::geom::Point p0{0, 0};
    const lmr::geom::Point p1 = p0 + dir * 60.0;

    lmr::layout::Layout l;
    lmr::layout::Trace t;
    t.name = "slant";
    t.width = 0.25;
    // Any-direction path: 30-degree run with a mid 17-degree kink.
    const lmr::geom::Point mid = p0 + dir * 28.0 + n * 3.0;
    t.path = lmr::geom::Polyline{{p0, mid, p1}};
    const auto id = l.add_trace(t);

    lmr::layout::RoutableArea area;
    area.outline = lmr::geom::Polygon{{p0 - dir * 2.0 - n * 8.0, p1 + dir * 2.0 - n * 8.0,
                                       p1 + dir * 2.0 + n * 8.0, p0 - dir * 2.0 + n * 8.0}};
    area.holes.push_back(lmr::geom::Polygon::regular(p0 + dir * 20.0 + n * 4.0, 1.0, 8));
    area.holes.push_back(lmr::geom::Polygon::regular(p0 + dir * 40.0 - n * 4.0, 1.0, 8));
    l.set_routable_area(id, area);
    for (const auto& h : area.holes) l.add_obstacle({h, "via"});

    lmr::drc::DesignRules rules;
    rules.gap = 1.0;
    rules.obs = 0.5;
    rules.protect = 0.5;
    rules.trace_width = 0.25;
    lmr::core::TraceExtender ext(rules, area);
    auto& trace = l.trace(id);
    const double target = trace.length() * 1.6;
    const auto stats = ext.extend(trace, target);
    lmr::viz::render_layout(l, "out/fig14b.svg");
    std::printf("fig14b: any-direction trace %.2f -> %.2f (target %.2f) -> out/fig14b.svg\n",
                stats.initial_length, stats.final_length, target);
  }
  return 0;
}
