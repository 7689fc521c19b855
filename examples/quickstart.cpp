/// \file quickstart.cpp
/// Minimal lmroute usage: define rules, a trace and its routable area, and
/// length-match it to a target with one `pipeline::Router::route_batch()`
/// call — the facade runs the whole paper flow (DP extension, Eq. 19
/// accounting, final DRC sweep). Prints before/after stats and writes an SVG.
///
///   ./quickstart [target_length]

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "pipeline/router.hpp"
#include "viz/render.hpp"

int main(int argc, char** argv) {
  // 1. Design rules (Fig. 1 of the paper): gap, obstacle clearance, minimum
  //    segment length, trace width.
  lmr::drc::DesignRules rules;
  rules.gap = 1.0;
  rules.obs = 0.5;
  rules.protect = 0.5;
  rules.trace_width = 0.2;

  // 2. A routed trace that is too short for its matching group.
  lmr::layout::Trace trace;
  trace.name = "DQ3";
  trace.width = rules.trace_width;
  trace.path = lmr::geom::Polyline{{{0, 0}, {28, 0}, {40, 6}}};  // any-direction tail

  // 3. The routable area assigned to it (a corridor with two vias).
  lmr::layout::RoutableArea area;
  area.outline = lmr::geom::Polygon{{{-2, -6}, {42, -6}, {42, 12}, {-2, 12}}};
  area.holes.push_back(lmr::geom::Polygon::regular({12, 2.5}, 1.0, 8));
  area.holes.push_back(lmr::geom::Polygon::regular({24, -2.5}, 1.0, 8));

  const double target = argc > 1 ? std::atof(argv[1]) : 70.0;

  // 4. Assemble the layout: trace + area + a one-member matching group.
  lmr::layout::Layout l;
  const auto id = l.add_trace(trace);
  l.set_routable_area(id, area);
  for (const auto& h : area.holes) l.add_obstacle({h, "via"});
  lmr::layout::MatchGroup group;
  group.name = "quickstart";
  group.target_length = target;
  group.members.push_back({lmr::layout::MemberKind::SingleEnded, id});
  l.add_group(group);

  // 5. Length-match + DRC-verify in one call. The facade throws
  //    std::invalid_argument for unroutable inputs (e.g. a target below the
  //    current trace length).
  const lmr::pipeline::Router router(rules);
  lmr::pipeline::RouteResult result;
  try {
    result = router.route_batch(l);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "routing failed: %s\n", e.what());
    return 2;
  }

  const lmr::pipeline::NetResult& net = result.nets.front();
  std::printf("trace '%s': %.3f -> %.3f (target %.3f, %s)\n",
              net.member.name.c_str(), net.member.initial_length,
              net.member.final_length, net.member.target,
              net.member.reached ? "matched" : "NOT matched");
  std::printf("patterns inserted: %d in %.3f s\n", net.member.patterns,
              net.member.runtime_s);
  std::printf("DRC violations: %zu\n", result.violation_count());

  // 6. Render.
  std::filesystem::create_directories("out");
  lmr::viz::render_layout(l, "out/quickstart.svg");
  std::printf("wrote out/quickstart.svg\n");
  return result.ok() ? 0 : 1;
}
