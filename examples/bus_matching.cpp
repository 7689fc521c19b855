/// \file bus_matching.cpp
/// Full pipeline on a parallel bus: region assignment (§III) splits a
/// corridor bundle between six traces of different initial lengths, then the
/// Router meanders each trace to the common target inside its own region.
/// This is the end-to-end flow of Fig. 2.

#include <cstdio>
#include <filesystem>

#include "assign/region_assigner.hpp"
#include "layout/drc_checker.hpp"
#include "pipeline/router.hpp"
#include "viz/render.hpp"

int main() {
  lmr::drc::DesignRules rules;
  rules.gap = 1.0;
  rules.obs = 0.5;
  rules.protect = 0.5;
  rules.trace_width = 0.2;

  // Six bus members with staggered initial lengths (pre-routed detours).
  lmr::layout::Layout l;
  std::vector<lmr::layout::Trace> traces(6);
  std::vector<lmr::layout::TraceId> ids;
  for (int i = 0; i < 6; ++i) {
    const double y = 4.0 + 7.0 * i;
    lmr::layout::Trace& t = traces[static_cast<std::size_t>(i)];
    t.name = "D" + std::to_string(i);
    t.width = rules.trace_width;
    if (i % 2 == 0) {
      t.path = lmr::geom::Polyline{{{0, y}, {60, y}}};
    } else {
      // Slightly longer members with a mid jog.
      t.path = lmr::geom::Polyline{
          {{0, y}, {25, y}, {28, y + 2.0}, {31, y}, {60, y}}};
    }
  }

  // Obstacles in the bundle, between the bus members.
  std::vector<lmr::geom::Polygon> obstacles{
      lmr::geom::Polygon::regular({20, 7.5}, 1.0, 8),
      lmr::geom::Polygon::regular({40, 21.5}, 1.0, 8),
  };

  // Region assignment: one corridor bundle, one region budget per trace.
  lmr::assign::CorridorSpec spec;
  spec.bundle = {{0, 0}, {60, 46}};
  const double target = 78.0;
  for (auto& t : traces) spec.traces.push_back(&t);
  spec.targets.assign(6, target);
  spec.obstacles = obstacles;
  spec.rules = rules;
  const lmr::assign::CorridorAssignment assignment = lmr::assign::assign_corridors(spec);
  std::printf("region assignment: %s\n", assignment.feasible ? "feasible" : "INFEASIBLE");
  if (!assignment.feasible) return 1;

  lmr::layout::MatchGroup group;
  group.name = "bus";
  group.target_length = target;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto id = l.add_trace(traces[i]);
    ids.push_back(id);
    l.set_routable_area(id, assignment.areas[i]);
    group.members.push_back({lmr::layout::MemberKind::SingleEnded, id});
  }
  for (const auto& o : obstacles) l.add_obstacle({o, "via"});
  l.add_group(group);

  // Match the whole group; the board-wide DRC below replaces the Router's
  // per-group oracle.
  lmr::pipeline::RouterOptions opts;
  opts.run_drc = false;
  const lmr::pipeline::Router router(rules, opts);
  const lmr::pipeline::GroupReport report = router.route_batch(l).group;

  std::printf("group '%s': target %.2f\n", report.group_name.c_str(), report.target);
  std::printf("  initial errors: max %.2f%%  avg %.2f%%\n", report.initial_max_error_pct,
              report.initial_avg_error_pct);
  std::printf("  final errors:   max %.4f%% avg %.4f%%  (runtime %.2fs)\n",
              report.max_error_pct, report.avg_error_pct, report.runtime_s);
  for (const auto& m : report.members) {
    std::printf("  %-4s %8.3f -> %8.3f  (%d patterns)%s\n", m.name.c_str(),
                m.initial_length, m.final_length, m.patterns,
                m.reached ? "" : "  [short]");
  }

  // Inter-trace DRC across the whole board (regions are disjoint, so this
  // must be clean).
  lmr::layout::DrcChecker checker;
  const auto violations = checker.check_layout(l, rules);
  std::printf("layout DRC violations: %zu\n", violations.size());

  std::filesystem::create_directories("out");
  lmr::viz::render_layout(l, "out/bus_matching.svg");
  std::printf("wrote out/bus_matching.svg\n");
  return violations.empty() ? 0 : 1;
}
