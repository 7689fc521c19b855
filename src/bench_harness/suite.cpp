#include "bench_harness/suite.hpp"

#include <algorithm>

#include "bench_harness/report.hpp"
#include "core/clock.hpp"
#include "fault/fault_plan.hpp"
#include "pipeline/session.hpp"
#include "scenario/edit_storm.hpp"
#include "scenario/fault_storm.hpp"
#include "scenario/service_storm.hpp"
#include "service/routing_service.hpp"

namespace lmr::bench {

namespace {

using core::seconds_since;

Json spec_json(const scenario::ScenarioSpec& s) {
  Json j = Json::object();
  j["corridor_length"] = s.corridor_length;
  j["band_height"] = s.band_height;
  j["corridor_angle_deg"] = s.corridor_angle_deg;
  j["groups"] = static_cast<std::int64_t>(s.groups);
  j["members_per_group"] = static_cast<std::int64_t>(s.members_per_group);
  j["diff_fraction"] = s.diff_fraction;
  j["pair_pitch"] = s.pair_pitch;
  j["dra_sections"] = static_cast<std::int64_t>(s.dra_sections);
  j["vias_per_band"] = static_cast<std::int64_t>(s.vias_per_band);
  j["target_fraction"] = s.target_fraction;
  Json rules = Json::object();
  rules["gap"] = s.rules.gap;
  rules["obs"] = s.rules.obs;
  rules["protect"] = s.rules.protect;
  rules["miter"] = s.rules.miter;
  rules["trace_width"] = s.rules.trace_width;
  j["rules"] = std::move(rules);
  return j;
}

Json group_json(const GroupOutcome& g) {
  Json j = Json::object();
  j["group"] = g.group;
  j["target"] = g.target;
  j["members"] = static_cast<std::int64_t>(g.members);
  j["initial_max_error_pct"] = g.initial_max_error_pct;
  j["initial_avg_error_pct"] = g.initial_avg_error_pct;
  j["max_error_pct"] = g.max_error_pct;
  j["avg_error_pct"] = g.avg_error_pct;
  j["matched"] = g.matched;
  j["patterns"] = static_cast<std::int64_t>(g.patterns);
  j["net_violations"] = static_cast<std::int64_t>(g.net_violations);
  j["cross_violations"] = static_cast<std::int64_t>(g.cross_violations);
  return j;
}

/// One entry of the volatile `timing` table: a case's wall clocks, with
/// each group's split of its runtime.
Json timing_json(const CaseOutcome& c) {
  Json j = Json::object();
  j["family"] = c.family;
  j["scenario"] = c.scenario;
  j["runtime_s"] = c.runtime_s;
  Json jgroups = Json::array();
  for (const GroupOutcome& g : c.groups) {
    Json jg = Json::object();
    jg["group"] = g.group;
    jg["runtime_s"] = g.runtime_s;
    jg["extend_runtime_s"] = g.extend_runtime_s;
    jg["drc_overlap_runtime_s"] = g.drc_overlap_runtime_s;
    jg["drc_barrier_runtime_s"] = g.drc_barrier_runtime_s;
    jgroups.push_back(std::move(jg));
  }
  j["groups"] = std::move(jgroups);
  return j;
}

std::vector<scenario::Family> selected_families(const SuiteOptions& opts) {
  if (opts.families.empty()) return scenario::standard_families(opts.smoke);
  std::vector<scenario::Family> families;
  for (const std::string& name : opts.families) {
    families.push_back(scenario::family(name, opts.smoke));
  }
  return families;
}

}  // namespace

bool CaseOutcome::matched() const {
  return std::all_of(groups.begin(), groups.end(),
                     [](const GroupOutcome& g) { return g.matched; });
}

bool CaseOutcome::drc_clean() const {
  return std::all_of(groups.begin(), groups.end(), [](const GroupOutcome& g) {
    return g.net_violations == 0 && g.cross_violations == 0;
  });
}

double CaseOutcome::worst_error_pct() const {
  double worst = 0.0;
  for (const GroupOutcome& g : groups) worst = std::max(worst, g.max_error_pct);
  return worst;
}

bool SuiteResult::all_ok() const {
  return std::all_of(cases.begin(), cases.end(),
                     [](const CaseOutcome& c) { return c.ok(); });
}

Suite::Suite(SuiteOptions opts)
    : opts_(std::move(opts)), pool_handle_(opts_.threads) {}

exec::TaskPool* Suite::pool() const { return pool_handle_.acquire(); }

pipeline::RouterOptions Suite::scenario_router_options(const scenario::Scenario& sc) const {
  pipeline::RouterOptions ropts = opts_.router;
  if (sc.spec.extender_tolerance > 0.0) {
    ropts.extender.tolerance = sc.spec.extender_tolerance;
  }
  if (sc.pair_rule_set.size() > 1) ropts.pair_rule_set = sc.pair_rule_set;
  return ropts;
}

pipeline::RouterOptions Suite::router_options_for(const scenario::Scenario& sc) const {
  pipeline::RouterOptions ropts = scenario_router_options(sc);
  ropts.threads = opts_.threads;
  ropts.pool = pool();  // one executor across cases, groups and members
  return ropts;
}

CaseOutcome Suite::run_case(const scenario::Family& fam,
                            const scenario::FamilyCase& fc) const {
  const auto t_case = core::now();
  scenario::Scenario sc = scenario::materialize(fc);

  CaseOutcome outcome;
  outcome.family = fam.name;
  outcome.scenario = sc.spec.name;
  outcome.seed = sc.seed;
  outcome.max_error_gate_pct = fam.max_error_gate_pct;
  outcome.expect_drc_clean = fc.expect_drc_clean;
  outcome.traces = sc.layout.traces().size();
  outcome.pairs = sc.layout.pairs().size();
  outcome.obstacles = sc.layout.obstacles().size();

  const pipeline::Router router(sc.rules, router_options_for(sc));

  for (const pipeline::RouteResult& rr : router.route_all(sc.layout)) {
    GroupOutcome go;
    go.group = rr.group.group_name;
    go.target = rr.group.target;
    go.initial_max_error_pct = rr.group.initial_max_error_pct;
    go.initial_avg_error_pct = rr.group.initial_avg_error_pct;
    go.max_error_pct = rr.group.max_error_pct;
    go.avg_error_pct = rr.group.avg_error_pct;
    go.matched = rr.matched();
    go.members = rr.group.members.size();
    for (const pipeline::MemberReport& mr : rr.group.members) go.patterns += mr.patterns;
    for (const pipeline::NetResult& net : rr.nets) {
      go.net_violations += net.violations.size();
    }
    go.cross_violations = rr.cross_violations.size();
    go.runtime_s = rr.runtime_s;
    go.extend_runtime_s = rr.extend_runtime_s;
    go.drc_overlap_runtime_s = rr.drc_overlap_runtime_s;
    go.drc_barrier_runtime_s = rr.drc_barrier_runtime_s;
    outcome.groups.push_back(std::move(go));
  }
  outcome.runtime_s = seconds_since(t_case);
  return outcome;
}

SuiteResult Suite::run() const {
  SuiteResult result;
  const auto t_suite = core::now();

  // Flatten (family, case) so independent boards become one task batch;
  // every outcome is written at its flat index, which keeps the report
  // order — and therefore the JSON bytes — identical across thread counts.
  struct Flat {
    const scenario::Family* fam;
    const scenario::FamilyCase* fc;
  };
  const std::vector<scenario::Family> families = selected_families(opts_);
  std::vector<Flat> flat;
  for (const scenario::Family& fam : families) {
    for (const scenario::FamilyCase& fc : fam.cases) flat.push_back({&fam, &fc});
  }

  result.cases.resize(flat.size());
  exec::TaskPool* pool_ptr = pool();
  const std::size_t threads = exec::resolve_threads(opts_.threads);
  if (pool_ptr == nullptr || threads <= 1) {
    for (std::size_t i = 0; i < flat.size(); ++i) {
      result.cases[i] = run_case(*flat[i].fam, *flat[i].fc);
    }
  } else {
    exec::parallel_for_dynamic(*pool_ptr, flat.size(), threads, [&](std::size_t i) {
      result.cases[i] = run_case(*flat[i].fam, *flat[i].fc);
    });
  }
  result.runtime_s = seconds_since(t_suite);
  return result;
}

std::vector<std::size_t> Suite::default_scaling_threads() {
  std::vector<std::size_t> counts = {1, 2, 4};
  const std::size_t hw = exec::resolve_threads(0);
  if (hw > 4) counts.push_back(hw);
  return counts;
}

std::vector<EditStormOutcome> Suite::run_edit_storm() const {
  std::vector<EditStormOutcome> storms;
  for (const scenario::EditStormCase& c : scenario::edit_storm_cases(opts_.smoke)) {
    scenario::EditStorm storm = scenario::materialize_storm(c);

    EditStormOutcome out;
    out.name = storm.spec.name;
    out.base_scenario = storm.scenario.spec.name;
    out.edits = storm.edits.size();
    out.groups_total = storm.scenario.layout.groups().size();

    const pipeline::RouterOptions ropts = router_options_for(storm.scenario);
    pipeline::Session session(storm.scenario.rules, ropts, storm.scenario.layout);
    auto t0 = core::now();
    session.route();
    out.initial_route_s = seconds_since(t0);

    // One apply per edit: the interactive cadence the latency ratio is
    // about. (Batching all edits into one apply would re-route each touched
    // group once instead of once per touching edit.)
    for (const layout::BoardEdit& edit : storm.edits) {
      const pipeline::ApplyOutcome applied = session.apply(edit);
      EditStormStep step;
      step.rerouted = applied.rerouted_groups.size();
      step.reroute_s = applied.reroute_s;
      out.rerouted_total += step.rerouted;
      out.reroute_total_s += step.reroute_s;
      if (step.rerouted < out.groups_total) out.incremental = true;
      out.steps.push_back(step);
    }

    // Oracle: regenerate the pristine board from the same seed, replay the
    // identical script, route it from scratch.
    scenario::Scenario fresh = scenario::materialize(c.base);
    for (const layout::BoardEdit& edit : storm.edits) {
      layout::apply_edit(fresh.layout, edit);
    }
    const pipeline::Router router(fresh.rules, ropts);
    t0 = core::now();
    const pipeline::BoardRoute full = router.route_board(fresh.layout);
    out.full_route_s = seconds_since(t0);
    out.equivalent = pipeline::routes_equivalent(session.layout(), session.route_state(),
                                                 fresh.layout, full, &out.mismatch);

    const double mean_reroute =
        out.steps.empty() ? 0.0 : out.reroute_total_s / static_cast<double>(out.steps.size());
    out.speedup = mean_reroute > 0.0 ? out.full_route_s / mean_reroute : 0.0;
    storms.push_back(std::move(out));
  }
  return storms;
}

Json Suite::edit_storm_json(const std::vector<EditStormOutcome>& storms) {
  Json out = Json::array();
  for (const EditStormOutcome& s : storms) {
    Json js = Json::object();
    js["name"] = s.name;
    js["base_scenario"] = s.base_scenario;
    js["edits"] = static_cast<std::int64_t>(s.edits);
    js["groups_total"] = static_cast<std::int64_t>(s.groups_total);
    js["rerouted_total"] = static_cast<std::int64_t>(s.rerouted_total);
    js["incremental"] = s.incremental;
    js["equivalent"] = s.equivalent;
    if (!s.equivalent) js["mismatch"] = s.mismatch;
    Json jsteps = Json::array();
    for (const EditStormStep& st : s.steps) {
      Json jst = Json::object();
      jst["rerouted"] = static_cast<std::int64_t>(st.rerouted);
      jst["reroute_s"] = st.reroute_s;
      jsteps.push_back(std::move(jst));
    }
    js["steps"] = std::move(jsteps);
    js["initial_route_s"] = s.initial_route_s;
    js["reroute_total_s"] = s.reroute_total_s;
    js["full_route_s"] = s.full_route_s;
    js["speedup"] = s.speedup;
    out.push_back(std::move(js));
  }
  return out;
}

bool StormOutcome::all_ok() const {
  return !points.empty() &&
         std::all_of(points.begin(), points.end(), [](const StormPoint& p) {
           return p.all_equivalent && p.gates_ok;
         });
}

namespace {

const char* fault_kind_name(scenario::FaultStormKind k) {
  switch (k) {
    case scenario::FaultStormKind::Transient: return "transient";
    case scenario::FaultStormKind::Timeout: return "timeout";
    case scenario::FaultStormKind::Quarantine: return "quarantine";
  }
  return "unknown";
}

/// The counters BoardStats and ServiceTotals share, under the same names.
template <class Counters>
Json counters_json(const Counters& c) {
  Json j = Json::object();
  j["submitted"] = c.submitted;
  j["applied"] = c.applied;
  j["batches"] = c.batches;
  j["coalesced_batches"] = c.coalesced_batches;
  j["max_batch"] = c.max_batch;
  j["max_queue_depth"] = c.max_queue_depth;
  j["evictions"] = c.evictions;
  j["thaws"] = c.thaws;
  j["queued_while_frozen"] = c.queued_while_frozen;
  j["retries"] = c.retries;
  j["timeouts"] = c.timeouts;
  j["injected_faults"] = c.injected_faults;
  j["quarantines"] = c.quarantines;
  j["resurrections"] = c.resurrections;
  j["shed"] = c.shed;
  j["dropped_edits"] = c.dropped_edits;
  return j;
}

/// A board's stats: the shared counters, then the fields only BoardStats has.
Json stats_json(const service::BoardStats& s) {
  Json j = counters_json(s);
  j["reroutes"] = s.reroutes;
  j["degraded_retries"] = s.degraded_retries;
  j["clearance_violations"] = s.clearance_violations;
  j["backoff_virtual_s"] = s.backoff_virtual_s;
  j["route_s"] = s.route_s;
  j["apply_s"] = s.apply_s;
  j["dispatch_wait_s"] = s.dispatch_wait_s;
  j["max_dispatch_wait_s"] = s.max_dispatch_wait_s;
  return j;
}

}  // namespace

StormOutcome Suite::replay(const scenario::FaultStorm& storm,
                           std::optional<scenario::FaultStormKind> kind,
                           const std::vector<std::size_t>& thread_counts) const {
  const scenario::FaultStormCase& c = storm.spec;
  const std::vector<scenario::EditStorm>& boards = storm.storm.boards;
  StormOutcome out;
  out.name = c.name;
  out.kind = kind ? fault_kind_name(*kind) : "service";
  out.fault_seed = c.fault_seed;
  out.boards = boards.size();
  out.events = storm.storm.stream.size();
  out.rules = storm.rules.size();

  // Full-script oracles, once per board — routed geometry is thread-count
  // invariant, and the fault plane must not change where a board *ends up*,
  // only which attempts it loses on the way.
  std::vector<scenario::Scenario> fresh;
  std::vector<pipeline::BoardRoute> fresh_routes;
  for (const scenario::EditStorm& bs : boards) {
    scenario::Scenario f = scenario::materialize(bs.spec.base);
    for (const layout::BoardEdit& e : bs.edits) layout::apply_edit(f.layout, e);
    const pipeline::Router router(f.rules, router_options_for(f));
    fresh_routes.push_back(router.route_board(f.layout));
    fresh.push_back(std::move(f));
  }

  for (const std::size_t threads : thread_counts) {
    // A FRESH plan per replay: occurrence counters are plan state, so a
    // shared instance would shift every window on the second replay.
    service::ServiceOptions sopts;
    sopts.threads = threads;
    sopts.max_attempts = c.max_attempts;
    sopts.fault_plan = std::make_shared<fault::FaultPlan>(storm.rules);
    service::RoutingService svc(sopts);
    for (std::size_t b = 0; b < boards.size(); ++b) {
      const scenario::EditStorm& bs = boards[b];
      pipeline::RouterOptions ropts = scenario_router_options(bs.scenario);
      if (b == storm.timeout_board) ropts.deadline_s = c.deadline_s;
      svc.add_board(bs.spec.name, bs.scenario.rules, ropts, bs.scenario.layout);
    }

    StormPoint p;
    p.threads = threads;
    const auto drain = [&svc, &p] {
      try {
        svc.drain();
        return true;
      } catch (const service::ServiceError& e) {
        p.drain_failures += e.failures().size();
        return false;
      }
    };

    drain();  // initial routes settle; initial-route kills surface here
    const auto t0 = core::now();
    for (const scenario::ServiceStormEvent& ev : storm.storm.stream) {
      (void)svc.submit(boards[ev.board].spec.name, ev.edit);
      if (ev.sync_after) drain();
      if (ev.evict_after) {
        drain();
        svc.evict_idle();
      }
    }
    drain();
    p.replay_s = seconds_since(t0);
    p.edits_per_s = p.replay_s > 0.0 ? static_cast<double>(out.events) / p.replay_s : 0.0;

    p.all_equivalent = true;
    for (std::size_t b = 0; b < boards.size(); ++b) {
      const scenario::EditStorm& bs = boards[b];
      const std::string& id = bs.spec.name;
      StormBoard bo;
      bo.board = id;
      bo.edits = bs.edits.size();
      bo.applied_at_drain = svc.stats(id).applied;
      bo.quarantined = svc.is_quarantined(id);

      if (bo.quarantined) {
        // A quarantined routed board must serve its last-good state: a
        // fresh route of exactly the edits it committed. A board killed
        // during its initial route serves nothing — skip straight to
        // recovery.
        if (svc.is_routed(id)) {
          scenario::Scenario pre = scenario::materialize(bs.spec.base);
          for (std::uint64_t k = 0; k < bo.applied_at_drain; ++k) {
            layout::apply_edit(pre.layout, bs.edits.at(k));
          }
          const pipeline::Router router(pre.rules, router_options_for(pre));
          const pipeline::BoardRoute pre_route = router.route_board(pre.layout);
          bo.prefix_equivalent = pipeline::routes_equivalent(
              svc.board_layout(id), svc.board_route(id), pre.layout, pre_route,
              &bo.mismatch);
        }
        // Re-admit and replay the lost suffix. The storm's rule windows are
        // sized to be exhausted by now, so the replay must converge.
        bool ok = svc.resurrect(id);
        for (std::size_t k = bo.applied_at_drain; k < bs.edits.size(); ++k) {
          ok = svc.submit(id, bs.edits[k]).accepted() && ok;
        }
        ok = drain() && ok;
        bo.recovered = ok && !svc.is_quarantined(id);
      }

      bo.equivalent = pipeline::routes_equivalent(
          svc.board_layout(id), svc.board_route(id), fresh[b].layout,
          fresh_routes[b], &bo.mismatch);
      bo.stats = svc.stats(id);  // recovery included
      p.all_equivalent = p.all_equivalent && bo.ok();
      p.boards.push_back(std::move(bo));
    }
    p.totals = svc.totals();

    const service::ServiceTotals& t = p.totals;
    if (!kind) {
      p.gates_ok = p.drain_failures == 0;
    } else {
      switch (*kind) {
        case scenario::FaultStormKind::Transient:
          // Every window is one-shot: faults must have fired, the first
          // retry rung must have absorbed them, nothing may quarantine.
          p.gates_ok = t.injected_faults >= 1 && t.retries >= 1 && t.quarantines == 0;
          break;
        case scenario::FaultStormKind::Timeout:
          p.gates_ok = t.timeouts >= 1;
          break;
        case scenario::FaultStormKind::Quarantine: {
          const std::size_t targets = storm.quarantine_boards.size();
          const auto hit = std::count_if(
              storm.quarantine_boards.begin(), storm.quarantine_boards.end(),
              [&p](std::size_t qb) { return p.boards[qb].quarantined; });
          p.gates_ok = static_cast<std::size_t>(hit) == targets &&
                       t.quarantines >= targets && t.resurrections >= targets;
          break;
        }
      }
    }
    out.points.push_back(std::move(p));
  }
  return out;
}

std::vector<StormOutcome> Suite::run_service(
    const std::vector<std::size_t>& thread_counts) const {
  std::vector<StormOutcome> outcomes;
  for (const scenario::ServiceStormCase& c :
       scenario::service_storm_cases(opts_.smoke)) {
    scenario::FaultStorm storm;
    storm.spec.name = c.name;
    storm.spec.max_attempts = service::ServiceOptions{}.max_attempts;
    storm.storm = scenario::materialize_service_storm(c);
    outcomes.push_back(replay(storm, std::nullopt, thread_counts));
  }
  return outcomes;
}

std::vector<StormOutcome> Suite::run_fault_storm(
    const std::vector<std::size_t>& thread_counts,
    std::uint64_t seed_override) const {
  std::vector<StormOutcome> outcomes;
  for (const scenario::FaultStormCase& c :
       scenario::fault_storm_cases(opts_.smoke, seed_override)) {
    outcomes.push_back(replay(scenario::materialize_fault_storm(c), c.kind, thread_counts));
  }
  return outcomes;
}

Json Suite::storm_json(const std::vector<StormOutcome>& storms) {
  Json out = Json::array();
  for (const StormOutcome& s : storms) {
    Json js = Json::object();
    js["name"] = s.name;
    js["kind"] = s.kind;
    js["fault_seed"] = static_cast<std::int64_t>(s.fault_seed);
    js["boards"] = static_cast<std::int64_t>(s.boards);
    js["events"] = static_cast<std::int64_t>(s.events);
    js["rules"] = static_cast<std::int64_t>(s.rules);
    js["all_ok"] = s.all_ok();
    Json jpoints = Json::array();
    for (const StormPoint& p : s.points) {
      Json jp = Json::object();
      jp["threads"] = static_cast<std::int64_t>(p.threads);
      jp["replay_s"] = p.replay_s;
      jp["edits_per_s"] = p.edits_per_s;
      jp["totals"] = counters_json(p.totals);
      jp["drain_failures"] = static_cast<std::int64_t>(p.drain_failures);
      jp["all_equivalent"] = p.all_equivalent;
      jp["gates_ok"] = p.gates_ok;
      Json jboards = Json::array();
      for (const StormBoard& b : p.boards) {
        Json jb = Json::object();
        jb["board"] = b.board;
        jb["edits"] = static_cast<std::int64_t>(b.edits);
        jb["applied_at_drain"] = b.applied_at_drain;
        jb["stats"] = stats_json(b.stats);
        jb["quarantined"] = b.quarantined;
        jb["prefix_equivalent"] = b.prefix_equivalent;
        jb["recovered"] = b.recovered;
        jb["equivalent"] = b.equivalent;
        if (!b.mismatch.empty()) jb["mismatch"] = b.mismatch;
        jboards.push_back(std::move(jb));
      }
      jp["boards"] = std::move(jboards);
      jpoints.push_back(std::move(jp));
    }
    js["points"] = std::move(jpoints);
    out.push_back(std::move(js));
  }
  return out;
}

Json Suite::to_json(const SuiteResult& result, const SuiteOptions& opts) {
  Json doc = Json::object();
  doc["schema"] = kSchema;
  Json jvol = Json::object();
  Json jrun = run_info_json(collect_run_info());
  // Effective parallelism next to the machine context: `hardware_threads`
  // alone says nothing about what the run actually used.
  jrun["threads_used"] = static_cast<std::int64_t>(exec::resolve_threads(opts.threads));
  jrun["pool_policy"] = opts.threads == 0   ? "shared-pool"
                        : opts.threads == 1 ? "serial"
                                            : "explicit-pool";
  jvol["run"] = std::move(jrun);
  jvol["runtime_s"] = result.runtime_s;
  Json jtiming = Json::array();
  for (const CaseOutcome& c : result.cases) jtiming.push_back(timing_json(c));
  jvol["timing"] = std::move(jtiming);
  doc[kVolatile] = std::move(jvol);

  Json jopts = Json::object();
  jopts["smoke"] = opts.smoke;
  jopts["run_drc"] = opts.router.run_drc;
  jopts["l_disc"] = opts.router.extender.l_disc;
  jopts["max_width_steps"] = static_cast<std::int64_t>(opts.router.extender.max_width_steps);
  doc["options"] = std::move(jopts);

  // Group cases by family, preserving run order.
  Json jfams = Json::array();
  for (std::size_t i = 0; i < result.cases.size();) {
    const std::string& fam = result.cases[i].family;
    Json jf = Json::object();
    jf["family"] = fam;
    Json jcases = Json::array();
    for (; i < result.cases.size() && result.cases[i].family == fam; ++i) {
      const CaseOutcome& c = result.cases[i];
      Json jc = Json::object();
      jc["scenario"] = c.scenario;
      jc["seed"] = Json{c.seed};  // checked: throws above INT64_MAX
      jc["max_error_gate_pct"] = c.max_error_gate_pct;
      jc["expect_drc_clean"] = c.expect_drc_clean;
      jc["traces"] = static_cast<std::int64_t>(c.traces);
      jc["pairs"] = static_cast<std::int64_t>(c.pairs);
      jc["obstacles"] = static_cast<std::int64_t>(c.obstacles);
      jc["ok"] = c.ok();
      Json jgroups = Json::array();
      for (const GroupOutcome& g : c.groups) jgroups.push_back(group_json(g));
      jc["groups"] = std::move(jgroups);
      jcases.push_back(std::move(jc));
    }
    jf["cases"] = std::move(jcases);
    jfams.push_back(std::move(jf));
  }
  doc["families"] = std::move(jfams);

  // Self-description of the generated workloads: one entry per case that
  // actually ran, so `(spec, seed)` pairs in the file regenerate the boards.
  Json jspecs = Json::array();
  for (const scenario::Family& fam : selected_families(opts)) {
    for (const scenario::FamilyCase& fc : fam.cases) {
      Json js = Json::object();
      js["family"] = fam.name;
      js["scenario"] = fc.spec.name;
      js["seed"] = Json{fc.seed};  // checked: throws above INT64_MAX
      if (fc.table1_case > 0) {
        js["table1_case"] = static_cast<std::int64_t>(fc.table1_case);
      } else {
        js["spec"] = spec_json(fc.spec);
      }
      jspecs.push_back(std::move(js));
    }
  }
  doc["specs"] = std::move(jspecs);
  return doc;
}

}  // namespace lmr::bench
