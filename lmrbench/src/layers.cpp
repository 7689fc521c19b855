/// \file layers.cpp
/// Traced-run layer probes: each library layer a workload exercises is
/// called again on its own, from here, inside a span named after the layer.

#include <algorithm>
#include <exception>
#include <optional>
#include <span>

#include "bench.hpp"
#include "core/trace_extender.hpp"
#include "dtw/pair_restore.hpp"
#include "layout/board_edit.hpp"
#include "layout/clearance_index.hpp"
#include "layout/drc_checker.hpp"
#include "pipeline/session.hpp"

namespace lmrbench {

namespace {

using lmr::layout::GroupMember;
using lmr::layout::Layout;
using lmr::layout::MemberKind;
using lmr::layout::Trace;
using lmr::pipeline::RouteResult;
using lmr::pipeline::Router;

/// Repeats of each exec probe configuration; the median is kept.
constexpr int kExecRepeats = 3;
/// One-dirty re-sweeps timed per board (slots spread evenly).
constexpr std::size_t kDirtySlots = 8;
/// Edits of each board's script the bare Session replays (the first ones):
/// enough to average over every edit kind without replaying the whole
/// stream a second time.
constexpr std::size_t kSessionEdits = 24;

std::string board_tag(const Board& b) {
  return b.sc.spec.name + " (seed " + std::to_string(b.fc.seed) + ")";
}

/// Alg. 1 replayed per single-ended member on its pristine copy, with the
/// router's own rules, area and extender options, and the MSDTW merge per
/// differential member. The replay must land on the router's final length
/// exactly, or the span measured a different program.
void probe_extension(const std::vector<RoutedBoard>& boards, Tracer* t, Outcome& out) {
  double dp_runs = 0.0;
  double segments = 0.0;
  double patterns = 0.0;
  for (const RoutedBoard& rb : boards) {
    const Board& b = *rb.board;
    const Layout& pristine = b.sc.layout;
    for (std::size_t g = 0; g < pristine.groups().size(); ++g) {
      const auto& group = pristine.groups()[g];
      for (std::size_t m = 0; m < group.members.size(); ++m) {
        const GroupMember& member = group.members[m];
        const auto* area = pristine.routable_area(member.id);
        if (member.kind == MemberKind::SingleEnded) {
          ++out.attempted;
          Trace trace = pristine.trace(member.id);
          std::optional<lmr::core::TraceExtender> ext;
          {
            const Span s(t, "core.extender_build");
            ext.emplace(b.sc.rules, *area);
          }
          lmr::core::ExtendStats st;
          {
            const Span s(t, "core.extend");
            st = ext->extend(trace, group.target_for(m), b.ropts.extender);
          }
          dp_runs += st.dp_runs;
          segments += st.segments_processed;
          patterns += st.patterns_inserted;
          if (st.final_length != rb.results[g].group.members[m].final_length) {
            out.fail(board_tag(b) + ": extend replay of " + trace.name +
                     " missed the router's final length");
          }
        } else {
          const lmr::layout::DiffPair& pair = pristine.pair(member.id);
          lmr::drc::DesignRules sub_rules = b.sc.rules;
          sub_rules.trace_width = pair.positive.width;
          const std::vector<double> rule_set =
              b.ropts.pair_rule_set.empty() ? std::vector<double>{pair.pitch}
                                            : b.ropts.pair_rule_set;
          const Span s(t, "dtw.merge");
          (void)lmr::dtw::merge_pair(pair, sub_rules, rule_set);
        }
      }
    }
  }
  out.set("core.dp_runs", dp_runs);
  out.set("core.segments_processed", segments);
  out.set("core.patterns", patterns);
  out.set("core.pattern_yield", dp_runs > 0.0 ? patterns / dp_runs : 0.0);
}

/// The per-net oracle calls the router makes for every routed net, against
/// the board's full obstacle list. They must find exactly the per-net
/// violations the router reported.
void probe_drc(const std::vector<RoutedBoard>& boards, Tracer* t, Outcome& out) {
  double obstacle_pairs = 0.0;
  for (const RoutedBoard& rb : boards) {
    const Board& b = *rb.board;
    const Layout& routed = rb.routed;
    const lmr::layout::DrcChecker checker(b.ropts.drc);
    const auto& obstacles = routed.obstacles();
    std::size_t found = 0;
    std::size_t reported = 0;
    for (std::size_t g = 0; g < routed.groups().size(); ++g) {
      const auto& group = routed.groups()[g];
      for (std::size_t m = 0; m < group.members.size(); ++m) {
        const GroupMember& member = group.members[m];
        const auto* area = routed.routable_area(member.id);
        lmr::drc::DesignRules net_rules = b.sc.rules;
        const auto check = [&](const Trace& tr) {
          {
            const Span s(t, "layout.drc_rules");
            found += checker.check_trace(tr, net_rules).size();
          }
          {
            const Span s(t, "layout.drc_obstacles");
            found += checker.check_obstacles(tr, net_rules, obstacles).size();
          }
          {
            const Span s(t, "layout.drc_containment");
            found += checker.check_containment(tr, *area).size();
          }
          obstacle_pairs += static_cast<double>(tr.path.segment_count()) *
                            static_cast<double>(obstacles.size());
        };
        if (member.kind == MemberKind::SingleEnded) {
          check(routed.trace(member.id));
        } else {
          const lmr::layout::DiffPair& pair = routed.pair(member.id);
          net_rules.trace_width = pair.positive.width;
          check(pair.positive);
          check(pair.negative);
        }
        reported += rb.results[g].nets[m].violations.size();
      }
    }
    ++out.attempted;
    if (found != reported) {
      out.fail(board_tag(b) + ": per-net DRC replay found " + std::to_string(found) +
               " violations, the router reported " + std::to_string(reported));
    }
  }
  out.set("layout.drc_obstacle_pairs", obstacle_pairs);
}

/// Whole-board clearance index (one slot per sub-trace, one net per member,
/// the Session::board_clearance shape): cold build + insert + sweep, then
/// one-dirty re-sweeps.
void probe_clearance(const std::vector<RoutedBoard>& boards, Tracer* t) {
  for (const RoutedBoard& rb : boards) {
    const Board& b = *rb.board;
    const Layout& routed = rb.routed;
    std::optional<lmr::layout::ClearanceIndex> index;
    std::vector<const Trace*> slots;
    {
      const Span s(t, "layout.clearance_cold");
      index.emplace(b.sc.rules, b.ropts.drc);
      std::uint32_t net = 0;
      for (const auto& group : routed.groups()) {
        for (const GroupMember& member : group.members) {
          if (member.kind == MemberKind::SingleEnded) {
            slots.push_back(&routed.trace(member.id));
          } else {
            slots.push_back(&routed.pair(member.id).positive);
            slots.push_back(&routed.pair(member.id).negative);
            (void)index->add_slot(slots[slots.size() - 2]->width, net);
          }
          (void)index->add_slot(slots.back()->width, net);
          ++net;
        }
      }
      for (std::size_t i = 0; i < slots.size(); ++i) {
        index->insert(static_cast<std::uint32_t>(i), *slots[i]);
      }
      (void)index->sweep();
    }
    const std::size_t k = std::min(kDirtySlots, slots.size());
    for (std::size_t j = 0; j < k; ++j) {
      const auto slot = static_cast<std::uint32_t>(j * slots.size() / k);
      const Span s(t, "layout.clearance_one_dirty");
      index->remove(slot);
      index->insert(slot, *slots[slot]);
      (void)index->sweep();
    }
  }
}

/// Each group routed alone through route_batch on a fresh copy; the
/// slowest group of each board is its critical group.
void probe_critical(const std::vector<RoutedBoard>& boards, const RunConfig& cfg,
                    lmr::exec::TaskPool* pool, Tracer* t, Outcome& out) {
  double critical_ms = 0.0;
  for (const RoutedBoard& rb : boards) {
    const Board& b = *rb.board;
    const Router router(b.sc.rules, on_pool(b.ropts, pool, cfg.threads));
    double worst = 0.0;
    for (std::size_t g = 0; g < b.sc.layout.groups().size(); ++g) {
      Layout copy = b.sc.layout;
      const auto t0 = lmr::core::now();
      {
        const Span s(t, "pipeline.route_batch");
        (void)router.route_batch(copy, g);
      }
      worst = std::max(worst, ms_since(t0));
    }
    critical_ms += worst;
  }
  out.set("pipeline.critical_group_ms", critical_ms);
}

/// The workload's boards routed at 1 thread and at `threads`: wall time
/// and the summed per-member extend + per-net DRC work RouteResult reports.
void probe_exec(const std::vector<RoutedBoard>& boards, const RunConfig& cfg,
                lmr::exec::TaskPool* pool, Tracer* t, Outcome& out) {
  const auto measure = [&](std::size_t threads, const char* span, double& work_s) {
    std::vector<double> wall;
    std::vector<double> work;
    for (int rep = 0; rep < kExecRepeats; ++rep) {
      double ms = 0.0;
      double w = 0.0;
      for (const RoutedBoard& rb : boards) {
        const Board& b = *rb.board;
        lmr::pipeline::RouterOptions o = b.ropts;
        o.threads = threads;
        if (threads > 1) o.pool = pool;
        const Router router(b.sc.rules, o);
        Layout copy = b.sc.layout;
        const auto t0 = lmr::core::now();
        std::vector<RouteResult> results;
        {
          const Span s(t, span);
          results = router.route_all(copy);
        }
        ms += ms_since(t0);
        for (const RouteResult& rr : results) w += rr.extend_runtime_s + rr.drc_overlap_runtime_s;
      }
      wall.push_back(ms);
      work.push_back(w);
    }
    work_s = median(work);
    return median(wall);
  };
  double work_1 = 0.0;
  double work_n = 0.0;
  const double wall_1 = measure(1, "exec.route_all_1_thread", work_1);
  const double wall_n = measure(cfg.threads, "exec.route_all_n_threads", work_n);
  out.set("exec.parallel_efficiency",
          wall_1 / (static_cast<double>(cfg.threads) * wall_n));
  out.set("exec.work_inflation", work_1 > 0.0 ? work_n / work_1 : 0.0);
}

/// A bare Session replaying the start of each script one edit at a time,
/// with the board-wide clearance sweep after every edit (the service's
/// dispatch shape at batch size one); the edit lowering alone on a scratch
/// copy.
void probe_session(const std::vector<Script>& scripts, const RunConfig& cfg,
                   lmr::exec::TaskPool* pool, Tracer* t, Outcome& out) {
  double rerouted = 0.0;
  double groups = 0.0;
  for (const Script& sc : scripts) {
    const Board& b = *sc.board;
    ++out.attempted;
    const std::span<const lmr::layout::BoardEdit> edits(
        sc.edits.data(), std::min(sc.edits.size(), kSessionEdits));
    try {
      Layout scratch = b.sc.layout;
      for (const auto& edit : edits) {
        const Span s(t, "layout.apply_edit");
        (void)lmr::layout::apply_edit(scratch, edit);
      }
      lmr::pipeline::Session session(b.sc.rules, on_pool(b.ropts, pool, cfg.threads),
                                     b.sc.layout);
      session.route();
      (void)session.board_clearance();
      for (const auto& edit : edits) {
        lmr::pipeline::ApplyOutcome applied;
        {
          const Span s(t, "pipeline.session_apply");
          applied = session.apply(edit);
        }
        {
          const Span s(t, "pipeline.board_clearance");
          (void)session.board_clearance();
        }
        rerouted += static_cast<double>(applied.rerouted_groups.size());
        groups += static_cast<double>(applied.groups_total);
      }
    } catch (const std::exception& e) {
      out.fail(board_tag(b) + ": session replay threw: " + e.what());
    }
  }
  out.set("pipeline.reroute_fraction", groups > 0.0 ? rerouted / groups : 0.0);
}

}  // namespace

void run_layer_probes(const std::vector<RoutedBoard>& boards,
                      const std::vector<Script>& scripts, const RunConfig& cfg,
                      lmr::exec::TaskPool* pool, Tracer& tracer, Outcome& out) {
  Tracer* t = &tracer;
  const Span probes(t, "bench.layer_probes");
  probe_extension(boards, t, out);
  probe_drc(boards, t, out);
  probe_clearance(boards, t);
  probe_critical(boards, cfg, pool, t, out);
  probe_exec(boards, cfg, pool, t, out);
  probe_session(scripts, cfg, pool, t, out);
}

void set_rollup_metrics(const Tracer& tracer, std::size_t setups, Outcome& out) {
  const std::map<std::string, SpanTotals> r = tracer.rollup();
  const auto self_ms = [&](const char* name) {
    const auto it = r.find(name);
    return it == r.end() ? 0.0 : it->second.self_ms;
  };
  const auto mean_ms = [&](const char* name) {
    const auto it = r.find(name);
    return it == r.end() || it->second.count == 0
               ? 0.0
               : it->second.self_ms / static_cast<double>(it->second.count);
  };
  out.set("scenario.materialize_ms",
          self_ms("scenario.materialize") / static_cast<double>(std::max<std::size_t>(setups, 1)));
  // Totals over one replay of the workload's boards.
  out.set("core.extender_build_ms", self_ms("core.extender_build"));
  out.set("core.extend_ms", self_ms("core.extend"));
  out.set("dtw.merge_ms", self_ms("dtw.merge"));
  out.set("layout.drc_rules_ms", self_ms("layout.drc_rules"));
  out.set("layout.drc_obstacles_ms", self_ms("layout.drc_obstacles"));
  out.set("layout.drc_containment_ms", self_ms("layout.drc_containment"));
  out.set("layout.clearance_cold_ms", self_ms("layout.clearance_cold"));
  // Means per operation.
  out.set("layout.clearance_one_dirty_ms", mean_ms("layout.clearance_one_dirty"));
  out.set("layout.apply_edit_ms", mean_ms("layout.apply_edit"));
  out.set("pipeline.session_apply_ms", mean_ms("pipeline.session_apply"));
  out.set("pipeline.board_clearance_ms", mean_ms("pipeline.board_clearance"));
}

}  // namespace lmrbench
