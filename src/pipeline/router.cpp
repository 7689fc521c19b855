#include "pipeline/router.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "baseline/aidt_style.hpp"
#include "core/clock.hpp"
#include "core/contract.hpp"
#include "dtw/dtw.hpp"
#include "dtw/median_trace.hpp"
#include "dtw/pair_restore.hpp"
#include "layout/clearance_index.hpp"

namespace lmr::pipeline {

namespace {

using core::seconds_since;

/// One net's inputs, copied out of the layout so that workers never touch
/// shared state: extension runs entirely on this private copy.
struct MemberWork {
  layout::GroupMember member;
  double target = 0.0;
  const layout::RoutableArea* area = nullptr;
  /// The route call's obstacle index (read-only, shared by every member)
  /// for restore validation and the per-net oracle.
  const layout::ObstacleIndex* obstacles = nullptr;
  std::size_t index = 0;  ///< member index in its group
  layout::Trace trace;    ///< single-ended members
  layout::DiffPair pair;  ///< differential members
  /// Bbox of the member's geometry before extension (both sub-traces of a
  /// pair), part of its NetResult::domain.
  geom::Box pre_route_bbox;
  /// Width-adjusted rules this member's traces are checked against.
  drc::DesignRules net_rules;
  /// First clearance-index slot (a pair owns slot0 and slot0 + 1).
  std::uint32_t slot0 = 0;
};

void route_single_ended(const drc::DesignRules& rules, const RouterOptions& opts,
                        MemberWork& w, MemberReport& mr) {
  mr.name = w.trace.name;
  mr.initial_length = w.trace.length();
  if (opts.engine == Engine::AidtStyle) {
    baseline::AidtStyleTuner tuner(rules, *w.area);
    const baseline::AidtStats stats = tuner.tune(w.trace, w.target);
    mr.final_length = stats.final_length;
    mr.reached = stats.reached;
  } else {
    core::TraceExtender ext(rules, *w.area);
    const core::ExtendStats stats = ext.extend(w.trace, w.target, opts.extender);
    mr.final_length = stats.final_length;
    mr.reached = stats.reached;
    mr.patterns = stats.patterns_inserted;
  }
}

void route_pair(const drc::DesignRules& rules, const RouterOptions& opts,
                MemberWork& w, MemberReport& mr) {
  layout::DiffPair& pair = w.pair;
  mr.name = pair.name;
  mr.initial_length =
      std::max(pair.positive.path.length(), pair.negative.path.length());

  if (opts.engine == Engine::AidtStyle) {
    // The "common way" of §V-A: naive DTW median (no filtering) tuned as one
    // wide trace under the virtual rules, restored without skew
    // compensation.
    const auto& pp = pair.positive.path.points();
    const auto& nn = pair.negative.path.points();
    const dtw::DtwResult match = dtw::dtw_match(pp, nn);
    dtw::MedianTrace mt = dtw::build_median_trace(pp, nn, match.pairs);
    layout::Trace median;
    median.path = std::move(mt.median);
    median.width = 2.0 * pair.positive.width + pair.pitch;
    const drc::DesignRules vr = drc::virtual_pair_rules(rules, pair.pitch);
    baseline::AidtStyleTuner tuner(vr, *w.area);
    const baseline::AidtStats stats = tuner.tune(median, w.target);
    layout::DiffPair restored =
        dtw::restore_pair(median, pair.pitch, pair.positive.width);
    pair.positive.path = std::move(restored.positive.path);
    pair.negative.path = std::move(restored.negative.path);
    mr.reached = stats.reached;
  } else {
    // Merge -> extend median under virtual rules with the restore-margin
    // constraint -> piecewise restore at per-node DRA pitches -> compensate.
    drc::DesignRules sub_rules = rules;
    sub_rules.trace_width = pair.positive.width;
    dtw::MergedPair merged = dtw::merge_pair(
        pair, sub_rules,
        opts.pair_rule_set.empty() ? std::vector<double>{pair.pitch} : opts.pair_rule_set);
    // Snapshot the pre-extension median: it is the DRA attribution reference
    // for both the extender's margin probe and the post-extension transfer.
    const geom::Polyline reference = merged.median.path;
    const std::vector<double> reference_pitch = merged.node_pitch;
    // The median is shorter than the sub-traces by half the pair spread at
    // corners; target the median so the *sub-traces* reach the group target
    // (sub length ≈ median length + skipped detours).
    const double median_target =
        w.target - std::max(merged.skipped_p_length, merged.skipped_n_length);
    core::TraceExtender ext(merged.virtual_rules, *w.area);
    core::ExtenderConfig ecfg = opts.extender;
    // Rule-aware extension: the virtual rules cover a restore at the base
    // pitch exactly; wherever a wider DRA rule applies, patterns must keep
    // the extra clearance the ±rule/2 restore offsets will consume. A
    // single-DRA pair probes to the zero margin everywhere, so skip the
    // per-segment probes (an O(|median|) scan each) entirely.
    const double widest =
        reference_pitch.empty()
            ? merged.base_pitch
            : *std::max_element(reference_pitch.begin(), reference_pitch.end());
    if (widest > merged.base_pitch) {
      // The extender probes the same segments over and over (once per other
      // segment of the trace on every queue pop) and the reference median
      // is immutable for the whole extension — memoize by endpoints so each
      // distinct segment pays the O(|reference|) attribution scan once.
      using MarginKey = std::array<double, 4>;
      const auto cache = std::make_shared<std::map<MarginKey, drc::RestoreMargin>>();
      ecfg.restore_margin = [&, cache](const geom::Segment& s) {
        const MarginKey key{s.a.x, s.a.y, s.b.x, s.b.y};
        const auto it = cache->find(key);
        if (it != cache->end()) return it->second;
        const drc::RestoreMargin m = drc::restore_margin(
            sub_rules, merged.base_pitch,
            dtw::local_restore_pitch(reference, reference_pitch, s));
        return cache->emplace(key, m).first->second;
      };
    }
    const core::ExtendStats stats = ext.extend(
        merged.median, std::max(median_target, merged.median.length()), ecfg);
    const std::vector<double> node_pitch =
        dtw::transfer_node_pitch(reference, reference_pitch, merged.median.path);
    dtw::RestoreSpec rspec;
    rspec.pitch = pair.pitch;
    rspec.sub_width = pair.positive.width;
    rspec.node_pitch = node_pitch;
    rspec.breakout_p = merged.breakout_p;
    rspec.breakout_n = merged.breakout_n;
    layout::DiffPair restored = dtw::restore_pair(merged.median, rspec);
    // Restoration keeps the median's base nodes where meander legs cross the
    // pair axis; after the +/- pitch/2 offset those collinear splits can
    // leave sub-d_protect half-segments that the oracle would flag as stubs.
    // They carry no geometry, so drop them — before skew compensation, whose
    // host-segment search needs the un-fragmented straight runs.
    restored.positive.path.simplify(1e-9);
    restored.negative.path.simplify(1e-9);
    dtw::compensate_skew(restored, sub_rules, w.area, w.obstacles);
    pair.positive.path = std::move(restored.positive.path);
    pair.negative.path = std::move(restored.negative.path);
    mr.reached = stats.reached;
    mr.patterns = stats.patterns_inserted;
  }
  mr.final_length =
      std::min(pair.positive.path.length(), pair.negative.path.length());
}

MemberReport route_member(const drc::DesignRules& rules, const RouterOptions& opts,
                          MemberWork& w) {
  MemberReport mr;
  mr.id = w.member.id;
  mr.kind = w.member.kind;
  mr.target = w.target;
  const auto t0 = core::now();
  if (w.member.kind == layout::MemberKind::SingleEnded) {
    route_single_ended(rules, opts, w, mr);
  } else {
    route_pair(rules, opts, w, mr);
  }
  mr.runtime_s = seconds_since(t0);
  return mr;
}

void append(std::vector<layout::Violation>& out, std::vector<layout::Violation> v) {
  out.insert(out.end(), std::make_move_iterator(v.begin()),
             std::make_move_iterator(v.end()));
}

/// Copy of member `id`'s live geometry.
MemberSeed copy_member(const layout::Layout& layout, layout::TraceId id,
                       layout::MemberKind kind) {
  MemberSeed seed;
  seed.kind = kind;
  if (kind == layout::MemberKind::SingleEnded) {
    seed.primary = layout.trace(id).path;
  } else {
    const layout::DiffPair& pair = layout.pair(id);
    seed.primary = pair.positive.path;
    seed.secondary = pair.negative.path;
  }
  return seed;
}

/// Member `m`'s live traces: the trace, or a pair's two sub-traces (the
/// second entry is null for a single-ended member).
std::array<const layout::Trace*, 2> member_traces(const layout::Layout& layout,
                                                  const layout::GroupMember& m) {
  if (m.kind == layout::MemberKind::SingleEnded) return {&layout.trace(m.id), nullptr};
  const layout::DiffPair& pair = layout.pair(m.id);
  return {&pair.positive, &pair.negative};
}

/// Renumber a kept net's obstacle references across the removals a reroute
/// covers (obstacle indices at removal time, in journal order): each
/// removal shifts every later obstacle down by one.
void shift_obstacle_refs(std::vector<layout::Violation>& violations,
                         std::span<const std::size_t> removed) {
  for (layout::Violation& v : violations) {
    if (v.kind != layout::ViolationKind::ObstacleClearance) continue;
    for (const std::size_t r : removed) {
      LMR_ASSERT(v.index_b != r, "a kept member never neighbours a removed obstacle");
      if (v.index_b > r) --v.index_b;
    }
  }
}

/// Move every seed's geometry over its member's live paths. Moves do not
/// allocate, so a rollback cannot fail halfway.
void restore(layout::Layout& layout, std::map<layout::TraceId, MemberSeed>& seeds) {
  for (auto& [id, seed] : seeds) {
    if (seed.kind == layout::MemberKind::SingleEnded) {
      layout.trace(id).path = std::move(seed.primary);
    } else {
      layout::DiffPair& pair = layout.pair(id);
      pair.positive.path = std::move(seed.primary);
      pair.negative.path = std::move(seed.secondary);
    }
  }
}

}  // namespace

bool RouteResult::matched() const {
  return std::all_of(group.members.begin(), group.members.end(),
                     [](const MemberReport& m) { return m.reached; });
}

bool RouteResult::drc_clean() const { return violation_count() == 0; }

std::size_t RouteResult::violation_count() const {
  std::size_t n = cross_violations.size();
  for (const NetResult& net : nets) n += net.violations.size();
  return n;
}

Router::Router(drc::DesignRules rules, RouterOptions options)
    : rules_(rules), options_(std::move(options)), pool_handle_(options_.threads) {
  rules_.validate();
}

Router::GroupJob Router::whole_group(const layout::Layout& layout, std::size_t group) {
  GroupJob job;
  job.group = group;
  job.members.resize(layout.groups().at(group).members.size());
  std::iota(job.members.begin(), job.members.end(), std::size_t{0});
  return job;
}

RouteResult Router::route_batch(layout::Layout& layout, std::size_t group_index) const {
  if (group_index >= layout.groups().size()) {
    throw std::out_of_range("Router: bad group index");
  }
  std::map<layout::TraceId, MemberSeed> snapshot;
  for (const layout::GroupMember& m : layout.groups()[group_index].members) {
    snapshot.try_emplace(m.id, copy_member(layout, m.id, m.kind));
  }
  std::vector<RouteResult> results(layout.groups().size());
  route_groups(layout, {whole_group(layout, group_index)}, results, snapshot, nullptr);
  return std::move(results[group_index]);
}

std::vector<RouteResult> Router::route_all(layout::Layout& layout) const {
  return route_board(layout).results;
}

void Router::route_groups(layout::Layout& layout, const std::vector<GroupJob>& jobs,
                          std::vector<RouteResult>& results,
                          std::map<layout::TraceId, MemberSeed>& snapshot,
                          const layout::ObstacleIndex* obstacles) const {
  // Every caller snapshots whether or not a fault plan, cancel token or
  // deadline is armed: extension can throw with nothing armed (no routable
  // area, a meander target below the current length, pair-restore
  // misalignment), and the strong guarantee callers rely on (Session retry
  // and the service's drop-bad-edit recovery) covers every group's
  // write-backs.
  try {
    const layout::Layout::RoutingFreeze freeze = layout.freeze_for_routing();
    std::optional<layout::ObstacleIndex> own;
    if (obstacles == nullptr) obstacles = &own.emplace(layout.obstacles());
    const std::size_t threads = exec::resolve_threads(options_.threads);
    if (threads <= 1 || jobs.size() <= 1) {
      for (const GroupJob& job : jobs) results[job.group] = run(layout, job, threads, *obstacles);
    } else {
      // One task per group; the nested member fan-out inside run() lands on
      // the same pool (workers push to their own deques, idle workers
      // steal), so a board of many small groups fills every worker instead
      // of running its groups back to back.
      exec::parallel_for_dynamic(pool(), jobs.size(), threads, [&](std::size_t k) {
        results[jobs[k].group] = run(layout, jobs[k], threads, *obstacles);
      });
    }
  } catch (...) {
    // Both fan-outs drain every claimer before they rethrow, so nothing
    // writes the layout any more: members of groups that failed, and of
    // sibling groups that finished, all go back to the snapshot.
    restore(layout, snapshot);
    throw;
  }
}

exec::TaskPool& Router::pool() const {
  if (options_.pool != nullptr) return *options_.pool;
  exec::TaskPool* pool = pool_handle_.acquire();
  // acquire() is null only for the serial configuration (threads == 1),
  // which never reaches the fan-out paths; for a direct accessor call the
  // shared singleton is the only sensible executor to hand out.
  return pool != nullptr ? *pool : exec::TaskPool::shared();
}

RouteResult Router::run(layout::Layout& layout, const GroupJob& job, std::size_t threads,
                        const layout::ObstacleIndex& obstacles) const {
  const std::size_t group_index = job.group;
  LMR_ASSERT(group_index < layout.groups().size(), "route calls pass existing groups");
  // Board edits are rejected while any route is in flight (every caller
  // holds a routing freeze): the stages below read obstacles, areas and
  // group structure from the live layout, so an interleaved mutation would
  // race. Trace-geometry write-backs are not gated — they are the route's
  // own output channel.
  LMR_REQUIRE(layout.frozen(), "the caller holds a routing freeze");
  LMR_REQUIRE(obstacles.indexes(layout.obstacles()), "the obstacle index covers this board");
  const layout::MatchGroup& group = layout.groups()[group_index];
  const std::size_t n_members = group.members.size();
  const RouteResult* prior = job.prior;
  LMR_REQUIRE(prior != nullptr || job.members.size() == n_members,
              "a job without a prior result routes every member");
  LMR_REQUIRE(prior == nullptr || prior->nets.size() == n_members,
              "a kept member's result sits at its member index");
  const auto t_run = core::now();
  const bool drc = options_.run_drc;

  // Fault plane + cancellation. The deadline budget is per run() call (one
  // group's route); the derived token still honours an external cancel.
  // Both are disarmed by default, in which case the only cost below is a
  // null test per site/poll — the token is threaded into the extender
  // config via a patched options copy made once per run, never per member.
  fault::FaultPlan* const plan = options_.fault_plan.get();
  fault::CancelToken token = options_.cancel;
  if (options_.deadline_s > 0.0) token = token.with_deadline(options_.deadline_s);
  const RouterOptions* opts = &options_;
  std::optional<RouterOptions> patched;
  if (token.armed()) {
    patched = options_;
    patched->extender.cancel = token;
    opts = &*patched;
  }

  // Set-up (serial): declare every member's clearance-index slots in member
  // order (which fixes the deterministic violation order), copy out and
  // validate every member the job routes, and land every kept member's
  // geometry — its routed geometry, unchanged since `prior` — in the index.
  std::vector<MemberWork> work;
  work.reserve(job.members.size());
  layout::ClearanceIndex index(rules_, options_.drc);
  for (std::size_t m = 0; m < n_members; ++m) {
    const layout::GroupMember& gm = group.members[m];
    const bool routed = work.size() < job.members.size() && job.members[work.size()] == m;
    if (routed) {
      MemberWork& w = work.emplace_back();
      w.member = gm;
      w.index = m;
      w.target = group.target_for(m);
      w.area = layout.routable_area(w.member.id);
      if (w.area == nullptr) {
        throw std::invalid_argument("Router: member has no routable area");
      }
      w.obstacles = &obstacles;
      w.net_rules = rules_;
      if (w.member.kind == layout::MemberKind::SingleEnded) {
        w.trace = layout.trace(w.member.id);
        w.pre_route_bbox = w.trace.path.bbox();
      } else {
        w.pair = layout.pair(w.member.id);
        w.pre_route_bbox = w.pair.positive.path.bbox();
        w.pre_route_bbox.expand(w.pair.negative.path.bbox());
        w.net_rules.trace_width = w.pair.positive.width;
      }
    }
    const auto [first, second] = member_traces(layout, gm);
    const auto net = static_cast<std::uint32_t>(m);
    const std::uint32_t slot0 = index.add_slot(first->width, net);
    if (second != nullptr) index.add_slot(second->width, net);
    if (routed) {
      work.back().slot0 = slot0;
    } else if (drc) {
      index.insert(slot0, *first);
      if (second != nullptr) index.insert(slot0 + 1, *second);
    }
  }
  LMR_ASSERT(work.size() == job.members.size(), "job member indices are ascending and valid");
  const std::size_t n = work.size();

  // Per-member result slots, all index-addressed so the outcome — including
  // violation order — is independent of the order members run in.
  const layout::DrcChecker checker(options_.drc);
  std::vector<MemberReport> reports(n);
  std::vector<std::vector<layout::Violation>> net_violations(n);
  std::vector<double> drc_stage_s(n, 0.0);
  std::vector<double> extend_done_s(n, 0.0);

  // One member, start to finish: extend on its private snapshot, write the
  // finished geometry back into the layout (members own distinct map
  // entries, so concurrent write-backs are race-free), then run the per-net
  // oracle on that member's own layout geometry and land its traces in the
  // incremental clearance index, while other members may still be extending.
  const auto route_one = [&](std::size_t i) {
    token.check();
    MemberWork& w = work[i];
    if (plan != nullptr) {
      plan->at_site(fault::extend_site(options_.fault_scope, group_index, w.index));
    }
    reports[i] = route_member(rules_, *opts, w);
    extend_done_s[i] = seconds_since(t_run);

    if (w.member.kind == layout::MemberKind::SingleEnded) {
      layout.trace(w.member.id).path = std::move(w.trace.path);
    } else {
      layout::DiffPair& pair = layout.pair(w.member.id);
      pair.positive.path = std::move(w.pair.positive.path);
      pair.negative.path = std::move(w.pair.negative.path);
    }

    if (!drc) return;
    token.check();
    const auto t0 = core::now();
    std::vector<layout::Violation>& out = net_violations[i];
    const auto check_one = [&](const layout::Trace& t, std::uint32_t slot) {
      append(out, checker.check_trace(t, w.net_rules));
      append(out, checker.check_obstacles(t, w.net_rules, *w.obstacles));
      append(out, checker.check_containment(t, *w.area));
      index.insert(slot, t);
    };
    if (w.member.kind == layout::MemberKind::SingleEnded) {
      check_one(layout.trace(w.member.id), w.slot0);
    } else {
      const layout::DiffPair& pair = layout.pair(w.member.id);
      check_one(pair.positive, w.slot0);
      check_one(pair.negative, w.slot0 + 1);
    }
    drc_stage_s[i] = seconds_since(t0);
  };

  // A failed member aborts the whole group; route_groups puts back the
  // geometry of every member that had already written back.
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) route_one(i);
  } else {
    exec::parallel_for_dynamic(pool(), n, threads, route_one);
  }
  // The sweep-site fault models "group failed during final DRC".
  token.check();
  if (plan != nullptr) {
    plan->at_site(fault::sweep_site(options_.fault_scope, group_index));
  }

  // Member results in member order: the routed members' fresh ones, with
  // their domain (area plus pre- and post-route paths, what reroute()'s
  // delta → dirty-member proof tests edits against), and the kept members'
  // carried over verbatim. Matching-phase wall time is when the last routed
  // member finished extending (per-net checks are reported separately).
  RouteResult result;
  result.group.group_name = group.name;
  result.group.target = group.target_length;
  result.group.members.reserve(n_members);
  result.nets.reserve(n_members);
  for (std::size_t m = 0, i = 0; m < n_members; ++m) {
    if (i == n || work[i].index != m) {
      result.group.members.push_back(prior->group.members[m]);
      result.nets.push_back(prior->nets[m]);
      continue;
    }
    const MemberWork& w = work[i];
    NetResult net{reports[i], std::move(net_violations[i]), w.area->bbox()};
    net.domain.expand(w.pre_route_bbox);
    for (const layout::Trace* t : member_traces(layout, w.member)) {
      if (t != nullptr) net.domain.expand(t->path.bbox());
    }
    result.group.members.push_back(std::move(reports[i]));
    result.nets.push_back(std::move(net));
    result.group.runtime_s = std::max(result.group.runtime_s, extend_done_s[i]);
    result.extend_runtime_s += result.group.members.back().runtime_s;
    result.drc_overlap_runtime_s += drc_stage_s[i];
    ++i;
  }

  // Eq. 19 over final and initial lengths, on error magnitudes (overshoot
  // counts like undershoot — same convention as workload::matching_errors;
  // not shared code because members may carry individual targets here).
  const auto errors = [&](bool initial) {
    double max_e = 0.0, sum_e = 0.0;
    for (const MemberReport& mr : result.group.members) {
      const double len = initial ? mr.initial_length : mr.final_length;
      const double e = mr.target > 0.0 ? std::abs(mr.target - len) / mr.target : 0.0;
      max_e = std::max(max_e, e);
      sum_e += e;
    }
    const auto n = static_cast<double>(result.group.members.size());
    return std::pair{100.0 * max_e,
                     result.group.members.empty() ? 0.0 : 100.0 * sum_e / n};
  };
  std::tie(result.group.initial_max_error_pct, result.group.initial_avg_error_pct) =
      errors(true);
  std::tie(result.group.max_error_pct, result.group.avg_error_pct) = errors(false);

  // The only barrier: the cross-member clearance query pass over the
  // incrementally-built index.
  if (drc) {
    const auto t_barrier = core::now();
    result.cross_violations = index.sweep();
    result.drc_barrier_runtime_s = seconds_since(t_barrier);
  }

  result.runtime_s = seconds_since(t_run);
  return result;
}

BoardRoute Router::route_board(layout::Layout& layout,
                               const layout::ObstacleIndex* obstacles) const {
  BoardRoute board;
  std::vector<GroupJob> jobs;
  for (std::size_t g = 0; g < layout.groups().size(); ++g) {
    jobs.push_back(whole_group(layout, g));
    board.rerouted_groups.push_back(g);
    for (const layout::GroupMember& m : layout.groups()[g].members) {
      board.seeds.try_emplace(m.id, copy_member(layout, m.id, m.kind));
      board.rerouted_members.push_back(m);
    }
  }
  board.results.resize(layout.groups().size());
  // The seeds are the pre-call geometry: they double as the rollback
  // snapshot, so every path on the board is copied once.
  route_groups(layout, jobs, board.results, board.seeds, obstacles);
  board.version = layout.version();
  return board;
}

double Router::interaction_radius(const layout::Layout& layout) const {
  // Worst-case interaction radius: anything farther than this from
  // everything a net's route read or produced cannot change its extension
  // (obstacles enter routing only through area holes and proximity
  // checks), its per-net oracle verdicts (gap / obstacle clearances top
  // out at effective_gap / effective_obs for the widest trace) or its part
  // of the cross-member sweep.
  double w_max = rules_.trace_width;
  for (const auto& [id, t] : layout.traces()) {
    (void)id;
    w_max = std::max(w_max, t.width);
  }
  for (const auto& [id, p] : layout.pairs()) {
    (void)id;
    w_max = std::max({w_max, p.positive.width, p.negative.width});
  }
  return rules_.effective_gap() + rules_.effective_obs() + w_max +
         options_.drc.tolerance;
}

std::vector<Router::GroupJob> Router::affected_members(
    const layout::Layout& layout, const BoardRoute& prior,
    std::span<const layout::LayoutDelta> deltas) const {
  const std::size_t n_groups = layout.groups().size();
  const std::size_t known = std::min(n_groups, prior.results.size());
  // Groups the prior route has no result for (created by these edits) have
  // nothing to keep — route them whole.
  std::vector<bool> whole(n_groups, false);
  for (std::size_t g = known; g < n_groups; ++g) whole[g] = true;
  std::vector<std::vector<bool>> hit(known);
  for (std::size_t g = 0; g < known; ++g) hit[g].assign(prior.results[g].nets.size(), false);

  const double radius = interaction_radius(layout);
  const auto hit_near = [&](const geom::Box& dirty) {
    if (dirty.empty()) return;
    const geom::Box probe = dirty.inflated(radius);
    for (std::size_t g = 0; g < known; ++g) {
      const std::vector<NetResult>& nets = prior.results[g].nets;
      for (std::size_t m = 0; m < nets.size(); ++m) {
        if (probe.intersects(nets[m].domain)) hit[g][m] = true;
      }
    }
  };

  for (const layout::LayoutDelta& d : deltas) {
    switch (d.kind) {
      case layout::DeltaKind::AddTrace:
      case layout::DeltaKind::AddPair:
        break;  // ungrouped geometry participates in no group's route
      case layout::DeltaKind::SetBoard:
        std::fill(whole.begin(), whole.end(), true);
        break;
      case layout::DeltaKind::AddGroup:
      case layout::DeltaKind::AddGroupMember:
      case layout::DeltaKind::RemoveGroupMember:
      case layout::DeltaKind::SetGroupTarget:
      case layout::DeltaKind::SetMemberTarget:
        if (d.group < n_groups) whole[d.group] = true;
        break;
      case layout::DeltaKind::SetRoutableArea:
        // The dirty box holds the old area's bbox, which is part of the
        // owning member's domain, so the owner is always among the hits.
      case layout::DeltaKind::AddObstacle:
      case layout::DeltaKind::MoveObstacle:
      case layout::DeltaKind::RemoveObstacle:
        hit_near(d.dirty);
        break;
    }
  }

  std::vector<GroupJob> jobs;
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (whole[g]) {
      jobs.push_back(whole_group(layout, g));
      continue;
    }
    // No membership delta reached this group, so its members still sit at
    // the indices of its prior result.
    LMR_ASSERT(hit[g].size() == layout.groups()[g].members.size(),
               "a group without membership deltas keeps its members");
    GroupJob job;
    job.group = g;
    job.prior = &prior.results[g];
    for (std::size_t m = 0; m < hit[g].size(); ++m) {
      if (hit[g][m]) job.members.push_back(m);
    }
    if (!job.members.empty()) jobs.push_back(std::move(job));
  }
  return jobs;
}

void Router::reroute(layout::Layout& layout, BoardRoute& route,
                     const layout::ObstacleIndex& obstacles) const {
  const std::span<const layout::LayoutDelta> deltas = layout.deltas_since(route.version);
  const std::size_t n_groups = layout.groups().size();
  // Groups are only ever appended. Reserve first: jobs point into
  // route.results, and the splice must not reallocate.
  route.results.reserve(n_groups);
  const std::vector<GroupJob> jobs = affected_members(layout, route, deltas);
  std::vector<std::size_t> removed;
  for (const layout::LayoutDelta& d : deltas) {
    if (d.kind == layout::DeltaKind::RemoveObstacle) removed.push_back(d.obstacle);
  }

  // Every member a job routes — and, for a group routed whole, every member
  // it held when `route` routed it (a member edited out must fall back to
  // its pristine geometry, same as a fresh route of the edited board would
  // leave it) — restarts from its pristine seed. Members the prior route
  // never saw are seeded here: un-routed geometry *is* pristine. The
  // rollback snapshot is their geometry before the restart, so a throw
  // hands back the pre-call layout, not the seeds. The restart only moves
  // copies in, which cannot throw, so every later throw comes from
  // route_groups, which puts the snapshot back.
  std::map<layout::TraceId, MemberSeed> snapshot;
  std::map<layout::TraceId, MemberSeed> start;
  std::map<layout::TraceId, MemberSeed> new_seeds;
  std::vector<std::size_t> rerouted_groups;
  std::vector<layout::GroupMember> rerouted_members;
  const auto touch = [&](layout::TraceId id, layout::MemberKind kind) {
    if (snapshot.contains(id)) return;
    const MemberSeed& now = snapshot.emplace(id, copy_member(layout, id, kind)).first->second;
    const auto seed = route.seeds.find(id);
    if (seed != route.seeds.end()) {
      start.emplace(id, seed->second);
    } else {
      start.emplace(id, now);
      new_seeds.emplace(id, now);
    }
  };
  for (const GroupJob& job : jobs) {
    const std::vector<layout::GroupMember>& members = layout.groups()[job.group].members;
    if (job.prior == nullptr && job.group < route.results.size()) {
      for (const MemberReport& m : route.results[job.group].group.members) touch(m.id, m.kind);
    }
    for (const std::size_t m : job.members) {
      touch(members[m].id, members[m].kind);
      rerouted_members.push_back(members[m]);
    }
    rerouted_groups.push_back(job.group);
  }

  // Fresh results are built on the side; `route` is not touched until they
  // all exist.
  std::vector<RouteResult> fresh(n_groups);
  restore(layout, start);
  route_groups(layout, jobs, fresh, snapshot, &obstacles);

  // Splice: moves and integer updates only, so it cannot throw. Kept
  // members' obstacle references follow the removals; routed members were
  // checked against the list as it is now.
  auto job = jobs.begin();
  for (std::size_t g = 0; g < n_groups; ++g) {
    const GroupJob* routed = job != jobs.end() && job->group == g ? &*job++ : nullptr;
    if (g == route.results.size()) {
      route.results.push_back(std::move(fresh[g]));
    } else if (routed != nullptr) {
      route.results[g] = std::move(fresh[g]);
    }
    if (removed.empty() || (routed != nullptr && routed->prior == nullptr)) continue;
    std::vector<NetResult>& nets = route.results[g].nets;
    for (std::size_t m = 0, k = 0; m < nets.size(); ++m) {
      if (routed != nullptr && k < routed->members.size() && routed->members[k] == m) {
        ++k;
        continue;
      }
      shift_obstacle_refs(nets[m].violations, removed);
    }
  }
  route.version = layout.version();
  route.seeds.merge(new_seeds);
  route.rerouted_groups = std::move(rerouted_groups);
  route.rerouted_members = std::move(rerouted_members);
}

}  // namespace lmr::pipeline
