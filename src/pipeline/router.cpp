#include "pipeline/router.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
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
  layout::Trace trace;    ///< single-ended members
  layout::DiffPair pair;  ///< differential members
  /// Bbox of the member's geometry before extension (both sub-traces of a
  /// pair), part of the group's domain_bbox.
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

RouteResult Router::route_batch(layout::Layout& layout, std::size_t group_index) const {
  if (group_index >= layout.groups().size()) {
    throw std::out_of_range("Router: bad group index");
  }
  std::map<layout::TraceId, MemberSeed> snapshot;
  for (const layout::GroupMember& m : layout.groups()[group_index].members) {
    snapshot.try_emplace(m.id, copy_member(layout, m.id, m.kind));
  }
  std::vector<RouteResult> results(layout.groups().size());
  route_groups(layout, {group_index}, results, snapshot);
  return std::move(results[group_index]);
}

std::vector<RouteResult> Router::route_all(layout::Layout& layout) const {
  return route_board(layout).results;
}

void Router::route_groups(layout::Layout& layout, const std::vector<std::size_t>& todo,
                          std::vector<RouteResult>& results,
                          std::map<layout::TraceId, MemberSeed>& snapshot) const {
  // Every caller snapshots whether or not a fault plan, cancel token or
  // deadline is armed: extension can throw with nothing armed (no routable
  // area, a meander target below the current length, pair-restore
  // misalignment), and the strong guarantee callers rely on (Session retry
  // and the service's drop-bad-edit recovery) covers every group's
  // write-backs.
  try {
    const layout::Layout::RoutingFreeze freeze = layout.freeze_for_routing();
    const layout::ObstacleIndex obstacles(layout.obstacles());
    const std::size_t threads = exec::resolve_threads(options_.threads);
    if (threads <= 1 || todo.size() <= 1) {
      for (const std::size_t g : todo) results[g] = run(layout, g, threads, obstacles);
    } else {
      // One task per group; the nested member fan-out inside run() lands on
      // the same pool (workers push to their own deques, idle workers
      // steal), so a board of many small groups fills every worker instead
      // of running its groups back to back.
      exec::parallel_for_dynamic(pool(), todo.size(), threads, [&](std::size_t k) {
        results[todo[k]] = run(layout, todo[k], threads, obstacles);
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

RouteResult Router::run(layout::Layout& layout, std::size_t group_index,
                        std::size_t threads, const layout::ObstacleIndex& obstacles) const {
  LMR_ASSERT(group_index < layout.groups().size(), "route calls pass existing groups");
  // Board edits are rejected while any route is in flight (every caller
  // holds a routing freeze): the stages below read obstacles, areas and
  // group structure from the live layout, so an interleaved mutation would
  // race. Trace-geometry write-backs are not gated — they are the route's
  // own output channel.
  LMR_REQUIRE(layout.frozen(), "the caller holds a routing freeze");
  LMR_REQUIRE(obstacles.size() == layout.obstacles().size(),
              "the obstacle index covers this board");
  const layout::MatchGroup& group = layout.groups()[group_index];
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

  // Set-up (serial): validate and copy every member before any member runs,
  // and declare every clearance-index slot (member order fixes the
  // deterministic violation order).
  std::vector<MemberWork> work;
  work.reserve(group.members.size());
  layout::ClearanceIndex index(rules_, options_.drc);
  for (std::size_t m = 0; m < group.members.size(); ++m) {
    MemberWork w;
    w.member = group.members[m];
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
      w.slot0 = index.add_slot(w.trace.width, static_cast<std::uint32_t>(m));
    } else {
      w.pair = layout.pair(w.member.id);
      w.pre_route_bbox = w.pair.positive.path.bbox();
      w.pre_route_bbox.expand(w.pair.negative.path.bbox());
      w.net_rules.trace_width = w.pair.positive.width;
      w.slot0 = index.add_slot(w.pair.positive.width, static_cast<std::uint32_t>(m));
      index.add_slot(w.pair.negative.width, static_cast<std::uint32_t>(m));
    }
    work.push_back(std::move(w));
  }
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
    if (plan != nullptr) {
      plan->at_site(fault::extend_site(options_.fault_scope, group_index, i));
    }
    MemberWork& w = work[i];
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

  RouteResult result;
  result.group.group_name = group.name;
  result.group.target = group.target_length;
  result.group.members = std::move(reports);
  // Everything this route read or produced, geometrically: member areas
  // plus pre-route and post-route paths. reroute()'s delta → dirty-group
  // proof tests edits against this box.
  for (const MemberWork& w : work) {
    result.domain_bbox.expand(w.area->bbox());
    result.domain_bbox.expand(w.pre_route_bbox);
    if (w.member.kind == layout::MemberKind::SingleEnded) {
      result.domain_bbox.expand(layout.trace(w.member.id).path.bbox());
    } else {
      const layout::DiffPair& pair = layout.pair(w.member.id);
      result.domain_bbox.expand(pair.positive.path.bbox());
      result.domain_bbox.expand(pair.negative.path.bbox());
    }
  }
  // Matching-phase wall time — when the last member finished extending
  // (per-net checks are reported separately below).
  for (std::size_t i = 0; i < n; ++i) {
    result.group.runtime_s = std::max(result.group.runtime_s, extend_done_s[i]);
    result.extend_runtime_s += result.group.members[i].runtime_s;
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

  // Collect the per-net verdicts the members produced, then run the only
  // barrier: the cross-member clearance query pass over the
  // incrementally-built index.
  if (drc) {
    for (std::size_t i = 0; i < n; ++i) {
      result.nets.push_back({result.group.members[i], std::move(net_violations[i])});
      result.drc_overlap_runtime_s += drc_stage_s[i];
    }
    const auto t_barrier = core::now();
    result.cross_violations = index.sweep();
    result.drc_barrier_runtime_s = seconds_since(t_barrier);
  } else {
    for (const MemberReport& mr : result.group.members) {
      result.nets.push_back({mr, {}});
    }
  }

  result.runtime_s = seconds_since(t_run);
  return result;
}

BoardRoute Router::route_board(layout::Layout& layout) const {
  BoardRoute board;
  for (std::size_t g = 0; g < layout.groups().size(); ++g) {
    board.rerouted_groups.push_back(g);
    for (const layout::GroupMember& m : layout.groups()[g].members) {
      board.seeds.try_emplace(m.id, copy_member(layout, m.id, m.kind));
    }
  }
  board.results.resize(layout.groups().size());
  // The seeds are the pre-call geometry: they double as the rollback
  // snapshot, so every path on the board is copied once.
  route_groups(layout, board.rerouted_groups, board.results, board.seeds);
  board.version = layout.version();
  return board;
}

double Router::interaction_radius(const layout::Layout& layout) const {
  // Worst-case interaction radius: anything farther than this from
  // everything a group's route read or produced cannot change its
  // extension (obstacles enter routing only through area holes and
  // proximity checks), its per-net oracle verdicts (gap / obstacle
  // clearances top out at effective_gap / effective_obs for the widest
  // trace) or its cross-member sweep.
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

std::vector<std::size_t> Router::affected_groups(
    const layout::Layout& layout, const BoardRoute& prior,
    std::span<const layout::LayoutDelta> deltas) const {
  const std::size_t n_groups = layout.groups().size();
  std::vector<bool> hit(n_groups, false);
  // Groups the prior route has no result for (created by these edits) have
  // nothing to splice from — always route them.
  for (std::size_t g = prior.results.size(); g < n_groups; ++g) hit[g] = true;

  const double radius = interaction_radius(layout);
  const auto hit_near = [&](const geom::Box& dirty) {
    if (dirty.empty()) return;
    const geom::Box probe = dirty.inflated(radius);
    const std::size_t known = std::min(n_groups, prior.results.size());
    for (std::size_t g = 0; g < known; ++g) {
      if (probe.intersects(prior.results[g].domain_bbox)) hit[g] = true;
    }
  };

  for (const layout::LayoutDelta& d : deltas) {
    switch (d.kind) {
      case layout::DeltaKind::AddTrace:
      case layout::DeltaKind::AddPair:
        break;  // ungrouped geometry participates in no group's route
      case layout::DeltaKind::SetBoard:
        std::fill(hit.begin(), hit.end(), true);
        break;
      case layout::DeltaKind::AddGroup:
      case layout::DeltaKind::AddGroupMember:
      case layout::DeltaKind::RemoveGroupMember:
      case layout::DeltaKind::SetGroupTarget:
      case layout::DeltaKind::SetMemberTarget:
        if (d.group < n_groups) hit[d.group] = true;
        break;
      case layout::DeltaKind::SetRoutableArea: {
        // The area is an input only to its owning member's route, but be
        // doubly conservative: also test the touched geometry against every
        // cached domain.
        const std::size_t g = layout.group_of(d.trace);
        if (g != layout::kNoIndex && g < n_groups) hit[g] = true;
        hit_near(d.dirty);
        break;
      }
      case layout::DeltaKind::AddObstacle:
      case layout::DeltaKind::MoveObstacle:
      case layout::DeltaKind::RemoveObstacle:
        hit_near(d.dirty);
        break;
    }
  }

  std::vector<std::size_t> out;
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (hit[g]) out.push_back(g);
  }
  return out;
}

BoardRoute Router::reroute(layout::Layout& layout, const BoardRoute& prior) const {
  const std::size_t n_groups = layout.groups().size();
  BoardRoute next;
  next.version = layout.version();
  next.seeds = prior.seeds;
  next.results = prior.results;
  next.results.resize(n_groups);  // groups are only ever appended
  next.rerouted_groups = affected_groups(layout, prior, layout.deltas_since(prior.version));

  // Every member an affected group holds now — or held when `prior` routed
  // it (a member edited out must fall back to its pristine geometry, same
  // as a fresh route of the edited board would leave it) — restarts from
  // its pristine seed. Members the prior route never saw are seeded here:
  // un-routed geometry *is* pristine. The rollback snapshot is their
  // geometry before the restart, so a throw hands back the pre-call layout,
  // not the seeds. Its cost is bounded by the affected groups, i.e. the
  // geometry being rerouted anyway. The restart only moves copies in, which
  // cannot throw, so every later throw comes from route_groups, which puts
  // the snapshot back.
  std::map<layout::TraceId, MemberSeed> snapshot;
  std::map<layout::TraceId, MemberSeed> start;
  const auto touch = [&](layout::TraceId id, layout::MemberKind kind) {
    if (snapshot.contains(id)) return;
    const MemberSeed& now = snapshot.emplace(id, copy_member(layout, id, kind)).first->second;
    start.emplace(id, next.seeds.try_emplace(id, now).first->second);
  };
  for (const std::size_t g : next.rerouted_groups) {
    if (g < prior.results.size()) {
      for (const MemberReport& m : prior.results[g].group.members) touch(m.id, m.kind);
    }
    for (const layout::GroupMember& m : layout.groups()[g].members) touch(m.id, m.kind);
  }

  restore(layout, start);
  // Re-run only the affected groups; untouched groups keep their spliced
  // prior results verbatim.
  route_groups(layout, next.rerouted_groups, next.results, snapshot);
  return next;
}

}  // namespace lmr::pipeline
