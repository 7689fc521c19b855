#include "pipeline/session.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "core/clock.hpp"

namespace lmr::pipeline {

namespace {

bool same_violation(const layout::Violation& a, const layout::Violation& b) {
  return a.kind == b.kind && a.trace == b.trace && a.other_trace == b.other_trace &&
         a.index_a == b.index_a && a.index_b == b.index_b && a.measured == b.measured &&
         a.required == b.required && a.note == b.note;
}

bool same_violations(const std::vector<layout::Violation>& a,
                     const std::vector<layout::Violation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_violation(a[i], b[i])) return false;
  }
  return true;
}

/// Member reports and Eq. 19 errors agree in every field a route
/// determines (runtimes are timing, not output).
bool same_reports(const GroupReport& a, const GroupReport& b) {
  if (a.group_name != b.group_name || a.target != b.target ||
      a.max_error_pct != b.max_error_pct || a.avg_error_pct != b.avg_error_pct ||
      a.initial_max_error_pct != b.initial_max_error_pct ||
      a.initial_avg_error_pct != b.initial_avg_error_pct) {
    return false;
  }
  for (std::size_t m = 0; m < a.members.size(); ++m) {
    const MemberReport& x = a.members[m];
    const MemberReport& y = b.members[m];
    if (x.name != y.name || x.initial_length != y.initial_length ||
        x.final_length != y.final_length || x.target != y.target || x.reached != y.reached ||
        x.patterns != y.patterns) {
      return false;
    }
  }
  return true;
}

void explain(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
}

}  // namespace

Session::Session(drc::DesignRules rules, RouterOptions options, layout::Layout board)
    : router_(rules, std::move(options)),
      layout_(std::move(board)),
      obstacles_(layout_.obstacles()),
      board_index_(router_.rules(), router_.options().drc) {}

Session::Session(drc::DesignRules rules, RouterOptions options, layout::Layout board,
                 BoardRoute prior)
    : Session(std::move(rules), std::move(options), std::move(board)) {
  if (prior.version != layout_.version()) {
    throw std::invalid_argument(
        "Session: snapshot route version " + std::to_string(prior.version) +
        " does not match layout version " + std::to_string(layout_.version()));
  }
  route_ = std::move(prior);
  routed_ = true;
  for (const layout::MatchGroup& g : layout_.groups()) reindex_members(g.members);
}

const BoardRoute& Session::route(ApplyMode mode) {
  route_ = mode == ApplyMode::Degraded ? degraded_router().route_board(layout_, &obstacles_)
                                       : router_.route_board(layout_, &obstacles_);
  routed_ = true;
  reindex_members(route_.rerouted_members);
  return route_;
}

ApplyOutcome Session::apply(const layout::BoardEdit& edit) {
  return apply(std::span<const layout::BoardEdit>{&edit, 1});
}

ApplyOutcome Session::apply(std::span<const layout::BoardEdit> edits, ApplyMode mode) {
  if (!routed_) {
    throw std::logic_error("Session::apply: route() the board first");
  }
  last_partial_.reset();
  fault::FaultPlan* const plan = router_.options().fault_plan.get();
  ApplyOutcome outcome;
  outcome.version_before = layout_.version();
  outcome.edit_offsets.push_back(0);
  std::exception_ptr failed;
  for (const layout::BoardEdit& e : edits) {
    std::vector<layout::LayoutDelta> deltas;
    try {
      if (plan != nullptr) {
        plan->at_site(fault::apply_site(router_.options().fault_scope));
      }
      deltas = layout::apply_edit(layout_, e);
    } catch (...) {
      // A mid-batch lowering failure (bad index after an earlier queued
      // edit, or an injected session:apply fault) leaves the layout exactly
      // at the state after the last good edit — apply_edit validates before
      // mutating and the fault site fires before it runs. Reroute over the
      // applied prefix below so route_ catches up, then rethrow.
      failed = std::current_exception();
      break;
    }
    // The list may have reallocated: every delta re-points the index.
    for (const layout::LayoutDelta& d : deltas) obstacles_.apply(d, layout_.obstacles());
    outcome.deltas.insert(outcome.deltas.end(),
                          std::make_move_iterator(deltas.begin()),
                          std::make_move_iterator(deltas.end()));
    outcome.edit_offsets.push_back(outcome.deltas.size());
  }
  outcome.version_after = layout_.version();
  try {
    finish_reroute(outcome, mode);
  } catch (...) {
    // Reroute-phase failure: the prefix's deltas are journaled but the
    // Router's rollback restored the prior geometry — route_ is stale until
    // resync() (or the next apply, whose reroute covers the full suffix).
    last_partial_ = outcome;
    throw;
  }
  if (failed) {
    last_partial_ = outcome;
    std::rethrow_exception(failed);
  }
  return outcome;
}

ApplyOutcome Session::resync(ApplyMode mode) {
  if (!routed_) {
    throw std::logic_error("Session::resync: route() the board first");
  }
  ApplyOutcome outcome;
  outcome.version_before = route_.version;
  const std::span<const layout::LayoutDelta> pending =
      layout_.deltas_since(route_.version);
  outcome.deltas.assign(pending.begin(), pending.end());
  outcome.edit_offsets.push_back(0);
  outcome.edit_offsets.push_back(outcome.deltas.size());
  outcome.version_after = layout_.version();
  finish_reroute(outcome, mode);
  last_partial_.reset();
  return outcome;
}

void Session::finish_reroute(ApplyOutcome& outcome, ApplyMode mode) {
  const auto t0 = core::now();
  // reroute() reads *every* delta the route has not seen from the journal,
  // not just this batch's: after a prior reroute-phase failure the suffix
  // also carries the stranded deltas, so the commit self-heals. It updates
  // route_ in place and leaves it untouched if it throws.
  if (mode == ApplyMode::Degraded) {
    degraded_router().reroute(layout_, route_, obstacles_);
  } else {
    router_.reroute(layout_, route_, obstacles_);
  }
  outcome.reroute_s = core::seconds_since(t0);
  outcome.rerouted_groups = route_.rerouted_groups;
  outcome.groups_total = layout_.groups().size();
  reindex_members(route_.rerouted_members);
}

Router Session::degraded_router() const {
  RouterOptions opts = router_.options();
  opts.threads = 1;
  opts.pool = nullptr;
  return Router(router_.rules(), std::move(opts));
}

std::pair<layout::Layout, BoardRoute> Session::release() {
  if (!routed_) {
    throw std::logic_error("Session::release: route() the board first");
  }
  {
    // Prove quiescence: if a route is still in flight (a freeze is alive),
    // evicting now would rip the layout out from under it.
    auto freeze = layout_.try_freeze();
    if (!freeze) {
      throw std::logic_error("Session::release: a route is in flight");
    }
  }
  return {std::move(layout_), std::move(route_)};
}

void Session::reindex_members(std::span<const layout::GroupMember> members) {
  for (const layout::GroupMember& m : members) {
    auto it = member_slot0_.find(m.id);
    if (it == member_slot0_.end()) {
      std::uint32_t slot0 = 0;
      if (m.kind == layout::MemberKind::SingleEnded) {
        slot0 = board_index_.add_slot(layout_.trace(m.id).width, next_net_);
      } else {
        const layout::DiffPair& pair = layout_.pair(m.id);
        slot0 = board_index_.add_slot(pair.positive.width, next_net_);
        board_index_.add_slot(pair.negative.width, next_net_);
      }
      ++next_net_;
      it = member_slot0_.emplace(m.id, slot0).first;
    }
    if (m.kind == layout::MemberKind::SingleEnded) {
      board_index_.insert(it->second, layout_.trace(m.id));
    } else {
      const layout::DiffPair& pair = layout_.pair(m.id);
      board_index_.insert(it->second, pair.positive);
      board_index_.insert(it->second + 1, pair.negative);
    }
  }
  // A Session's group membership never shrinks (no BoardEdit changes it), so
  // a future membership edit must take the member's slots out of the sweep.
}

std::vector<layout::Violation> Session::board_clearance() {
  return board_index_.sweep();
}

bool routes_equivalent(const layout::Layout& a, const BoardRoute& ra,
                       const layout::Layout& b, const BoardRoute& rb,
                       std::string* why) {
  if (ra.results.size() != rb.results.size()) {
    explain(why, "group count differs");
    return false;
  }
  for (std::size_t g = 0; g < ra.results.size(); ++g) {
    const RouteResult& ga = ra.results[g];
    const RouteResult& gb = rb.results[g];
    const std::string tag = "group " + std::to_string(g);
    if (ga.group.members.size() != gb.group.members.size()) {
      explain(why, tag + ": member count differs");
      return false;
    }
    for (std::size_t m = 0; m < ga.group.members.size(); ++m) {
      const MemberReport& ma = ga.group.members[m];
      const MemberReport& mb = gb.group.members[m];
      if (ma.id != mb.id || ma.kind != mb.kind) {
        explain(why, tag + ": membership differs at slot " + std::to_string(m));
        return false;
      }
      if (ma.kind == layout::MemberKind::SingleEnded) {
        if (a.trace(ma.id).path.points() != b.trace(mb.id).path.points()) {
          explain(why, tag + ": trace " + std::to_string(ma.id) + " geometry differs");
          return false;
        }
      } else {
        const layout::DiffPair& pa = a.pair(ma.id);
        const layout::DiffPair& pb = b.pair(mb.id);
        if (pa.positive.path.points() != pb.positive.path.points() ||
            pa.negative.path.points() != pb.negative.path.points()) {
          explain(why, tag + ": pair " + std::to_string(ma.id) + " geometry differs");
          return false;
        }
      }
    }
    if (!same_reports(ga.group, gb.group)) {
      explain(why, tag + ": member reports or Eq. 19 errors differ");
      return false;
    }
    if (ga.nets.size() != gb.nets.size()) {
      explain(why, tag + ": net-result count differs");
      return false;
    }
    for (std::size_t n = 0; n < ga.nets.size(); ++n) {
      if (!same_violations(ga.nets[n].violations, gb.nets[n].violations)) {
        explain(why, tag + ": per-net violations differ at net " + std::to_string(n));
        return false;
      }
    }
    if (!same_violations(ga.cross_violations, gb.cross_violations)) {
      explain(why, tag + ": cross-member violations differ");
      return false;
    }
  }
  return true;
}

}  // namespace lmr::pipeline
