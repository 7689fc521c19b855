#include "service/routing_service.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "core/contract.hpp"
#include "fault/cancel.hpp"

namespace lmr::service {

namespace {

std::string describe(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

std::string format_failures(const std::vector<BoardFailure>& failures) {
  std::string msg = std::to_string(failures.size()) + " board(s) failed:";
  for (const BoardFailure& f : failures) {
    msg += " [" + f.board + "] " + f.message + ";";
  }
  if (!failures.empty()) msg.pop_back();
  return msg;
}

}  // namespace

ServiceError::ServiceError(std::vector<BoardFailure> failures)
    : std::runtime_error(format_failures(failures)), failures_(std::move(failures)) {}

RoutingService::RoutingService(ServiceOptions opts) : opts_(std::move(opts)) {
  if (opts_.max_attempts == 0) opts_.max_attempts = 1;
  if (opts_.pool != nullptr) {
    pool_ = opts_.pool;
    threads_ = pool_->parallelism();
  } else {
    threads_ = exec::resolve_threads(opts_.threads);
    // threads == 1 owns a 0-worker pool: pump tasks then run inline on the
    // thread that drains, which makes the serial service deterministic.
    owned_pool_ = std::make_unique<exec::TaskPool>(threads_ - 1);
    pool_ = owned_pool_.get();
  }
  group_ = std::make_unique<exec::TaskGroup>(*pool_);
}

RoutingService::~RoutingService() = default;  // ~TaskGroup drains the pumps

RoutingService::Board& RoutingService::board_at(const BoardId& id) {
  auto it = boards_.find(id);
  if (it == boards_.end()) {
    throw std::out_of_range("RoutingService: unknown board '" + id + "'");
  }
  return it->second;
}

const RoutingService::Board& RoutingService::board_at(const BoardId& id) const {
  auto it = boards_.find(id);
  if (it == boards_.end()) {
    throw std::out_of_range("RoutingService: unknown board '" + id + "'");
  }
  return it->second;
}

const RoutingService::Board& RoutingService::idle_board_at(const BoardId& id) const {
  const Board& b = board_at(id);
  if (b.busy) {
    throw std::logic_error("RoutingService: board '" + id +
                           "' is busy; drain() before reading its state");
  }
  return b;
}

void RoutingService::add_board(const BoardId& id, drc::DesignRules rules,
                               pipeline::RouterOptions options, layout::Layout board) {
  // The board's Router must fan out on the service's executor — a private
  // per-board pool would oversubscribe the machine N-fold.
  options.pool = pool_;
  options.threads = threads_;
  // Fault sites carry the board id so one service-wide plan can target
  // individual boards ("extend:<id>/g0/m0", "session:apply:<id>", …).
  options.fault_scope = id;
  if (options.fault_plan == nullptr) options.fault_plan = opts_.fault_plan;
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, inserted] = boards_.try_emplace(id);
  if (!inserted) {
    throw std::invalid_argument("RoutingService: board '" + id + "' already exists");
  }
  Board& b = it->second;
  b.rules = rules;
  b.options = options;
  b.session = std::make_unique<pipeline::Session>(std::move(rules), std::move(options),
                                                  std::move(board));
  b.busy = true;  // the initial-route pump owns the board from birth
  schedule_locked(id);
}

SubmitResult RoutingService::submit(const BoardId& id, layout::BoardEdit edit) {
  std::lock_guard<std::mutex> lk(mu_);
  Board& b = board_at(id);
  if (b.quarantined) {
    ++b.stats.shed;
    return {SubmitStatus::Quarantined, 0};
  }
  if (opts_.queue_limit != 0 && b.queue.size() >= opts_.queue_limit) {
    ++b.stats.shed;
    return {SubmitStatus::QueueFull, 0};
  }
  ++b.stats.submitted;
  // is_frozen() is an atomic probe, safe to read while the pump routes;
  // each hit is an edit that would have been a RoutingFreeze throw.
  if (b.busy && b.session != nullptr && b.session->layout().is_frozen()) {
    ++b.stats.queued_while_frozen;
  }
  b.queue.push_back(Pending{std::move(edit), core::now()});
  b.stats.max_queue_depth =
      std::max<std::uint64_t>(b.stats.max_queue_depth, b.queue.size());
  if (!b.busy) {
    b.busy = true;
    schedule_locked(id);
  }
  return {SubmitStatus::Accepted, b.stats.submitted};
}

void RoutingService::schedule_locked(const BoardId& id) {
  // The busy flag is the board's serialization token: exactly one pump may
  // be in flight, and it is scheduled only after the flag is raised.
  LMR_ASSERT(boards_.at(id).busy, "only a busy board may be scheduled");
  group_->run([this, id] { pump(id); });
}

void RoutingService::quarantine_locked(Board& b, std::exception_ptr err) {
  LMR_ASSERT(err != nullptr, "quarantine always records the failure that caused it");
  LMR_ASSERT(!b.quarantined,
             "quarantine is edge-triggered: a quarantined board is never pumped");
  b.quarantined = true;
  ++b.stats.quarantines;
  if (b.error == nullptr) b.error = std::move(err);
  b.stats.dropped_edits += b.inflight.size() + b.queue.size();
  b.inflight.clear();
  b.queue.clear();
  b.lowered_pending = 0;
  b.attempts = 0;
  if (b.routed && b.last_good.has_value()) {
    // Revert to the last-good checkpoint: the live session may hold
    // journaled-but-unrouted deltas from the failed work item, so the
    // snapshot (not the session) becomes the board's serving state. A
    // routed board with a live session always has a checkpoint — it is
    // refreshed on every success and replenished at thaw, so a
    // resurrected board that fails again before any success still has
    // one to revert to. The has_value() guard is defensive: if the
    // invariant ever broke, keeping the current session/snapshot beats
    // clobbering it with an empty optional.
    b.snapshot = std::move(b.last_good);
    b.last_good.reset();
    b.session.reset();
  }
  // An unrouted board keeps its pristine session: the Router's rollback
  // guarantees the layout is untouched by the failed initial route, so
  // resurrect() can simply reschedule it.
}

void RoutingService::pump(const BoardId& id) {
  Board* b = nullptr;
  bool initial = false;
  bool degraded = false;
  std::size_t pending0 = 0;
  std::size_t n_inflight = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    b = &boards_.at(id);
    // Busy is the pump's exclusive ownership of the board: raised before
    // every schedule_locked, cleared only by the pump itself. Two pumps on
    // one board would race the Session outside the lock below.
    LMR_ASSERT(b->busy, "pump runs only while it owns the board's busy flag");
    if (b->quarantined) {  // defensive: nothing schedules a quarantined board
      b->busy = false;
      return;
    }
    if (b->session == nullptr) {
      LMR_ASSERT(b->snapshot.has_value(),
                 "a board without a live session always holds a snapshot");
      // Thaw-on-next-edit: rebuild the Session from the snapshot. Done
      // under the lock so the `session` pointer never changes while
      // another thread may probe it. The snapshot also replenishes the
      // last-good checkpoint before being consumed: a routed board with a
      // live session must always hold one, or a quarantine that strikes
      // before the next success (a resurrected board failing straight
      // through the ladder again) would have nothing to revert to.
      b->last_good = *b->snapshot;
      BoardSnapshot snap = std::move(*b->snapshot);
      b->snapshot.reset();
      b->session = std::make_unique<pipeline::Session>(
          b->rules, b->options, std::move(snap.layout), std::move(snap.route));
      ++b->stats.thaws;
    }
    initial = !b->routed;
    degraded = opts_.max_attempts > 1 && b->attempts + 1 >= opts_.max_attempts;
    pending0 = b->lowered_pending;
    if (!initial && b->inflight.empty()) {
      std::size_t n = b->queue.size();
      if (opts_.max_batch != 0) n = std::min(n, opts_.max_batch);
      b->inflight.reserve(n);
      const auto now = core::now();
      for (std::size_t i = 0; i < n; ++i) {
        Pending& p = b->queue.front();
        const double waited = core::seconds_between(p.enqueued, now);
        b->stats.dispatch_wait_s += waited;
        b->stats.max_dispatch_wait_s = std::max(b->stats.max_dispatch_wait_s, waited);
        b->inflight.push_back(std::move(p.edit));
        b->queue.pop_front();
      }
    }
    n_inflight = b->inflight.size();
  }

  // The unlocked section: only this pump touches the Session and the
  // inflight vector (busy flag). One attempt of the current work item.
  const pipeline::ApplyMode mode =
      degraded ? pipeline::ApplyMode::Degraded : pipeline::ApplyMode::Normal;
  pipeline::Session& session = *b->session;
  const auto t0 = core::now();
  std::exception_ptr err;
  std::uint64_t violations = 0;
  std::size_t committed_pending = 0;  // previously-lowered edits committed now
  std::size_t lowered_now = 0;        // inflight edits lowered this attempt
  std::size_t committed_now = 0;      // … of which the reroute committed
  bool lowering_failure = false;      // err names inflight[lowered_now] itself
  bool applying = false;
  // Copies of the routed layout + route: what quarantine later reverts to
  // ("last good"). Taken outside the lock; declared before it, so a
  // replaced checkpoint swapped in here is destroyed after the unlock.
  std::optional<BoardSnapshot> checkpoint;
  const auto take_checkpoint = [&] {
    checkpoint.emplace(BoardSnapshot{session.layout(), session.route_state()});
  };
  try {
    if (initial) {
      session.route(mode);
    } else {
      if (!session.in_sync()) {
        // A prior attempt journaled deltas whose reroute failed; catch up
        // on them first so the batch below starts from a committed state.
        session.resync(mode);
        committed_pending = pending0;
        // Those edits now count as applied: should the batch below fail
        // with the session out of sync, quarantine must still serve them.
        if (n_inflight > 0) take_checkpoint();
      }
      if (n_inflight > 0) {
        applying = true;
        session.apply(std::span<const layout::BoardEdit>(b->inflight), mode);
        applying = false;
        lowered_now = n_inflight;
        committed_now = n_inflight;
      }
    }
    // One clearance re-sweep per dispatch, however many edits coalesced.
    violations = session.board_clearance().size();
  } catch (...) {
    err = std::current_exception();
    if (applying) {
      // The prefix contract (see Session::apply): edit_offsets counts the
      // lowered prefix; in_sync() distinguishes a lowering failure (prefix
      // rerouted and committed, the *next* edit is the culprit) from a
      // reroute-phase failure (prefix journaled but uncommitted).
      const std::optional<pipeline::ApplyOutcome>& part = session.last_partial_outcome();
      if (part.has_value()) lowered_now = part->edit_offsets.size() - 1;
      if (session.in_sync()) {
        lowering_failure = true;
        committed_now = lowered_now;
      }
    }
  }
  const double elapsed = core::seconds_since(t0);
  // Every attempt that ends in sync with edits committed refreshes the
  // checkpoint, failed ones included: a lowering failure commits the batch
  // prefix before it throws, and a quarantined board serves exactly the
  // edits counted as applied.
  const bool refresh =
      session.in_sync() && (err == nullptr || committed_pending + committed_now > 0);

  std::unique_lock<std::mutex> lk(mu_);
  BoardStats& s = b->stats;
  if (!initial) {
    // Consume what this attempt disposed of: committed edits leave the
    // work item; journaled-but-uncommitted ones stay accounted so the
    // retry resync()s instead of re-lowering.
    LMR_ASSERT(lowered_now <= b->inflight.size() && committed_now <= lowered_now,
               "the lowered prefix never exceeds the dispatched work item");
    b->inflight.erase(b->inflight.begin(),
                      b->inflight.begin() + static_cast<std::ptrdiff_t>(lowered_now));
    b->lowered_pending = (pending0 - committed_pending) + (lowered_now - committed_now);
    s.applied += committed_pending + committed_now;
    ++s.batches;
    ++s.reroutes;
    if (n_inflight > 1) ++s.coalesced_batches;
    s.max_batch = std::max<std::uint64_t>(s.max_batch, n_inflight);
    s.apply_s += elapsed;
  }
  if (refresh) {
    // The commit is published above, before the copy: it is what callers
    // wait for. The pump still owns the board (busy), so no reader,
    // eviction or quarantine can see it between the commit and its
    // checkpoint.
    lk.unlock();
    take_checkpoint();
    lk.lock();
  }
  // Swap, not assign: the replaced checkpoint — a whole board — is then
  // destroyed with `checkpoint` after the lock is released.
  if (checkpoint.has_value()) std::swap(b->last_good, checkpoint);
  if (err == nullptr) {
    b->attempts = 0;
    s.clearance_violations = violations;
    if (initial) {
      b->routed = true;
      s.route_s += elapsed;
    }
  } else {
    // Classify: logic_error lineage (bad edit, contract breach) is not
    // retryable — no rerun can make the same edit valid; runtime failures
    // (injected faults, timeouts, cancellations) are.
    bool retryable = true;
    try {
      std::rethrow_exception(err);
    } catch (const fault::RouteTimeout&) {
      ++s.timeouts;
    } catch (const fault::InjectedFault&) {
      ++s.injected_faults;
    } catch (const std::logic_error&) {
      retryable = false;
    } catch (...) {
    }
    if (!retryable) {
      if (!initial && lowering_failure && !b->inflight.empty()) {
        // The edit itself is bad: drop it, surface the error at drain, and
        // let the board continue with the rest of its work.
        b->inflight.erase(b->inflight.begin());
        ++s.dropped_edits;
        b->attempts = 0;
        if (b->error == nullptr) b->error = err;
      } else {
        // A non-retryable failure not pinned to a single edit: the board's
        // state machine is in doubt — quarantine.
        quarantine_locked(*b, err);
      }
    } else {
      ++b->attempts;
      if (b->attempts >= opts_.max_attempts) {
        quarantine_locked(*b, err);
      } else {
        // Retry rung: exponential backoff on the virtual clock (never a
        // wall-time sleep), demoting the final attempt to Degraded mode.
        ++s.retries;
        if (opts_.max_attempts > 1 && b->attempts + 1 >= opts_.max_attempts) {
          ++s.degraded_retries;
        }
        s.backoff_virtual_s += std::min(
            opts_.backoff_base_s * std::exp2(static_cast<double>(b->attempts - 1)),
            opts_.backoff_cap_s);
        schedule_locked(id);  // stay busy: the retry owns the board
        return;
      }
    }
  }
  if (!b->quarantined && (!b->inflight.empty() || !b->queue.empty())) {
    schedule_locked(id);  // stay busy: more edits arrived meanwhile
  } else {
    b->busy = false;
  }
}

void RoutingService::drain() {
  // TaskGroup::wait helps: it runs pool tasks on this thread until every
  // pump (including the ones pumps reschedule) has finished — which is
  // also what executes everything on a 0-worker serial service.
  group_->wait();
  std::vector<BoardFailure> failures;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, b] : boards_) {
      if (b.error != nullptr) {
        failures.push_back({id, describe(b.error)});
        b.error = nullptr;
      }
    }
  }
  if (!failures.empty()) throw ServiceError(std::move(failures));
}

bool RoutingService::evict_locked(Board& b) {
  if (b.busy || b.quarantined || !b.routed || !b.queue.empty() ||
      !b.inflight.empty() || b.lowered_pending != 0 || b.session == nullptr ||
      !b.session->in_sync()) {
    return false;
  }
  auto [board, route] = b.session->release();
  b.snapshot = BoardSnapshot{std::move(board), std::move(route)};
  b.session.reset();
  ++b.stats.evictions;
  return true;
}

bool RoutingService::evict(const BoardId& id) {
  std::lock_guard<std::mutex> lk(mu_);
  return evict_locked(board_at(id));
}

std::size_t RoutingService::evict_idle() {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t evicted = 0;
  for (auto& [id, b] : boards_) {
    if (evict_locked(b)) ++evicted;
  }
  return evicted;
}

bool RoutingService::resurrect(const BoardId& id) {
  std::lock_guard<std::mutex> lk(mu_);
  Board& b = board_at(id);
  if (!b.quarantined) return false;
  b.quarantined = false;
  ++b.stats.resurrections;
  if (!b.routed) {
    // Quarantined during the initial route: the pristine session is still
    // alive — reschedule the route it never completed.
    b.busy = true;
    schedule_locked(id);
  }
  // A routed board thaws from its last-good snapshot on the next submit.
  return true;
}

const layout::Layout& RoutingService::board_layout(const BoardId& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Board& b = idle_board_at(id);
  return b.session != nullptr ? b.session->layout() : b.snapshot->layout;
}

const pipeline::BoardRoute& RoutingService::board_route(const BoardId& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Board& b = idle_board_at(id);
  return b.session != nullptr ? b.session->route_state() : b.snapshot->route;
}

bool RoutingService::is_evicted(const BoardId& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Board& b = board_at(id);
  return b.session == nullptr && !b.quarantined;
}

bool RoutingService::is_quarantined(const BoardId& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return board_at(id).quarantined;
}

bool RoutingService::is_routed(const BoardId& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return board_at(id).routed;
}

std::size_t RoutingService::queue_depth(const BoardId& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return board_at(id).queue.size();
}

BoardStats RoutingService::stats(const BoardId& id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return board_at(id).stats;
}

std::vector<BoardId> RoutingService::board_ids() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<BoardId> ids;
  ids.reserve(boards_.size());
  for (const auto& [id, b] : boards_) ids.push_back(id);
  return ids;
}

ServiceTotals RoutingService::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  ServiceTotals t;
  for (const auto& [id, b] : boards_) {
    const BoardStats& s = b.stats;
    t.submitted += s.submitted;
    t.applied += s.applied;
    t.batches += s.batches;
    t.coalesced_batches += s.coalesced_batches;
    t.max_batch = std::max(t.max_batch, s.max_batch);
    t.max_queue_depth = std::max(t.max_queue_depth, s.max_queue_depth);
    t.evictions += s.evictions;
    t.thaws += s.thaws;
    t.queued_while_frozen += s.queued_while_frozen;
    t.retries += s.retries;
    t.timeouts += s.timeouts;
    t.injected_faults += s.injected_faults;
    t.quarantines += s.quarantines;
    t.resurrections += s.resurrections;
    t.shed += s.shed;
    t.dropped_edits += s.dropped_edits;
  }
  return t;
}

}  // namespace lmr::service
