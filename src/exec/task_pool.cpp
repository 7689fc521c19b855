#include "exec/task_pool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/contract.hpp"

namespace lmr::exec {

namespace {

/// Worker identity: which pool this thread belongs to (nullptr for every
/// non-worker thread) and its deque index there. Thread-local instead of a
/// map lookup so the hot submit/help paths stay branch-plus-load.
thread_local TaskPool* tl_pool = nullptr;
thread_local std::size_t tl_index = 0;

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

TaskPool::TaskPool(std::size_t workers) {
  deques_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    deques_.push_back(std::make_unique<StealDeque<Task>>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // By contract every TaskGroup is waited on before its pool dies, so these
  // drains only matter after a contract violation — still, don't leak. The
  // destructing thread is not the deques' owner, so it steals (any-thread
  // safe) rather than pops; the workers are already joined.
  for (Task* t : injection_) delete t;
  for (auto& d : deques_) {
    while (Task* t = d->steal()) delete t;
  }
}

TaskPool& TaskPool::shared() {
  static TaskPool pool(resolve_threads(0) - 1);
  return pool;
}

bool TaskPool::on_worker_thread() const { return tl_pool == this; }

void TaskPool::submit(Task* t) {
  if (tl_pool == this) {
    deques_[tl_index]->push(t);  // lock-free: the worker-side hot path
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    injection_.push_back(t);
    injection_size_.store(injection_.size(), std::memory_order_release);
  }
  // Wake protocol (Dekker-style, both sides seq_cst): a worker publishes
  // itself in sleepers_ *before* its final signal_ check, we bump signal_
  // *before* reading sleepers_. Whatever the interleaving, either the
  // worker sees the new epoch and skips sleeping, or we see the sleeper
  // and notify — taking the mutex only then, so the common submit path
  // costs two atomics, not a lock.
  signal_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_one();
  }
}

TaskPool::Task* TaskPool::take(std::size_t self_or_npos) {
  // Own deque first: LIFO keeps a worker on the continuation it just
  // spawned (cache-warm, and the natural order for nested fan-out).
  if (self_or_npos != kNotAWorker) {
    if (Task* t = deques_[self_or_npos]->pop()) return t;
  }
  // Gate the injection queue behind its atomic size so the idle-poll loops
  // (helping waiters spinning in drain(), workers between steals) don't
  // serialize on mu_ when the queue is empty — the common case, since
  // worker-submitted tasks live in the lock-free deques.
  if (injection_size_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!injection_.empty()) {
      Task* t = injection_.front();
      injection_.pop_front();
      injection_size_.store(injection_.size(), std::memory_order_release);
      return t;
    }
  }
  // Steal round: rotate from the neighbour so thieves spread out instead of
  // all hammering deque 0. A lost CAS race shows up as nullptr and we just
  // move on — the caller loops anyway.
  const std::size_t n = deques_.size();
  if (n == 0) return nullptr;
  const std::size_t start = self_or_npos == kNotAWorker ? 0 : self_or_npos + 1;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == self_or_npos) continue;
    if (Task* t = deques_[victim]->steal()) return t;
  }
  return nullptr;
}

void TaskPool::execute(Task* t) {
  std::exception_ptr err;
  try {
    t->fn();
  } catch (...) {
    err = std::current_exception();
  }
  TaskGroup* group = t->group;
  // Free the task (and the captures keeping the submitter's stack alive)
  // *before* signalling completion: once finish_one drops pending to zero
  // the waiter may unwind that stack.
  delete t;
  group->finish_one(std::move(err));
}

bool TaskPool::try_run_one() {
  Task* t = take(tl_pool == this ? tl_index : kNotAWorker);
  if (t == nullptr) return false;
  execute(t);
  return true;
}

void TaskPool::worker_loop(std::size_t index) {
  // A thread serves at most one pool for its whole life; re-binding would
  // silently corrupt the submit fast path of whichever pool loses.
  LMR_ASSERT(tl_pool == nullptr, "worker thread already bound to a pool");
  tl_pool = this;
  tl_index = index;
  deques_[index]->adopt_owner();
  for (;;) {
    // Record the epoch *before* scanning: any submission after this load
    // bumps signal_ past `epoch`, so the sleep predicate below cannot miss
    // it even if the scan raced past the half-pushed task.
    const std::uint64_t epoch = signal_.load(std::memory_order_seq_cst);
    if (Task* t = take(index)) {
      execute(t);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait(lock, [&] {
      return stop_ || signal_.load(std::memory_order_seq_cst) != epoch;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    if (stop_) return;
  }
}

void TaskGroup::run(std::function<void()> fn) {
  LMR_REQUIRE(static_cast<bool>(fn), "a task must be callable");
  pending_.fetch_add(1, std::memory_order_acq_rel);
  pool_.submit(new TaskPool::Task{std::move(fn), this});
}

void TaskGroup::drain() {
  const bool is_worker = pool_.on_worker_thread();
  int idle_spins = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (pool_.try_run_one()) {
      idle_spins = 0;
      continue;
    }
    // Nothing claimable but the group is not done: our tasks are running on
    // other threads. A worker must not sleep on the group (its own deque is
    // only stealable, not waitable), so it yields, then naps briefly. An
    // external thread can block outright: worker-held tasks are always
    // drained by their owners.
    if (is_worker) {
      if (++idle_spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    } else {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return pending_.load(std::memory_order_acquire) == 0; });
    }
  }
  // Destruction barrier. A spinning waiter can observe pending_ == 0 while
  // the finishing thread is still inside finish_one's critical section; if
  // we returned now, ~TaskGroup could destroy mu_/cv_ under it. finish_one
  // touches nothing after that section, so acquiring mu_ once here
  // guarantees the finisher has fully left the group.
  const std::lock_guard<std::mutex> lock(mu_);
}

void TaskGroup::wait() {
  drain();
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    err = std::exchange(error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

TaskPool* PoolHandle::acquire() {
  if (threads_ == 1) return nullptr;
  std::call_once(once_, [&] {
    if (threads_ == 0) {
      borrowed_ = &TaskPool::shared();
    } else {
      owned_ = std::make_unique<TaskPool>(threads_ - 1);
    }
  });
  return borrowed_ != nullptr ? borrowed_ : owned_.get();
}

void TaskGroup::finish_one(std::exception_ptr error) {
  // Entirely under mu_: the decrement is the waiter's release signal, so no
  // member may be touched after it outside this critical section — drain()
  // re-acquires mu_ once after observing pending_ == 0, which makes the
  // section a destruction barrier (and keeps the blocked-waiter wakeup
  // race-free, since its predicate also runs under mu_).
  const std::lock_guard<std::mutex> lock(mu_);
  if (error && !error_) error_ = std::move(error);
  LMR_ASSERT(pending_.load(std::memory_order_relaxed) > 0,
             "finish_one without a matching run()");
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

}  // namespace lmr::exec
