#include "common/thread_pool.h"

#include <chrono>

#include "common/macros.h"

namespace mppdb {

namespace {
/// Worker identity of the current thread: which scheduler it belongs to (if
/// any) and its index there. One pair of thread-locals supports multiple
/// scheduler instances (tests create private pools next to the shared one).
thread_local const MorselScheduler* tl_scheduler = nullptr;
thread_local int tl_worker_index = -1;
}  // namespace

MorselScheduler::MorselScheduler(int num_workers) {
  MPPDB_CHECK(num_workers > 0);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < num_workers; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i]() { WorkerLoop(i); });
  }
}

MorselScheduler::~MorselScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    ++work_epoch_;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker->thread.join();
}

int MorselScheduler::CurrentWorker() const {
  return tl_scheduler == this ? tl_worker_index : -1;
}

void MorselScheduler::Submit(TaskFn fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MPPDB_CHECK(!stopping_);
    global_.push_back(QueuedTask{std::move(fn), nullptr});
  }
  NotifyWork();
}

std::vector<uint64_t> MorselScheduler::BusyNanos() const {
  std::vector<uint64_t> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    out.push_back(worker->busy_ns.load(std::memory_order_relaxed));
  }
  return out;
}

void MorselScheduler::ResetBusyTime() {
  for (auto& worker : workers_) {
    worker->busy_ns.store(0, std::memory_order_relaxed);
  }
}

void MorselScheduler::NotifyWork() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++work_epoch_;
  }
  cv_.notify_all();
}

void MorselScheduler::RunTask(QueuedTask task, int worker) {
  if (worker >= 0) {
    const auto start = std::chrono::steady_clock::now();
    task.fn();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    workers_[static_cast<size_t>(worker)]->busy_ns.fetch_add(
        static_cast<uint64_t>(ns), std::memory_order_relaxed);
  } else {
    task.fn();
  }
  if (task.group != nullptr) {
    TaskGroup* group = task.group;
    // Notify under the lock: once pending_ hits 0 a thread in Wait may
    // return and destroy the group, so the cv must not be touched after the
    // unlock.
    std::lock_guard<std::mutex> lock(group->mu_);
    MPPDB_CHECK(group->pending_ > 0);
    if (--group->pending_ == 0) group->cv_.notify_all();
  }
}

bool MorselScheduler::PopLocal(int worker, QueuedTask* out) {
  Worker& me = *workers_[static_cast<size_t>(worker)];
  std::lock_guard<std::mutex> lock(me.mu);
  if (me.deque.empty()) return false;
  *out = std::move(me.deque.back());
  me.deque.pop_back();
  return true;
}

bool MorselScheduler::PopGlobal(QueuedTask* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (global_.empty()) return false;
  *out = std::move(global_.front());
  global_.pop_front();
  return true;
}

bool MorselScheduler::Steal(int thief, QueuedTask* out) {
  const int n = num_workers();
  for (int offset = 1; offset < n; ++offset) {
    const int victim_index = (thief + offset) % n;
    Worker& victim = *workers_[static_cast<size_t>(victim_index)];
    std::vector<QueuedTask> loot;
    {
      // try_lock: a contended victim is being drained by someone already;
      // move on rather than convoy behind them.
      std::unique_lock<std::mutex> lock(victim.mu, std::try_to_lock);
      if (!lock.owns_lock() || victim.deque.empty()) continue;
      // Steal-half from the front: the oldest ranges, leaving the victim the
      // recent (cache-warm) back of its deque. Both halves stay sequential.
      const size_t take = (victim.deque.size() + 1) / 2;
      loot.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        loot.push_back(std::move(victim.deque.front()));
        victim.deque.pop_front();
      }
    }
    *out = std::move(loot.front());
    if (loot.size() > 1) {
      Worker& me = *workers_[static_cast<size_t>(thief)];
      {
        std::lock_guard<std::mutex> lock(me.mu);
        for (size_t i = 1; i < loot.size(); ++i) {
          me.deque.push_back(std::move(loot[i]));
        }
      }
      NotifyWork();  // the re-planted tasks are stealable in turn
    }
    return true;
  }
  return false;
}

void MorselScheduler::WorkerLoop(int index) {
  tl_scheduler = this;
  tl_worker_index = index;
  for (;;) {
    // Capture the epoch BEFORE scanning: any enqueue after this point bumps
    // it, so the wait below falls through and rescans instead of sleeping on
    // work the scan raced past.
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ && global_.empty()) return;
      epoch = work_epoch_;
    }
    QueuedTask task;
    if (PopLocal(index, &task) || PopGlobal(&task) || Steal(index, &task)) {
      RunTask(std::move(task), index);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, epoch]() { return stopping_ || work_epoch_ != epoch; });
  }
}

MorselScheduler::TaskGroup::~TaskGroup() {
  // A group abandoned with tasks still pending would leave them referencing a
  // dead object; Wait() before destruction is part of the contract.
  std::lock_guard<std::mutex> lock(mu_);
  MPPDB_CHECK(pending_ == 0);
}

void MorselScheduler::TaskGroup::Spawn(TaskFn fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  const int worker = scheduler_->CurrentWorker();
  if (worker >= 0) {
    Worker& me = *scheduler_->workers_[static_cast<size_t>(worker)];
    std::lock_guard<std::mutex> lock(me.mu);
    me.deque.push_back(QueuedTask{std::move(fn), this});
  } else {
    std::lock_guard<std::mutex> lock(scheduler_->mu_);
    scheduler_->global_.push_back(QueuedTask{std::move(fn), this});
  }
  scheduler_->NotifyWork();
}

void MorselScheduler::TaskGroup::Wait() {
  const int worker = scheduler_->CurrentWorker();
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_ == 0) return;
    }
    // Help with local work first. Every task in this worker's deque is a
    // group morsel (this group's, or one stolen from a peer) and morsels
    // never wait on anything, so helping always makes progress.
    QueuedTask task;
    if (worker >= 0 && scheduler_->PopLocal(worker, &task)) {
      scheduler_->RunTask(std::move(task), worker);
      continue;
    }
    // Own deque drained: the stragglers were stolen and are running (or
    // queued) elsewhere. Sleep until the last one completes.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this]() { return pending_ == 0; });
    return;
  }
}

}  // namespace mppdb
