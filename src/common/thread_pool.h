#ifndef MPPDB_COMMON_THREAD_POOL_H_
#define MPPDB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mppdb {

/// A move-only type-erased `void()` callable. Tasks routinely capture
/// move-only state (promises, result slots, materialized row batches), which
/// `std::function` cannot hold without copies — every submission used to pay
/// a callable copy through std::function + std::packaged_task.
class TaskFn {
 public:
  TaskFn() = default;
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, TaskFn>>>
  TaskFn(F&& fn)  // NOLINT(google-explicit-constructor)
      : impl_(std::make_unique<Impl<std::decay_t<F>>>(std::forward<F>(fn))) {}

  TaskFn(TaskFn&&) = default;
  TaskFn& operator=(TaskFn&&) = default;
  TaskFn(const TaskFn&) = delete;
  TaskFn& operator=(const TaskFn&) = delete;

  void operator()() { impl_->Call(); }
  explicit operator bool() const { return impl_ != nullptr; }

 private:
  struct Base {
    virtual ~Base() = default;
    virtual void Call() = 0;
  };
  template <typename F>
  struct Impl final : Base {
    explicit Impl(F&& f) : fn(std::move(f)) {}
    explicit Impl(const F& f) : fn(f) {}
    void Call() override { fn(); }
    F fn;
  };
  std::unique_ptr<Base> impl_;
};

/// The morsel-driven work-stealing scheduler (Leis et al., "Morsel-Driven
/// Parallelism"): a pool sized to the hardware, not to the plan, onto which
/// the executor schedules segment slices and fixed-size scan morsels.
///
/// Structure:
///  * One global injection queue for external submissions (segment tasks,
///    Motion resume continuations) — FIFO, mutex-protected.
///  * One deque per worker for TaskGroup morsels. The owner pushes and pops
///    at the back (LIFO — the most recently spawned range is the hottest in
///    cache); idle workers steal half a victim's deque from the front (the
///    oldest, coldest ranges), keeping each side's ranges sequential.
///  * Workers prefer their own deque, then the global queue, then stealing.
///
/// Scheduled tasks must never block on other tasks: a task that reaches an
/// unsatisfied dependency (e.g. a Motion whose peers have not arrived)
/// records a continuation and returns, freeing the worker. That is what makes
/// the pool size independent of the plan — any number of segments and
/// morsels make progress on one worker. TaskGroup::Wait is the one
/// synchronization point, and it waits productively: it drains the caller's
/// own deque (running stolen-back morsels) before sleeping, and group tasks
/// themselves never wait, so the group always drains.
class MorselScheduler {
 public:
  /// Spawns `num_workers` threads (> 0). A size of
  /// std::thread::hardware_concurrency() is the intended default; callers
  /// with an explicit cap pass that instead.
  explicit MorselScheduler(int num_workers);
  ~MorselScheduler();

  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Index of the calling thread within this scheduler's pool, -1 when called
  /// from outside it.
  int CurrentWorker() const;

  /// Enqueues an independent task on the global injection queue. Callable
  /// from any thread, including workers (a Motion build resuming its waiter
  /// segments does exactly that).
  void Submit(TaskFn fn);

  /// Per-worker nanoseconds spent running tasks since construction or the
  /// last ResetBusyTime — the raw material for the skew experiments in
  /// bench_parallel_speedup.
  std::vector<uint64_t> BusyNanos() const;
  void ResetBusyTime();

  /// A fork-join scope for one slice's morsels. Spawn from the owning task,
  /// then Wait; Wait returns once every spawned task has finished (on any
  /// worker).
  class TaskGroup {
   public:
    explicit TaskGroup(MorselScheduler* scheduler) : scheduler_(scheduler) {}
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Registers one task. From a worker thread the task goes on that
    /// worker's own deque (stealable by idle peers); from outside the pool it
    /// goes on the global queue.
    void Spawn(TaskFn fn);

    /// Runs and/or waits until all spawned tasks have finished. A worker
    /// drains its own deque first — under no contention the spawner runs its
    /// own morsels back-to-back in LIFO order with zero cross-thread traffic.
    void Wait();

   private:
    friend class MorselScheduler;
    MorselScheduler* scheduler_;
    std::mutex mu_;
    std::condition_variable cv_;
    size_t pending_ = 0;
  };

 private:
  /// A queued task with its group (null for independent Submit tasks).
  struct QueuedTask {
    TaskFn fn;
    TaskGroup* group = nullptr;
  };
  struct Worker {
    std::mutex mu;
    std::deque<QueuedTask> deque;
    /// Written by the owning worker only; read by BusyNanos from any thread.
    std::atomic<uint64_t> busy_ns{0};
    std::thread thread;
  };

  void WorkerLoop(int index);
  /// Runs `task`, accounting busy time to `worker` (negative: external
  /// thread, no accounting) and completing its group if any.
  void RunTask(QueuedTask task, int worker);
  /// Pops the back of `worker`'s own deque. Returns false when empty.
  bool PopLocal(int worker, QueuedTask* out);
  bool PopGlobal(QueuedTask* out);
  /// Steal-half from the first victim with work: takes the front (oldest)
  /// half of the victim's deque, keeps one task to run and plants the rest in
  /// the thief's own deque (where they remain stealable).
  bool Steal(int thief, QueuedTask* out);
  void NotifyWork();

  std::vector<std::unique_ptr<Worker>> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedTask> global_;
  /// Bumped on every enqueue; sleeping workers re-scan when it moves, which
  /// closes the check-queues-then-sleep race without timed polling.
  uint64_t work_epoch_ = 0;
  bool stopping_ = false;
};

}  // namespace mppdb

#endif  // MPPDB_COMMON_THREAD_POOL_H_
