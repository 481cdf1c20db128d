#ifndef MPPDB_RUNTIME_QUERY_CONTEXT_H_
#define MPPDB_RUNTIME_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>

#include "common/fault_injection.h"
#include "common/memory_budget.h"
#include "common/status.h"

namespace mppdb {

/// Per-query execution context: a cooperative cancellation token, an optional
/// deadline, a memory budget, and an optional fault injector. The executor
/// checks it at batch granularity in every hot loop (CheckAlive), in Motion
/// exchanges, and in scheduler task bodies, so Cancel() and deadline expiry
/// terminate any query — at any worker count — within one batch, with a typed
/// Status (kCancelled / kDeadlineExceeded), all threads joined, and storage
/// untouched (DML re-checks liveness before applying any write, never
/// mid-apply).
///
/// Thread safety: Cancel/CheckAlive/ShouldStop are callable from any thread.
/// Setters (deadline, budget limit, injector) must run before the query
/// starts. A context is reusable across executions; the executor resets the
/// budget usage per attempt, and cancellation is sticky until Reset().
///
/// In the serving stack (DESIGN.md §11) a context is built per statement by
/// Database::Execute from its QueryOptions — timeout, memory limit, fault
/// injector — and registered under QueryOptions::query_id for
/// Database::Cancel. Concurrent statements therefore never share a context
/// or a budget: a resource group's memory limit is parceled into each
/// admitted query's own QueryOptions::memory_limit_bytes by SessionManager,
/// and group accounting lives in the dispatcher, not here.
class QueryContext : public StopSource {
 public:
  QueryContext() = default;

  /// Requests cooperative termination and runs the registered cancel
  /// callbacks (the executor hooks its barrier wake-up here), exactly once.
  void Cancel();
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void SetTimeout(std::chrono::milliseconds timeout) {
    SetDeadline(std::chrono::steady_clock::now() + timeout);
  }
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// OK while the query may keep running; kCancelled / kDeadlineExceeded
  /// once it must stop. The batch-granularity check: two loads when no
  /// deadline is set, one clock read when one is.
  Status CheckAlive() const;

  /// StopSource: lets fault-injected delays (and other interruptible waits)
  /// bail out as soon as the query is cancelled or past its deadline.
  bool ShouldStop() const override;

  MemoryBudget& budget() { return budget_; }
  const MemoryBudget& budget() const { return budget_; }

  FaultInjector* fault_injector() const { return injector_; }
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Directory for out-of-core spill files; empty means the system temp
  /// directory. Configuration like the injector, so Reset() leaves it alone.
  const std::string& spill_dir() const { return spill_dir_; }
  void set_spill_dir(std::string dir) { spill_dir_ = std::move(dir); }

  /// Registers a callback Cancel() invokes (immediately, if already
  /// cancelled). Returns a handle for RemoveCancelCallback. The callback
  /// must not call back into this context.
  uint64_t AddCancelCallback(std::function<void()> fn);
  void RemoveCancelCallback(uint64_t handle);

  /// Clears cancellation, deadline, and budget usage for reuse. Must run
  /// while no query executes against this context.
  void Reset();

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  MemoryBudget budget_;
  FaultInjector* injector_ = nullptr;
  std::string spill_dir_;

  std::mutex cb_mu_;
  uint64_t next_cb_handle_ = 1;
  std::map<uint64_t, std::function<void()>> callbacks_;
};

}  // namespace mppdb

#endif  // MPPDB_RUNTIME_QUERY_CONTEXT_H_
