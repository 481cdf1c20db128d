#ifndef MPPDB_COMMON_MEMORY_BUDGET_H_
#define MPPDB_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <string>

namespace mppdb {

/// A per-query memory accountant. Operators that materialize significant
/// state (hash-join/agg build tables, sort buffers, motion receive queues,
/// join-filter summaries) charge an estimate of their footprint before
/// allocating; when a limit is set and a charge would exceed it, TryCharge
/// refuses and the operator either sheds the allocation (advisory state like
/// join-filter summaries and zone-map rebuilds) or fails the query with
/// kResourceExhausted (mandatory state).
///
/// Accounting is estimate-based, not allocator-hooked: charges use the cheap
/// O(1) row-footprint model below (ApproxRowsBytes), which ignores string
/// payloads — the goal is a deterministic, orderable budget signal, not
/// byte-exact RSS. A default-constructed budget is unlimited and charge-free
/// (a single branch), so queries without a budget pay nothing.
///
/// Thread safety: TryCharge/Release are lock-free atomics, callable from any
/// segment worker. ResetUsage/set_limit must run while no query executes.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  explicit MemoryBudget(size_t limit_bytes) : limit_(limit_bytes) {}

  /// 0 means unlimited.
  size_t limit() const { return limit_; }
  bool limited() const { return limit_ != 0; }
  void set_limit(size_t limit_bytes) { limit_ = limit_bytes; }

  /// Charges `bytes` against the budget. Returns false — leaving usage
  /// unchanged — if the charge would exceed the limit. Unlimited budgets
  /// always succeed without touching the counters.
  bool TryCharge(size_t bytes) {
    if (!limited()) return true;
    size_t prior = used_.fetch_add(bytes, std::memory_order_relaxed);
    if (prior + bytes > limit_) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    // Peak is monotone; racing updaters settle on the max.
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (prior + bytes > peak &&
           !peak_.compare_exchange_weak(peak, prior + bytes,
                                        std::memory_order_relaxed)) {
    }
    return true;
  }

  /// Returns a previously charged amount (scoped allocations like sort
  /// buffers; long-lived build tables are released by ResetUsage instead).
  /// Releasing more than is currently charged is a caller bug — it would
  /// wrap the unsigned counter and turn the budget into a no-op — so debug
  /// builds assert and release builds clamp the counter to zero.
  void Release(size_t bytes) {
    if (!limited()) return;
    size_t prior = used_.fetch_sub(bytes, std::memory_order_relaxed);
    assert(prior >= bytes && "MemoryBudget::Release underflow");
    if (prior < bytes) used_.store(0, std::memory_order_relaxed);
  }

  /// Clears usage (not the limit) between executions/retry attempts.
  void ResetUsage() {
    used_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// "used/limit bytes (peak N)" or "unlimited", for error messages.
  std::string DebugString() const;

 private:
  size_t limit_ = 0;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

/// O(1) footprint estimate for `num_rows` materialized rows of `width`
/// columns: the Datum payloads plus per-row vector overhead. Strings count
/// their Datum slot only (see MemoryBudget class comment).
inline size_t ApproxRowsBytes(size_t num_rows, size_t width) {
  constexpr size_t kDatumBytes = 24;   // tagged value slot
  constexpr size_t kPerRowBytes = 32;  // row vector header + heap block
  return num_rows * (width * kDatumBytes + kPerRowBytes);
}

/// Modelled plain width of one value in the encoded-storage byte counters
/// (plain_bytes, encoded_bytes, encoded_bytes_scanned): this fixed slot plus
/// a string's characters. Like ApproxRowsBytes' 24-byte slot it is a model,
/// deliberately not sizeof(Datum), so the counters stay put when the
/// in-memory layout changes.
inline constexpr size_t kModelledPlainDatumBytes = 48;

}  // namespace mppdb

#endif  // MPPDB_COMMON_MEMORY_BUDGET_H_
