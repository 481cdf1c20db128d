#ifndef MPPDB_COMMON_FAULT_INJECTION_H_
#define MPPDB_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/random.h"
#include "common/status.h"

namespace mppdb {

/// Something a long fault delay should watch while sleeping (a cancellation
/// token, a deadline). Lets fault_injection stay below runtime/ in the layer
/// stack: QueryContext implements this interface.
class StopSource {
 public:
  virtual ~StopSource() = default;
  /// True once the owner wants in-flight work to stop (cancelled, deadline
  /// expired). Must be cheap and thread-safe.
  virtual bool ShouldStop() const = 0;
};

/// What an armed fault point does when it fires.
enum class FaultKind {
  /// Returns kTransientIO — the query-level retry loop may cure it.
  kTransient,
  /// Returns kInternal — never retried.
  kFatal,
  /// Sleeps `delay_ms` (in 1 ms slices, watching the StopSource so a stuck
  /// peer stays cancellable), then proceeds normally. Models a slow or
  /// wedged segment rather than an erroring one.
  kDelay,
};

/// Schedule for one armed fault point.
struct FaultSpec {
  FaultKind kind = FaultKind::kTransient;
  /// Probability that an eligible hit fires, drawn from the injector's
  /// seeded generator.
  double probability = 1.0;
  /// Only hits from this segment are eligible; -1 means every segment.
  int segment = -1;
  /// Number of eligible hits skipped before the schedule starts (arms the
  /// fault "N batches in").
  int skip_first = 0;
  /// Cap on total fires; -1 means unlimited.
  int max_fires = -1;
  /// Sleep duration for kDelay.
  int delay_ms = 0;
};

/// Deterministic, seedable fault-injection registry.
///
/// Execution code declares named fault points (kPoints below) by calling
/// Hit(point, segment) on its hot paths; tests Arm() specs against those
/// names to inject transient errors, fatal errors, or delays. With no
/// injector configured the executor skips the call entirely (one pointer
/// test), and an injector with nothing armed returns immediately, so the
/// fault-free overhead is a map lookup at worst.
///
/// Determinism: all state (including the probability generator) sits behind
/// one mutex, so a 1-worker execution replays identically for a given seed.
/// On a worker pool the per-thread interleaving of draws is not
/// fixed, but the draw sequence itself is, so a seed still pins the overall
/// fault density; use segment-filtered specs for exact parallel placement.
///
/// Thread safety: all methods are mutex-serialized; Hit is callable from any
/// segment worker. kDelay sleeps happen outside the mutex.
class FaultInjector {
 public:
  /// The named fault points the executor exposes, in the order they appear
  /// on a typical query's path. Tests iterate this list for matrix coverage.
  static const char* const kPoints[10];

  explicit FaultInjector(uint64_t seed) : rng_(seed), seed_(seed) {}

  /// Arms (or replaces) the spec for `point`.
  void Arm(const std::string& point, FaultSpec spec);
  void Disarm(const std::string& point);

  /// Disarms everything, clears counters, and reseeds the generator (with
  /// the construction seed if `seed` is 0).
  void Reset(uint64_t seed = 0);

  /// The executor-side entry: returns the armed fault's status (or sleeps)
  /// when the point fires, OK otherwise. `stop` may be null; a non-null stop
  /// source cuts kDelay sleeps short.
  Status Hit(const char* point, int segment, const StopSource* stop = nullptr);

  /// Eligible hits observed / faults fired at `point` (0 if never armed or
  /// never reached).
  size_t hits(const std::string& point) const;
  size_t fires(const std::string& point) const;

 private:
  struct PointState {
    FaultSpec spec;
    size_t hits = 0;
    size_t fires = 0;
    int remaining_skips = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, PointState> points_;
  Random rng_;
  uint64_t seed_;
};

}  // namespace mppdb

#endif  // MPPDB_COMMON_FAULT_INJECTION_H_
