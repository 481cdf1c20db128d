#ifndef MPPDB_BENCH_BENCH_UTIL_H_
#define MPPDB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace mppdb {
namespace benchutil {

/// Wall-clock timing summary over repeated runs of a workload. The tail
/// percentiles are what a serving layer's latency SLOs are written against;
/// with few samples they degrade gracefully (p99 of 10 samples = the max).
struct TimingStats {
  double min_ms = 0;
  double mean_ms = 0;
  double median_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// Nearest-rank percentile (q in [0,1]) of an already-sorted sample.
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  MPPDB_CHECK(!sorted.empty());
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Summarizes a sample of latencies (any order) into TimingStats.
inline TimingStats SummarizeMillis(std::vector<double> times) {
  MPPDB_CHECK(!times.empty());
  std::sort(times.begin(), times.end());
  TimingStats stats;
  stats.min_ms = times.front();
  stats.mean_ms = std::accumulate(times.begin(), times.end(), 0.0) /
                  static_cast<double>(times.size());
  stats.median_ms = PercentileSorted(times, 0.5);
  stats.p95_ms = PercentileSorted(times, 0.95);
  stats.p99_ms = PercentileSorted(times, 0.99);
  stats.max_ms = times.back();
  return stats;
}

/// Runs `fn` `warmup` times untimed (populating caches, lazy indexes, and
/// the allocator), then `iterations` times timed, and reports min / mean /
/// median wall-clock milliseconds. Without a warmup, cold-start skew lands
/// in the median at low iteration counts.
inline TimingStats MeasureMillis(int warmup, int iterations,
                                 const std::function<void()>& fn) {
  MPPDB_CHECK(iterations > 0);
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> times;
  times.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(end -
                                                                              start)
            .count());
  }
  return SummarizeMillis(std::move(times));
}

/// Median wall-clock milliseconds over `iterations` runs of `fn`, preceded
/// by one untimed warmup run.
inline double MedianMillis(int iterations, const std::function<void()>& fn) {
  return MeasureMillis(/*warmup=*/1, iterations, fn).median_ms;
}

/// Prints a horizontal rule sized to `width`.
inline void Rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void Header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace benchutil
}  // namespace mppdb

#endif  // MPPDB_BENCH_BENCH_UTIL_H_
