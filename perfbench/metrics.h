// The benchmark's own arithmetic: percentiles, ratios, span self time, and
// the write model of the serving workload. Kept free of engine types so
// selftest.cc can check it in isolation.
#ifndef MPPDB_PERFBENCH_METRICS_H_
#define MPPDB_PERFBENCH_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of a sample (mean of the two middle values for an even count);
/// 0 for an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2;
}

/// A tail latency together with the percentile it was read at and the number
/// of samples it rests on.
struct Tail {
  double value = 0;
  /// The percentile used (95, 90, 75 or 50).
  int percentile = 0;
  size_t samples = 0;
  /// Samples strictly above the reported rank.
  size_t beyond = 0;
  /// False when even the median has fewer than ten samples beyond it (fewer
  /// than 20 samples): `value` is then the median and says nothing about
  /// the tail.
  bool supported = false;
  /// Blocks whose tails were combined (BlockTail); 1 for a pooled tail.
  size_t blocks = 1;
};

/// Nearest-rank percentile: the value at 1-based position ceil(pct * n / 100)
/// of the sorted sample; 0 for an empty sample.
inline double Percentile(std::vector<double> values, int pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = (static_cast<size_t>(pct) * values.size() + 99) / 100;
  return values[std::max<size_t>(rank, 1) - 1];
}

/// The highest of p95/p90/p75/p50 that leaves at least ten samples beyond
/// its nearest rank — p95 from 200 samples on. Not p99: on a shared 4-vCPU
/// host the serving workload's read p99 spread 0.19-0.23 (IQR/median over
/// 10 runs) where its p95 spread about half that; the p99 is printed as a
/// report-only number.
inline Tail TailLatency(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (int pct : {95, 90, 75, 50}) {
    const size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
    const size_t beyond = n - rank;
    if (beyond >= 10 || pct == 50) {
      tail.value = values[rank - 1];
      tail.percentile = pct;
      tail.beyond = beyond;
      tail.supported = beyond >= 10;
      return tail;
    }
  }
  return tail;
}

/// The median of block tails: `in_order` (latencies in completion order) is
/// cut into consecutive blocks of at least `min_block` samples, at most
/// `max_blocks` of them, each block's tail is read by TailLatency's rule,
/// and the median block tail is returned. A pooled p99 is the latency of the
/// slowest 1%, and a host hiccup of a second or two puts its samples
/// exactly there; the median over blocks ignores a hiccup that spoils fewer
/// than half of the blocks. Fewer than 2 * min_block samples make one block,
/// which is TailLatency itself. In the result, `percentile` and `beyond` are
/// those of the smallest block.
inline Tail BlockTail(const std::vector<double>& in_order, size_t min_block,
                      size_t max_blocks) {
  const size_t n = in_order.size();
  const size_t count =
      std::max<size_t>(1, std::min(max_blocks, min_block == 0 ? n : n / min_block));
  if (count == 1) return TailLatency(in_order);
  Tail tail;
  tail.samples = n;
  tail.blocks = count;
  tail.supported = true;
  std::vector<double> values;
  for (size_t b = 0; b < count; ++b) {
    // Block b is [b*n/count, (b+1)*n/count): sizes differ by at most one.
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(b * n / count);
    const auto last = in_order.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / count);
    const Tail t = TailLatency(std::vector<double>(first, last));
    values.push_back(t.value);
    if (b == 0 || t.beyond < tail.beyond) {
      tail.beyond = t.beyond;
      tail.percentile = t.percentile;
    }
    tail.supported = tail.supported && t.supported;
  }
  tail.value = Median(std::move(values));
  return tail;
}

/// `ms` reordered by `done_ns` (the completion time of each sample), ties
/// kept in input order.
inline std::vector<double> InCompletionOrder(const std::vector<double>& ms,
                                             const std::vector<int64_t>& done_ns) {
  std::vector<size_t> order(ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return done_ns[a] < done_ns[b]; });
  std::vector<double> out;
  out.reserve(ms.size());
  for (size_t i : order) out.push_back(ms[i]);
  return out;
}

/// num / den, and 0 when the base is 0 (nothing was attempted, so nothing
/// was skipped or rejected). Callers print the base beside the ratio.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// One traced call: the benchmark wraps each call it makes into a layer's
/// public function in a span. Spans of one statement share `stmt`; a root
/// span has parent 0 (span ids start at 1).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t stmt = 0;
  int layer = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its direct children cover. Children may overlap each
/// other (their union is subtracted once) or run past the parent (they are
/// clipped to it); grandchildren count only against their own parent.
/// Ids are unique within `spans`.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[it->second].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

/// What the serving workload expects `SELECT count(*), sum(amount) FROM
/// orders` to return after its run: the loaded table plus every write the
/// engine acknowledged. Writes are single-row INSERTs of fresh keys and
/// additive single-key UPDATEs (`amount = amount + delta` on a key that
/// exists), so the final state does not depend on the order concurrent
/// writes were applied in. Amounts are whole numbers, which keeps every sum
/// exact in a double.
class WriteModel {
 public:
  WriteModel(int64_t rows, int64_t amount_sum) : rows_(rows), sum_(amount_sum) {}

  /// An acknowledged INSERT of one row.
  void Inserted(int64_t amount) {
    ++rows_;
    sum_ += amount;
  }
  /// An acknowledged UPDATE that added `delta` to `rows_updated` rows.
  void Updated(int64_t delta, int64_t rows_updated) { sum_ += delta * rows_updated; }
  /// Folds in the writes another client's model recorded (built from 0, 0).
  void Merge(const WriteModel& other) {
    rows_ += other.rows_;
    sum_ += other.sum_;
  }

  int64_t rows() const { return rows_; }
  int64_t amount_sum() const { return sum_; }

  /// True when the engine's final count and sum equal the model.
  bool Matches(int64_t rows, double amount_sum) const {
    return rows == rows_ && amount_sum == static_cast<double>(sum_);
  }

 private:
  int64_t rows_;
  int64_t sum_;
};

}  // namespace perfbench

#endif  // MPPDB_PERFBENCH_METRICS_H_
