// The benchmark's four workloads and the closed-loop runners that drive
// them through the library's public boundary (db/database.h,
// server/session_manager.h, workload/*).
#ifndef MPPDB_PERFBENCH_WORKLOADS_H_
#define MPPDB_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/executor.h"
#include "metrics.h"

namespace perfbench {

/// Segments of every workload's Database.
constexpr int kSegments = 4;

/// The layer boundaries the traced run wraps in spans. kStmt is the root: a
/// statement as its client sees it.
enum Layer : int {
  kStmt,
  kParse,      ///< ParseStatement
  kBind,       ///< Binder::Bind
  kNormalize,  ///< NormalizeSql
  kPlan,       ///< CascadesOptimizer::Plan
  kExecute,    ///< Database::ExecutePlan, or Database::Execute for writes
  kServerRun,  ///< SessionManager::Run
  kNumLayers,
};
const char* LayerName(int layer);

/// Counters folded from every successful statement's QueryResult::stats.
struct Counters {
  uint64_t statements = 0;
  uint64_t tuples_scanned = 0;
  uint64_t rows_out = 0;
  uint64_t rows_moved = 0;
  /// Leaf partitions scanned, and leaf partitions of the partitioned tables
  /// the statement's plan reads.
  uint64_t parts_scanned = 0;
  uint64_t parts_total = 0;
  uint64_t joinfilter_probed = 0;
  uint64_t joinfilter_rejected = 0;
  uint64_t chunks_total = 0;
  uint64_t chunks_skipped = 0;
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  uint64_t spill_passes = 0;
  uint64_t sort_runs = 0;
  /// Traced statements only: optimizer search effort and plan size.
  uint64_t planned = 0;
  uint64_t optimizer_requests = 0;
  uint64_t plan_bytes = 0;

  void Merge(const Counters& other);
};

/// What one measured phase produced.
struct PhaseResult {
  double wall_s = 0;
  /// Process CPU seconds (user + system) over the phase.
  double cpu_s = 0;
  /// Statements completed in `wall_s` (the throughput numerator).
  uint64_t completed = 0;
  uint64_t attempted = 0;
  /// Statements that returned an error or were rejected.
  uint64_t errors = 0;
  /// Statements whose result failed its check.
  uint64_t wrong = 0;
  std::vector<double> read_ms;
  /// When each read_ms sample completed (NowNs), for BlockTail.
  std::vector<int64_t> read_done_ns;
  std::vector<double> write_ms;
  /// Read latencies by statement kind (workload-specific index).
  std::vector<std::vector<double>> kind_ms;
  Counters counters;
  /// Traced phases only.
  std::vector<Span> spans;
  /// Plan-cache hits and lookups over the phase.
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  /// SessionManager::stats() deltas over the phase (serving only).
  uint64_t group_waits = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t rejected = 0;
  /// The first few error or check messages.
  std::vector<std::string> messages;

  void Merge(PhaseResult other);
  void Note(std::string message);
};

struct WorkloadConfig {
  uint64_t seed = 1;
  /// Directory budget_spill points QueryOptions::spill_dir at.
  std::string spill_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Drops any previous state and builds it afresh: database, tables, load,
  /// reference results, warm-up. Timed as setup_s.
  virtual mppdb::Status Setup() = 0;
  /// Runs the closed loop for `seconds`. `traced` swaps the single
  /// Database::Execute call for spans around the calls into each layer.
  virtual PhaseResult Run(double seconds, bool traced) = 0;
  /// Checks that need the whole run (write model, spill directory).
  virtual mppdb::Status FinalCheck() { return mppdb::Status::OK(); }
  /// Sizes recorded with every result, as (name, value) pairs.
  virtual std::vector<std::pair<std::string, std::string>> Sizes() const = 0;
  /// Names of the statement kinds PhaseResult::kind_ms is indexed by.
  virtual std::vector<std::string> KindNames() const = 0;
  /// Rows loaded by the last Setup and seconds spent in the load calls.
  size_t rows_loaded() const { return rows_loaded_; }
  double load_seconds() const { return load_seconds_; }
  /// Median full-scan latency of the partitioned table over its
  /// unpartitioned twin (scan_lineitem only; 0 elsewhere).
  virtual double PartitionOverheadRatio(const PhaseResult& untraced) const {
    (void)untraced;
    return 0;
  }

 protected:
  size_t rows_loaded_ = 0;
  double load_seconds_ = 0;
};

/// The workload named in BENCHMARK.json; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

/// Monotonic nanoseconds.
int64_t NowNs();
/// Process CPU seconds so far.
double CpuSeconds();

}  // namespace perfbench

#endif  // MPPDB_PERFBENCH_WORKLOADS_H_
