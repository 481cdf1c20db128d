#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/macros.h"
#include "common/memory_budget.h"
#include "common/random.h"
#include "db/database.h"
#include "optimizer/cascades/cascades_optimizer.h"
#include "server/session_manager.h"
#include "sql/binder.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "workload/tpcds_lite.h"
#include "workload/tpch_lite.h"

namespace perfbench {

using mppdb::Database;
using mppdb::Datum;
using mppdb::ExecStats;
using mppdb::PhysPtr;
using mppdb::QueryOptions;
using mppdb::QueryResult;
using mppdb::Random;
using mppdb::Result;
using mppdb::Row;
using mppdb::Status;

const char* LayerName(int layer) {
  switch (layer) {
    case kStmt:
      return "stmt";
    case kParse:
      return "sql.parse";
    case kBind:
      return "sql.bind";
    case kNormalize:
      return "sql.normalize";
    case kPlan:
      return "optimizer.plan";
    case kExecute:
      return "db.execute";
    case kServerRun:
      return "server.run";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void Counters::Merge(const Counters& o) {
  statements += o.statements;
  tuples_scanned += o.tuples_scanned;
  rows_out += o.rows_out;
  rows_moved += o.rows_moved;
  parts_scanned += o.parts_scanned;
  parts_total += o.parts_total;
  joinfilter_probed += o.joinfilter_probed;
  joinfilter_rejected += o.joinfilter_rejected;
  chunks_total += o.chunks_total;
  chunks_skipped += o.chunks_skipped;
  spill_bytes_written += o.spill_bytes_written;
  spill_bytes_read += o.spill_bytes_read;
  spill_passes += o.spill_passes;
  sort_runs += o.sort_runs;
  planned += o.planned;
  optimizer_requests += o.optimizer_requests;
  plan_bytes += o.plan_bytes;
}

void PhaseResult::Note(std::string message) {
  if (messages.size() < 5) messages.push_back(std::move(message));
}

void PhaseResult::Merge(PhaseResult o) {
  completed += o.completed;
  attempted += o.attempted;
  errors += o.errors;
  wrong += o.wrong;
  read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
  read_done_ns.insert(read_done_ns.end(), o.read_done_ns.begin(), o.read_done_ns.end());
  write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
  if (kind_ms.size() < o.kind_ms.size()) kind_ms.resize(o.kind_ms.size());
  for (size_t k = 0; k < o.kind_ms.size(); ++k) {
    kind_ms[k].insert(kind_ms[k].end(), o.kind_ms[k].begin(), o.kind_ms[k].end());
  }
  counters.Merge(o.counters);
  spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  for (std::string& m : o.messages) Note(std::move(m));
}

namespace {

/// Per-client in-memory span recorder. Every log takes a fresh number from
/// a process-wide counter and puts it in the high half of its span and
/// statement ids, so logs of concurrent clients and of successive phases
/// merge without clashes.
class SpanLog {
 public:
  SpanLog() : base_(NextLog() << 32), stmt_(base_) { spans.reserve(1 << 16); }

  void NewStatement() { ++stmt_; }
  uint64_t Begin(int layer, uint64_t parent) {
    Span s;
    s.id = base_ + spans.size() + 1;
    s.parent = parent;
    s.stmt = stmt_;
    s.layer = layer;
    s.start_ns = NowNs();
    spans.push_back(s);
    return s.id;
  }
  void End(uint64_t id) { spans[id - base_ - 1].end_ns = NowNs(); }

  std::vector<Span> spans;

 private:
  static uint64_t NextLog() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1);
  }

  uint64_t base_;
  uint64_t stmt_;
};

/// The calling thread's kernel id.
pid_t CurrentTid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

/// Kernel ids of the process's threads.
std::set<pid_t> ProcessThreads() {
  std::set<pid_t> tids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.insert(static_cast<pid_t>(std::stoi(entry.path().filename().string())));
  }
  return tids;
}

/// Moves each of `tids` from CPU to CPU of the process's affinity mask:
/// each Turn puts thread i on CPU number first_turn + turns so far + i
/// (modulo the CPU count). The destructor restores the full mask. The speed
/// of each vCPU of a shared host drifts by +-20% over seconds, independently
/// of the others, and the kernel leaves a busy thread on one vCPU: a thread
/// that executes queries measured its vCPU's drift, one that visits every
/// vCPU measures their average. A thread started by a moved thread inherits
/// its one-CPU mask, so move only threads that start none.
class CpuRotation {
 public:
  static constexpr int64_t kTurnNs = 200'000'000;

  CpuRotation(std::vector<pid_t> tids, size_t first_turn)
      : tids_(std::move(tids)), turn_(first_turn) {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (mover_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_one();
      mover_.join();
    }
    if (turned_) {
      for (pid_t tid : tids_) sched_setaffinity(tid, sizeof(mask_), &mask_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Turn() {
    if (cpus_.size() < 2) return;
    turned_ = true;
    for (size_t i = 0; i < tids_.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[(turn_ + i) % cpus_.size()], &one);
      sched_setaffinity(tids_[i], sizeof(one), &one);
    }
    ++turn_;
  }

  /// Turns when kTurnNs have passed since the last turn. For a thread that
  /// moves itself between statements: moved in mid-statement from another
  /// thread, scan_lineitem ran slower in 7 of 8 paired runs.
  void TurnIfDue(int64_t now_ns) {
    if (now_ns < next_turn_ns_) return;
    next_turn_ns_ = now_ns + kTurnNs;
    Turn();
  }

  /// Turns every kTurnNs from a thread of its own until destroyed, for
  /// threads the benchmark does not run.
  void TurnInBackground() {
    if (cpus_.size() < 2 || tids_.empty()) return;
    mover_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      do {
        Turn();
      } while (!cv_.wait_for(lock, std::chrono::nanoseconds(kTurnNs), [this] { return stop_; }));
    });
  }

 private:
  const std::vector<pid_t> tids_;
  cpu_set_t mask_;
  std::vector<int> cpus_;
  size_t turn_;
  bool turned_ = false;
  int64_t next_turn_ns_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread mover_;
};

/// Times one call into a layer as a span (no-op without a log).
template <typename Fn>
auto Traced(SpanLog* log, int layer, uint64_t parent, Fn&& fn) {
  if (log == nullptr) return fn();
  const uint64_t id = log->Begin(layer, parent);
  auto result = fn();
  log->End(id);
  return result;
}

bool NearlyEqual(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == mppdb::TypeId::kDouble || b.type() == mppdb::TypeId::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return Datum::Compare(a, b) == 0;
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const int c = Datum::Compare(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

/// Equality of two results as multisets (sort both; `want` is pre-sorted),
/// with a relative tolerance on doubles: aggregates summed in a different
/// order (another plan, another partition layout) differ in the last bits.
bool SameMultiset(const std::vector<Row>& got, const std::vector<Row>& want_sorted) {
  if (got.size() != want_sorted.size()) return false;
  const std::vector<Row> sorted = Sorted(got);
  for (size_t r = 0; r < sorted.size(); ++r) {
    if (sorted[r].size() != want_sorted[r].size()) return false;
    for (size_t c = 0; c < sorted[r].size(); ++c) {
      if (!NearlyEqual(sorted[r][c], want_sorted[r][c])) return false;
    }
  }
  return true;
}

/// Order-independent checksum of a result: the wrapping sum of row hashes.
uint64_t Checksum(const std::vector<Row>& rows) {
  uint64_t sum = 0;
  for (const Row& row : rows) {
    uint64_t h = 0x84222325CBF29CE4ull;
    for (const Datum& d : row) h = (h ^ d.Hash()) * 0x100000001B3ull;
    sum += h;
  }
  return sum;
}

/// The partitioned tables a plan reads and their total leaf count: the
/// base of runtime.partitions_scanned_ratio.
struct PlanTables {
  std::vector<mppdb::Oid> oids;
  uint64_t leaves = 0;
};

void CollectPartitioned(const mppdb::PhysicalNode& node, std::set<mppdb::Oid>* oids) {
  if (node.kind() == mppdb::PhysNodeKind::kDynamicScan) {
    oids->insert(static_cast<const mppdb::DynamicScanNode&>(node).table_oid());
  } else if (node.kind() == mppdb::PhysNodeKind::kDynamicIndexScan) {
    oids->insert(static_cast<const mppdb::DynamicIndexScanNode&>(node).table_oid());
  }
  for (const PhysPtr& child : node.children()) {
    if (child != nullptr) CollectPartitioned(*child, oids);
  }
}

PlanTables TablesOf(const mppdb::Catalog& catalog, const PhysPtr& plan) {
  std::set<mppdb::Oid> oids;
  if (plan != nullptr) CollectPartitioned(*plan, &oids);
  PlanTables tables;
  for (mppdb::Oid oid : oids) {
    const mppdb::TableDescriptor* desc = catalog.FindTable(oid);
    if (desc == nullptr || !desc->IsPartitioned()) continue;
    tables.oids.push_back(oid);
    tables.leaves += desc->partition_scheme->NumLeaves();
  }
  return tables;
}

void AddStats(const ExecStats& s, size_t rows_out, const PlanTables& tables,
              Counters* c) {
  ++c->statements;
  c->tuples_scanned += s.tuples_scanned;
  c->rows_out += rows_out;
  c->rows_moved += s.rows_moved;
  for (mppdb::Oid oid : tables.oids) c->parts_scanned += s.PartitionsScanned(oid);
  c->parts_total += tables.leaves;
  c->joinfilter_probed += s.joinfilter_probed;
  c->joinfilter_rejected += s.joinfilter_rows_rejected;
  c->chunks_total += s.chunks_total;
  c->chunks_skipped += s.chunks_skipped;
  c->spill_bytes_written += s.spill_bytes_written;
  c->spill_bytes_read += s.spill_bytes_read;
  c->spill_passes += s.spill_passes;
  c->sort_runs += s.sort_runs;
}

/// Runs a set-up statement that must succeed.
Result<QueryResult> MustRun(Database* db, const std::string& sql,
                            const QueryOptions& options = {}) {
  Result<QueryResult> r = db->Execute(sql, options);
  if (!r.ok()) {
    return Status::Internal("set-up statement failed: " + sql + ": " +
                            r.status().ToString());
  }
  return r;
}

// ---------------------------------------------------------------------------
// Single-client workloads: one closed-loop client on the calling thread.
// ---------------------------------------------------------------------------

class SingleClientWorkload : public Workload {
 public:
  /// Set-up and the measured loop run on this thread (the engine executes
  /// serially). Each set-up runs on the CPU after the previous set-up's, and
  /// the measured loop visits every CPU in turn.
  Status Setup() final {
    CpuRotation rotation({CurrentTid()}, setups_++);
    rotation.Turn();
    return Build();
  }

  PhaseResult Run(double seconds, bool traced) override {
    PhaseResult out;
    out.kind_ms.resize(NumKinds());
    SpanLog log;
    SpanLog* spans = traced ? &log : nullptr;
    const mppdb::PlanCache::Stats cache0 = db_->plan_cache().stats();
    const double cpu0 = CpuSeconds();
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    CpuRotation rotation({CurrentTid()}, 0);
    for (int64_t now = start; now < deadline; now = NowNs()) {
      rotation.TurnIfDue(now);
      const Stmt st = Next(next_++);
      ++out.attempted;
      const int64_t t0 = NowNs();
      Result<QueryResult> r =
          traced ? RunTraced(st, spans, &out.counters) : db_->Execute(st.sql, st.options);
      const int64_t done = NowNs();
      const double ms = static_cast<double>(done - t0) / 1e6;
      if (!r.ok()) {
        ++out.errors;
        out.Note(st.sql.substr(0, 60) + ": " + r.status().ToString());
        continue;
      }
      ++out.completed;
      const std::string bad = Check(st, *r);
      if (!bad.empty()) {
        ++out.wrong;
        out.Note(bad);
      }
      out.read_ms.push_back(ms);
      out.read_done_ns.push_back(done);
      out.kind_ms[static_cast<size_t>(st.kind)].push_back(ms);
      AddStats(r->stats, r->rows.size(), TablesFor(st.kind, r->plan), &out.counters);
    }
    out.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    out.cpu_s = CpuSeconds() - cpu0;
    const mppdb::PlanCache::Stats cache1 = db_->plan_cache().stats();
    out.cache_hits = cache1.hits - cache0.hits;
    out.cache_lookups = out.cache_hits + (cache1.misses - cache0.misses);
    out.spans = std::move(log.spans);
    return out;
  }

 protected:
  struct Stmt {
    int kind = 0;
    std::string sql;
    QueryOptions options;
  };

  /// Setup's work: database, load, reference results, warm-up.
  virtual Status Build() = 0;
  virtual size_t NumKinds() const = 0;
  /// The i-th statement of the client's stream.
  virtual Stmt Next(uint64_t i) = 0;
  /// Empty when the result is correct, else what is wrong with it.
  virtual std::string Check(const Stmt& st, const QueryResult& result) = 0;

  /// Fresh database for Setup; statement rotation restarts.
  void ResetDatabase() {
    db_.reset();
    db_ = std::make_unique<Database>(kSegments);
    next_ = 0;
    tables_.clear();
    plan_bytes_.clear();
    rows_loaded_ = 0;
    load_seconds_ = 0;
  }

  /// Runs every kind once through the measured path: warms caches and lazy
  /// structures, and fails set-up if any check fails.
  Status WarmUp() {
    for (size_t k = 0; k < NumKinds(); ++k) {
      const Stmt st = Next(next_++);
      MPPDB_ASSIGN_OR_RETURN(QueryResult r, MustRun(db_.get(), st.sql, st.options));
      const std::string bad = Check(st, r);
      if (!bad.empty()) return Status::Internal("warm-up check failed: " + bad);
    }
    next_ = 0;
    return Status::OK();
  }

  std::unique_ptr<Database> db_;

 private:
  /// Parse, bind, optimize and execute as four calls, each in a span under
  /// the statement's root span.
  Result<QueryResult> RunTraced(const Stmt& st, SpanLog* log, Counters* counters) {
    log->NewStatement();
    const uint64_t root = log->Begin(kStmt, 0);
    Result<QueryResult> r = TracedPipeline(st, log, root, counters);
    log->End(root);
    return r;
  }

  Result<QueryResult> TracedPipeline(const Stmt& st, SpanLog* log, uint64_t root,
                                     Counters* counters) {
    Result<mppdb::sql_ast::Statement> parsed =
        Traced(log, kParse, root, [&] { return mppdb::ParseStatement(st.sql); });
    MPPDB_RETURN_IF_ERROR(parsed.status());
    mppdb::Binder binder(&db_->catalog());
    Result<mppdb::BoundStatement> bound =
        Traced(log, kBind, root, [&] { return binder.Bind(*parsed); });
    MPPDB_RETURN_IF_ERROR(bound.status());
    mppdb::CascadesOptimizer::Options opt;
    opt.enable_partition_selection = st.options.enable_partition_selection;
    opt.enable_dynamic_elimination = st.options.enable_dynamic_elimination;
    opt.enable_two_phase_agg = st.options.enable_two_phase_agg;
    opt.enable_index_join = st.options.enable_index_join;
    opt.enable_join_filters = st.options.enable_join_filters;
    opt.enable_index_paths = st.options.enable_index_paths;
    mppdb::CascadesOptimizer optimizer(&db_->catalog(), &db_->storage(), opt);
    Result<PhysPtr> plan = Traced(log, kPlan, root, [&] { return optimizer.Plan(*bound); });
    MPPDB_RETURN_IF_ERROR(plan.status());
    ++counters->planned;
    counters->optimizer_requests += optimizer.last_request_count();
    auto bytes = plan_bytes_.find(st.kind);
    if (bytes == plan_bytes_.end()) {
      bytes = plan_bytes_.emplace(st.kind, mppdb::SerializePlan(*plan).size()).first;
    }
    counters->plan_bytes += bytes->second;
    return Traced(log, kExecute, root,
                  [&] { return db_->ExecutePlan(*plan, st.options); });
  }

  const PlanTables& TablesFor(int kind, const PhysPtr& plan) {
    auto it = tables_.find(kind);
    if (it == tables_.end()) it = tables_.emplace(kind, TablesOf(db_->catalog(), plan)).first;
    return it->second;
  }

  uint64_t next_ = 0;
  size_t setups_ = 0;
  std::map<int, PlanTables> tables_;
  /// SerializePlan size per statement kind (plans are stable per kind).
  std::map<int, size_t> plan_bytes_;
};

// ---------------------------------------------------------------------------
// scan_lineitem: storage and the scan/Gather path, trivial plans.
// ---------------------------------------------------------------------------

constexpr size_t kScanRows = 120000;

class ScanLineitem : public SingleClientWorkload {
 public:
  explicit ScanLineitem(const WorkloadConfig& config) : config_(config) {}

  Status Build() override {
    ResetDatabase();
    mppdb::workload::TpchConfig tpch;
    tpch.rows = kScanRows;
    tpch.seed = config_.seed;
    const int64_t t0 = NowNs();
    MPPDB_RETURN_IF_ERROR(mppdb::workload::CreateAndLoadLineitem(
        db_.get(), tpch, mppdb::workload::LineitemPartitioning::kWeekly361,
        "lineitem"));
    MPPDB_RETURN_IF_ERROR(mppdb::workload::CreateAndLoadLineitem(
        db_.get(), tpch, mppdb::workload::LineitemPartitioning::kNone,
        "lineitem_flat"));
    load_seconds_ = static_cast<double>(NowNs() - t0) / 1e9;
    rows_loaded_ = 2 * kScanRows;

    // References from the unpartitioned twin.
    MPPDB_ASSIGN_OR_RETURN(QueryResult all, MustRun(db_.get(), Sql(kSelectAllFlat)));
    ref_rows_ = all.rows.size();
    ref_checksum_ = Checksum(all.rows);
    MPPDB_ASSIGN_OR_RETURN(QueryResult agg, MustRun(db_.get(), Sql(kCountSumFlat)));
    ref_count_sum_ = Sorted(agg.rows);
    MPPDB_ASSIGN_OR_RETURN(QueryResult grouped,
                           MustRun(db_.get(), GroupBySql("lineitem_flat")));
    ref_grouped_ = Sorted(grouped.rows);
    if (ref_rows_ != kScanRows) return Status::Internal("lineitem_flat row count");
    return WarmUp();
  }

  std::vector<std::pair<std::string, std::string>> Sizes() const override {
    return {{"lineitem_rows", std::to_string(kScanRows)},
            {"partitions", "361"},
            {"twin_rows", std::to_string(kScanRows)},
            {"clients", "1"}};
  }

  std::vector<std::string> KindNames() const override {
    return {"select_all", "count_sum", "group_by", "select_all_flat", "count_sum_flat"};
  }

  double PartitionOverheadRatio(const PhaseResult& untraced) const override {
    if (untraced.kind_ms.size() < kNumKinds) return 0;
    return Ratio(Median(untraced.kind_ms[kSelectAll]),
                 Median(untraced.kind_ms[kSelectAllFlat]));
  }

 protected:
  // One rotation: three statements over the 361-partition table, two over
  // its unpartitioned twin. With an odd number of equally frequent kinds
  // the median falls inside one kind's latency cluster (the 361-part
  // SELECT *, the third fastest) instead of between two.
  enum Kind : int { kSelectAll, kCountSum, kGroupBy, kSelectAllFlat, kCountSumFlat, kNumKinds };

  size_t NumKinds() const override { return kNumKinds; }

  Stmt Next(uint64_t i) override {
    Stmt st;
    st.kind = static_cast<int>(i % kNumKinds);
    st.sql = Sql(st.kind);
    return st;
  }

  std::string Check(const Stmt& st, const QueryResult& r) override {
    bool ok = true;
    switch (st.kind) {
      case kSelectAll:
      case kSelectAllFlat:
        ok = r.rows.size() == ref_rows_ && Checksum(r.rows) == ref_checksum_;
        break;
      case kCountSum:
      case kCountSumFlat:
        ok = SameMultiset(r.rows, ref_count_sum_);
        break;
      case kGroupBy:
        ok = SameMultiset(r.rows, ref_grouped_);
        break;
    }
    return ok ? "" : "scan_lineitem: result differs from the unpartitioned twin: " + st.sql;
  }

 private:
  static std::string GroupBySql(const std::string& table) {
    return "SELECT l_suppkey, count(*), sum(l_quantity) FROM " + table +
           " GROUP BY l_suppkey";
  }
  static std::string Sql(int kind) {
    switch (kind) {
      case kSelectAll:
        return "SELECT * FROM lineitem";
      case kCountSum:
        return "SELECT count(*), sum(l_extendedprice) FROM lineitem";
      case kGroupBy:
        return GroupBySql("lineitem");
      case kSelectAllFlat:
        return "SELECT * FROM lineitem_flat";
      default:
        return "SELECT count(*), sum(l_extendedprice) FROM lineitem_flat";
    }
  }

  WorkloadConfig config_;
  size_t ref_rows_ = 0;
  uint64_t ref_checksum_ = 0;
  std::vector<Row> ref_count_sum_;
  std::vector<Row> ref_grouped_;
};

// ---------------------------------------------------------------------------
// tpcds_adhoc: every statement parsed, bound and optimized fresh.
// ---------------------------------------------------------------------------

constexpr size_t kTpcdsBaseRows = 6000;

class TpcdsAdhoc : public SingleClientWorkload {
 public:
  explicit TpcdsAdhoc(const WorkloadConfig& config) : config_(config) {}

  Status Build() override {
    ResetDatabase();
    mppdb::workload::TpcdsConfig tpcds;
    tpcds.base_rows = kTpcdsBaseRows;
    tpcds.seed = config_.seed;
    const int64_t t0 = NowNs();
    MPPDB_RETURN_IF_ERROR(mppdb::workload::CreateAndLoadTpcds(db_.get(), tpcds));
    load_seconds_ = static_cast<double>(NowNs() - t0) / 1e9;
    for (const mppdb::TableDescriptor* table : db_->catalog().AllTables()) {
      MPPDB_ASSIGN_OR_RETURN(QueryResult n,
                             MustRun(db_.get(), "SELECT count(*) FROM " + table->name));
      rows_loaded_ += static_cast<size_t>(n.rows.at(0).at(0).AsInt64());
    }
    queries_ = mppdb::workload::TpcdsQueries(tpcds);
    // References with partition selection disabled: every partition is
    // scanned, so pruning cannot change what a reference contains.
    refs_.clear();
    QueryOptions no_selection;
    no_selection.enable_partition_selection = false;
    for (const auto& q : queries_) {
      MPPDB_ASSIGN_OR_RETURN(QueryResult r, MustRun(db_.get(), q.sql, no_selection));
      refs_.push_back(Sorted(std::move(r.rows)));
    }
    return WarmUp();
  }

  std::vector<std::pair<std::string, std::string>> Sizes() const override {
    return {{"base_rows", std::to_string(kTpcdsBaseRows)},
            {"queries", std::to_string(queries_.size())},
            {"rows_loaded", std::to_string(rows_loaded_)},
            {"clients", "1"},
            {"plan_cache", "off"}};
  }

  std::vector<std::string> KindNames() const override {
    std::vector<std::string> names;
    for (const auto& q : queries_) names.push_back(q.name);
    return names;
  }

 protected:
  size_t NumKinds() const override { return queries_.size(); }

  /// Each pass runs every query once, in an order drawn from the seed.
  Stmt Next(uint64_t i) override {
    const size_t n = queries_.size();
    if (i % n == 0) {
      order_.resize(n);
      for (size_t k = 0; k < n; ++k) order_[k] = k;
      Random rng(config_.seed * 1000003 + i / n + 1);
      for (size_t k = n - 1; k > 0; --k) std::swap(order_[k], order_[rng.Uniform(k + 1)]);
    }
    Stmt st;
    st.kind = static_cast<int>(order_[i % n]);
    st.sql = queries_[order_[i % n]].sql;
    return st;
  }

  std::string Check(const Stmt& st, const QueryResult& r) override {
    if (SameMultiset(r.rows, refs_[static_cast<size_t>(st.kind)])) return "";
    return "tpcds_adhoc: " + queries_[static_cast<size_t>(st.kind)].name +
           " differs from its partition-selection-off reference";
  }

 private:
  WorkloadConfig config_;
  std::vector<mppdb::workload::WorkloadQuery> queries_;
  std::vector<std::vector<Row>> refs_;
  std::vector<size_t> order_;
};

// ---------------------------------------------------------------------------
// budget_spill: operator state about four times its memory budget.
// ---------------------------------------------------------------------------

constexpr size_t kSpillRows = 10000;
// The sort reads a larger copy and runs three times per rotation of five,
// so the median and the tail both fall inside its latency cluster, well
// apart from the others. The join's and the aggregate's spills are mostly
// small-file creation (48 and 80 partition files a statement), whose cost
// drifted by up to 1.5x across consecutive runs on a 4-vCPU VM; a
// median inside their clusters spread 0.28 and 0.44 across runs, the
// compute-bound sort's tail 0.09.
constexpr size_t kSortRows = 100000;
constexpr size_t kSpillBudgetDivisor = 4;

class BudgetSpill : public SingleClientWorkload {
 public:
  explicit BudgetSpill(const WorkloadConfig& config) : config_(config) {}

  Status Build() override {
    ResetDatabase();
    mppdb::workload::TpchConfig tpch;
    tpch.rows = kSpillRows;
    tpch.seed = config_.seed;
    const int64_t t0 = NowNs();
    MPPDB_RETURN_IF_ERROR(mppdb::workload::CreateAndLoadLineitem(
        db_.get(), tpch, mppdb::workload::LineitemPartitioning::kNone, "lineitem"));
    tpch.rows = kSortRows;
    MPPDB_RETURN_IF_ERROR(mppdb::workload::CreateAndLoadLineitem(
        db_.get(), tpch, mppdb::workload::LineitemPartitioning::kNone, "lineitem_sort"));
    load_seconds_ = static_cast<double>(NowNs() - t0) / 1e9;
    rows_loaded_ = kSpillRows + kSortRows;
    std::error_code ec;
    std::filesystem::create_directories(config_.spill_dir, ec);
    if (ec) return Status::Internal("cannot create spill dir " + config_.spill_dir);

    // Unlimited-budget references; the measured runs must match them bit
    // for bit, in order.
    refs_.clear();
    for (int k = 0; k < kNumKinds; ++k) {
      QueryOptions unlimited;
      unlimited.spill_dir = config_.spill_dir;
      MPPDB_ASSIGN_OR_RETURN(QueryResult r, MustRun(db_.get(), Sql(k), unlimited));
      if (r.stats.spill_bytes_written != 0) {
        return Status::Internal("unlimited reference spilled: " + Sql(k));
      }
      refs_.push_back(std::move(r.rows));
    }
    return WarmUp();
  }

  Status FinalCheck() override {
    std::error_code ec;
    for (auto it = std::filesystem::recursive_directory_iterator(config_.spill_dir, ec);
         !ec && it != std::filesystem::recursive_directory_iterator(); ++it) {
      return Status::Internal("spill directory not empty after the run: " +
                              it->path().string());
    }
    return Status::OK();
  }

  std::vector<std::pair<std::string, std::string>> Sizes() const override {
    return {{"lineitem_rows", std::to_string(kSpillRows)},
            {"lineitem_sort_rows", std::to_string(kSortRows)},
            {"spillable_state_to_budget", std::to_string(kSpillBudgetDivisor)},
            {"budget_bytes_join", std::to_string(Budget(kJoin))},
            {"budget_bytes_agg", std::to_string(Budget(kAgg))},
            {"budget_bytes_sort", std::to_string(Budget(kSort))},
            {"clients", "1"}};
  }

  std::vector<std::string> KindNames() const override { return {"join", "agg", "sort"}; }

 protected:
  enum Kind : int { kJoin, kAgg, kSort, kNumKinds };

  size_t NumKinds() const override { return kNumKinds; }

  /// Every kind appears among the first three, so WarmUp covers them all.
  Stmt Next(uint64_t i) override {
    static constexpr Kind kRotation[] = {kJoin, kSort, kAgg, kSort, kSort};
    Stmt st;
    st.kind = kRotation[i % std::size(kRotation)];
    st.sql = Sql(st.kind);
    st.options.memory_limit_bytes = Budget(st.kind);
    st.options.spill_dir = config_.spill_dir;
    return st;
  }

  std::string Check(const Stmt& st, const QueryResult& r) override {
    if (r.rows != refs_[static_cast<size_t>(st.kind)]) {
      return "budget_spill: rows differ from the unlimited-budget run: " + st.sql;
    }
    if (r.stats.spill_bytes_written == 0) {
      return "budget_spill: statement did not spill: " + st.sql;
    }
    return "";
  }

 private:
  static std::string Sql(int kind) {
    switch (kind) {
      case kJoin:
        return "SELECT count(*), sum(b.l_quantity) FROM lineitem a JOIN lineitem b "
               "ON a.l_orderkey = b.l_orderkey";
      case kAgg:
        // Many groups in, few rows out: the Gather above the aggregate
        // carries only the HAVING survivors.
        return "SELECT l_orderkey, count(*), sum(l_extendedprice) FROM lineitem "
               "GROUP BY l_orderkey HAVING sum(l_quantity) > 170";
      default:
        return "SELECT l_orderkey, l_extendedprice FROM lineitem_sort "
               "ORDER BY l_extendedprice";
    }
  }

  /// Each statement's budget: the charges that can never spill (Motion
  /// receive buffers, the aggregate above the join, small fixed state) plus
  /// a quarter of the state that can, both in the memory accountant's own
  /// row-footprint model (common/memory_budget.h). The spillable state is
  /// the join's build table (every row, six columns), the aggregate's
  /// groups (one per order key; key, count and two sums) and the sort
  /// buffer (every row, the two projected columns). The Gather below the
  /// coordinator's sort ships whole rows, so its charge is the sort's
  /// mandatory share.
  static size_t Budget(int kind) {
    constexpr size_t kFixed = 64 * 1024;
    switch (kind) {
      case kJoin:
        return kFixed + mppdb::ApproxRowsBytes(kSpillRows, 6) / kSpillBudgetDivisor;
      case kAgg:
        return kFixed +
               (kSpillRows / 4) * mppdb::ApproxRowsBytes(1, 4) / kSpillBudgetDivisor;
      default:
        return kFixed + mppdb::ApproxRowsBytes(kSortRows, 6) +
               mppdb::ApproxRowsBytes(kSortRows, 2) / kSpillBudgetDivisor;
    }
  }

  WorkloadConfig config_;
  std::vector<std::vector<Row>> refs_;
};

// ---------------------------------------------------------------------------
// serving_mix: three clients through a SessionManager, plan cache on.
// ---------------------------------------------------------------------------

constexpr int64_t kOrdersRows = 400000;
constexpr int kOrdersParts = 64;
// Three clients keep one of four cores free for the rest of the process
// and the host: with four, every core ran a dispatcher, and the read p99
// spread 0.27 across runs under bursty load on other cores, against 0.15
// with three. Writes still queue behind readers for the state lock (write
// p50 ~9 ms against ~1 ms alone).
constexpr int kServingClients = 3;
constexpr int64_t kRangeWidth = 2000;
constexpr int64_t kMaxPrefix = 25000;

class ServingMix : public Workload {
 public:
  explicit ServingMix(const WorkloadConfig& config) : config_(config) {}
  ~ServingMix() override { Reset(); }

  Status Setup() override {
    Reset();
    db_ = std::make_unique<Database>(kSegments);
    // 64 range parts on sk; the last one is open above so fresh INSERT keys
    // (kOrdersRows and up) always have a home.
    const int64_t step = kOrdersRows / kOrdersParts;
    std::vector<mppdb::PartitionBound> bounds =
        mppdb::partition_bounds::IntRanges(0, step, kOrdersParts);
    bounds.back() = mppdb::PartitionBound::Range(
        Datum::Int64(step * (kOrdersParts - 1)),
        Datum::Int64(std::numeric_limits<int64_t>::max()),
        "r" + std::to_string(kOrdersParts - 1));
    MPPDB_RETURN_IF_ERROR(
        db_->CreatePartitionedTable(
               "orders",
               mppdb::Schema({{"sk", mppdb::TypeId::kInt64},
                              {"region", mppdb::TypeId::kInt64},
                              {"amount", mppdb::TypeId::kDouble}}),
               mppdb::TableDistribution::kHashed, {0},
               {{0, mppdb::PartitionMethod::kRange}}, {bounds})
            .status());
    Random rng(config_.seed);
    std::vector<Row> rows;
    rows.reserve(kOrdersRows);
    int64_t sum = 0;
    for (int64_t i = 0; i < kOrdersRows; ++i) {
      const int64_t amount = rng.UniformRange(1, 1000);
      sum += amount;
      rows.push_back({Datum::Int64(i), Datum::Int64(rng.UniformRange(0, 7)),
                      Datum::Double(static_cast<double>(amount))});
    }
    const int64_t t0 = NowNs();
    MPPDB_RETURN_IF_ERROR(db_->Load("orders", rows));
    load_seconds_ = static_cast<double>(NowNs() - t0) / 1e9;
    rows_loaded_ = rows.size();
    model_ = std::make_unique<WriteModel>(kOrdersRows, sum);
    next_key_.store(kOrdersRows);
    phase_ = 0;

    mppdb::SessionManagerConfig server;  // 4 dispatchers, plan cache on
    // The threads the SessionManager starts are its dispatchers.
    const std::set<pid_t> before = ProcessThreads();
    server_ = std::make_unique<mppdb::SessionManager>(db_.get(), server);
    dispatchers_.clear();
    for (pid_t tid : ProcessThreads()) {
      if (before.count(tid) == 0) dispatchers_.push_back(tid);
    }
    // Warm-up: a few of every read template through the server, filling
    // the plan cache; reads only, so the model stays at the loaded state.
    Random warm(config_.seed + 17);
    for (int i = 0; i < 12; ++i) {
      const Statement st = MakeRead(i % 3, &warm);
      Result<QueryResult> r = server_->Run(st.sql);
      if (!r.ok()) return Status::Internal("warm-up failed: " + r.status().ToString());
      const std::string bad = CheckRead(st, *r);
      if (!bad.empty()) return Status::Internal("warm-up check failed: " + bad);
    }
    return Status::OK();
  }

  PhaseResult Run(double seconds, bool traced) override {
    ++phase_;
    if (!traced) return RunClients(seconds, Path::kServer, false, phase_);
    // The traced run sends the statement stream through SessionManager::Run
    // for two thirds of the time, then replays the same stream (same client
    // seeds) straight into Database::Execute for the last third, so
    // server.dispatch_us can compare the two on identical statements. The
    // result's throughput, latencies and counters describe the served part;
    // its spans, attempts and failures cover both.
    PhaseResult served = RunClients(seconds * 2 / 3, Path::kServer, true, phase_);
    PhaseResult direct = RunClients(seconds / 3, Path::kDirect, true, phase_);
    served.spans.insert(served.spans.end(), direct.spans.begin(), direct.spans.end());
    served.errors += direct.errors;
    served.wrong += direct.wrong;
    served.attempted += direct.attempted;
    for (std::string& m : direct.messages) served.Note(std::move(m));
    return served;
  }

  Status FinalCheck() override {
    Result<QueryResult> r = server_->Run("SELECT count(*), sum(amount) FROM orders");
    if (!r.ok()) return r.status();
    const Row& row = r->rows.at(0);
    if (!model_->Matches(row.at(0).AsInt64(), row.at(1).AsDouble())) {
      return Status::Internal(
          "serving_mix: final count/sum " + row.at(0).ToString() + "/" +
          row.at(1).ToString() + " differ from the write model " +
          std::to_string(model_->rows()) + "/" + std::to_string(model_->amount_sum()));
    }
    return Status::OK();
  }

  std::vector<std::pair<std::string, std::string>> Sizes() const override {
    return {{"orders_rows", std::to_string(kOrdersRows)},
            {"partitions", std::to_string(kOrdersParts)},
            {"clients", std::to_string(kServingClients)},
            {"dispatchers", "4"},
            {"read_share", "0.95"},
            {"plan_cache", "on"}};
  }

  std::vector<std::string> KindNames() const override {
    return {"range_sum", "region_group", "point", "insert", "update"};
  }

 private:
  enum Kind : int { kRangeSum, kRegionGroup, kPoint, kInsert, kUpdate, kNumKinds };
  enum class Path { kServer, kDirect };

  struct Statement {
    int kind = 0;
    std::string sql;
    int64_t arg = 0;    ///< range width / prefix length / key
    int64_t delta = 0;  ///< INSERT amount or UPDATE delta
  };

  static Statement MakeRead(int which, Random* rng) {
    Statement st;
    switch (which) {
      case 0: {
        const int64_t lo = rng->UniformRange(0, kOrdersRows - kRangeWidth);
        st.kind = kRangeSum;
        st.arg = kRangeWidth;
        st.sql = "SELECT count(*), sum(amount) FROM orders WHERE sk >= " +
                 std::to_string(lo) + " AND sk < " + std::to_string(lo + kRangeWidth);
        break;
      }
      case 1: {
        st.kind = kRegionGroup;
        st.arg = rng->UniformRange(kMaxPrefix / 2, kMaxPrefix);
        st.sql = "SELECT region, count(*), sum(amount) FROM orders WHERE sk < " +
                 std::to_string(st.arg) + " GROUP BY region";
        break;
      }
      default: {
        st.kind = kPoint;
        st.arg = rng->UniformRange(0, kOrdersRows - 1);
        st.sql = "SELECT region, amount FROM orders WHERE sk = " + std::to_string(st.arg);
        break;
      }
    }
    return st;
  }

  /// 95% reads (45% narrow range count/sum, 25% region group-by over an sk
  /// prefix, 25% point lookup), 5% writes (half INSERTs of fresh keys, half
  /// additive single-key UPDATEs).
  Statement MakeStatement(Random* rng) {
    const uint64_t u = rng->Uniform(1000);
    if (u < 450) return MakeRead(0, rng);
    if (u < 700) return MakeRead(1, rng);
    if (u < 950) return MakeRead(2, rng);
    Statement st;
    if (u < 975) {
      st.kind = kInsert;
      st.arg = next_key_.fetch_add(1);
      st.delta = rng->UniformRange(1, 1000);
      st.sql = "INSERT INTO orders VALUES (" + std::to_string(st.arg) + ", " +
               std::to_string(rng->UniformRange(0, 7)) + ", " +
               std::to_string(st.delta) + ")";
    } else {
      st.kind = kUpdate;
      st.arg = rng->UniformRange(0, kOrdersRows - 1);
      st.delta = rng->UniformRange(-50, 50);
      st.sql = "UPDATE orders SET amount = amount + " + std::to_string(st.delta) +
               " WHERE sk = " + std::to_string(st.arg);
    }
    return st;
  }

  /// Reads touch only loaded keys (< kOrdersRows), whose rows INSERTs never
  /// add to and UPDATEs never remove, so their counts are exact under
  /// concurrent writes.
  static std::string CheckRead(const Statement& st, const QueryResult& r) {
    bool ok = false;
    switch (st.kind) {
      case kRangeSum:
        ok = r.rows.size() == 1 && r.rows[0].at(0).AsInt64() == st.arg;
        break;
      case kRegionGroup: {
        int64_t total = 0;
        for (const Row& row : r.rows) total += row.at(1).AsInt64();
        ok = total == st.arg && r.rows.size() <= 8;
        break;
      }
      case kPoint:
        ok = r.rows.size() == 1;
        break;
    }
    return ok ? "" : "serving_mix: wrong result for " + st.sql;
  }

  PhaseResult RunClients(double seconds, Path path, bool traced, uint64_t phase) {
    std::vector<PhaseResult> results(kServingClients);
    std::vector<WriteModel> writes(kServingClients, WriteModel(0, 0));
    const mppdb::PlanCache::Stats cache0 = db_->plan_cache().stats();
    const mppdb::SessionManager::Stats server0 = server_->stats();
    const double cpu0 = CpuSeconds();
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    // The dispatchers execute the statements; the clients only wait.
    CpuRotation rotation(dispatchers_, 0);
    rotation.TurnInBackground();
    std::vector<std::thread> clients;
    for (int c = 0; c < kServingClients; ++c) {
      clients.emplace_back([&, c] {
        PhaseResult& out = results[static_cast<size_t>(c)];
        out.kind_ms.resize(kNumKinds);
        SpanLog log;
        SpanLog* spans = traced ? &log : nullptr;
        std::map<int, PlanTables> tables;  // per statement kind
        Random rng(config_.seed * 7919 + phase * 131 + static_cast<uint64_t>(c));
        while (NowNs() < deadline) {
          const Statement st = MakeStatement(&rng);
          ++out.attempted;
          const int64_t t0 = NowNs();
          uint64_t root = 0;
          if (spans != nullptr) {
            spans->NewStatement();
            root = spans->Begin(kStmt, 0);
            Traced(spans, kNormalize, root, [&] { return mppdb::NormalizeSql(st.sql); });
          }
          Result<QueryResult> r =
              path == Path::kServer
                  ? Traced(spans, kServerRun, root, [&] { return server_->Run(st.sql); })
                  : Traced(spans, kExecute, root, [&] {
                      QueryOptions cached;
                      cached.use_plan_cache = true;
                      return db_->Execute(st.sql, cached);
                    });
          if (spans != nullptr) spans->End(root);
          const int64_t done = NowNs();
          const double ms = static_cast<double>(done - t0) / 1e6;
          if (!r.ok()) {
            ++out.errors;
            out.Note(st.sql.substr(0, 60) + ": " + r.status().ToString());
            continue;
          }
          ++out.completed;
          if (st.kind == kInsert || st.kind == kUpdate) {
            const int64_t n = r->rows.empty() ? 0 : r->rows[0].at(0).AsInt64();
            if (st.kind == kInsert) {
              if (n == 1) writes[static_cast<size_t>(c)].Inserted(st.delta);
            } else {
              writes[static_cast<size_t>(c)].Updated(st.delta, n);
            }
            if (n != 1) {
              ++out.wrong;
              out.Note("serving_mix: write affected " + std::to_string(n) +
                       " rows: " + st.sql);
            }
            out.write_ms.push_back(ms);
          } else {
            const std::string bad = CheckRead(st, *r);
            if (!bad.empty()) {
              ++out.wrong;
              out.Note(bad);
            }
            out.read_ms.push_back(ms);
            out.read_done_ns.push_back(done);
          }
          out.kind_ms[static_cast<size_t>(st.kind)].push_back(ms);
          auto t = tables.find(st.kind);
          if (t == tables.end()) t = tables.emplace(st.kind, TablesOf(db_->catalog(), r->plan)).first;
          AddStats(r->stats, r->rows.size(), t->second, &out.counters);
        }
        out.spans = std::move(log.spans);
      });
    }
    for (std::thread& t : clients) t.join();
    PhaseResult merged;
    merged.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    merged.cpu_s = CpuSeconds() - cpu0;
    for (size_t c = 0; c < results.size(); ++c) {
      merged.Merge(std::move(results[c]));
      model_->Merge(writes[c]);
    }
    const mppdb::PlanCache::Stats cache1 = db_->plan_cache().stats();
    merged.cache_hits = cache1.hits - cache0.hits;
    merged.cache_lookups = merged.cache_hits + (cache1.misses - cache0.misses);
    const mppdb::SessionManager::Stats server1 = server_->stats();
    merged.group_waits = server1.group_waits - server0.group_waits;
    merged.rejected = (server1.rejected_queue_full - server0.rejected_queue_full) +
                      (server1.rejected_unknown_group - server0.rejected_unknown_group);
    merged.peak_queue_depth = server1.peak_queue_depth;
    return merged;
  }

  void Reset() {
    server_.reset();  // joins the dispatchers before the database goes
    db_.reset();
  }

  WorkloadConfig config_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<mppdb::SessionManager> server_;
  std::unique_ptr<WriteModel> model_;
  std::atomic<int64_t> next_key_{0};
  /// Kernel ids of the SessionManager's dispatcher threads.
  std::vector<pid_t> dispatchers_;
  uint64_t phase_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "scan_lineitem") return std::make_unique<ScanLineitem>(config);
  if (name == "tpcds_adhoc") return std::make_unique<TpcdsAdhoc>(config);
  if (name == "serving_mix") return std::make_unique<ServingMix>(config);
  if (name == "budget_spill") return std::make_unique<BudgetSpill>(config);
  return nullptr;
}

}  // namespace perfbench
