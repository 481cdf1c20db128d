#include "exec/executor.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <limits>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "common/macros.h"
#include "exec/join_hash.h"
#include "exec/sort_keys.h"
#include "expr/constraint_derivation.h"
#include "expr/vector_eval.h"
#include "runtime/spill/row_codec.h"
#include "runtime/spill/spill_file.h"

namespace mppdb {

size_t ExecStats::PartitionsScanned(Oid table_oid) const {
  auto it = partitions_scanned.find(table_oid);
  return it == partitions_scanned.end() ? 0 : it->second.size();
}

size_t ExecStats::TotalPartitionsScanned() const {
  size_t total = 0;
  for (const auto& [table, parts] : partitions_scanned) total += parts.size();
  return total;
}

void ExecStats::MergeFrom(const ExecStats& other) {
  for (const auto& [table, parts] : other.partitions_scanned) {
    partitions_scanned[table].insert(parts.begin(), parts.end());
  }
  tuples_scanned += other.tuples_scanned;
  rows_moved += other.rows_moved;
  chunks_total += other.chunks_total;
  chunks_skipped += other.chunks_skipped;
  units_skipped += other.units_skipped;
  joinfilter_built += other.joinfilter_built;
  joinfilter_probed += other.joinfilter_probed;
  joinfilter_rows_rejected += other.joinfilter_rows_rejected;
  joinfilter_chunks_skipped += other.joinfilter_chunks_skipped;
  joinfilter_motion_rows_saved += other.joinfilter_motion_rows_saved;
  joinfilter_probes_stopped += other.joinfilter_probes_stopped;
  joinfilter_shed += other.joinfilter_shed;
  synopsis_rebuilds_shed += other.synopsis_rebuilds_shed;
  chunks_encoded_eval += other.chunks_encoded_eval;
  rows_late_materialized += other.rows_late_materialized;
  encoded_bytes_scanned += other.encoded_bytes_scanned;
  colstore_rebuilds_shed += other.colstore_rebuilds_shed;
  index_seeks += other.index_seeks;
  index_rows_read += other.index_rows_read;
  topn_rows_cut += other.topn_rows_cut;
  spill_partitions += other.spill_partitions;
  spill_bytes_written += other.spill_bytes_written;
  spill_bytes_read += other.spill_bytes_read;
  spill_passes += other.spill_passes;
  sort_runs += other.sort_runs;
}

struct Executor::MotionExchange {
  std::mutex mu;
  /// Count of segments that have deposited their source rows. Arrival is
  /// this counter, not a set of blocked threads: the last arriver builds the
  /// buffers and resumes the `waiters` below.
  int arrived = 0;
  /// Per-segment deposited flags: a resumed segment's re-walk must read its
  /// Motion's buffer instead of re-executing the Motion's child (whose
  /// results were already deposited and routed).
  std::vector<char> deposited;
  /// Segments suspended at this exchange, awaiting the build. Resumed (via
  /// ResumeSegment) by the last arriver, or by SignalAbort so they observe
  /// the abort instead of waiting forever.
  std::vector<int> waiters;
  /// Set exactly once, after the buffers/`build_status` are final.
  bool built = false;
  Status build_status;
  /// Per-source-segment child output, awaiting the exchange: a Gather's
  /// source slices as the child returned them, one owned slice otherwise.
  std::vector<InputRows> source_rows;
  /// Per-destination-segment buffers (gather/redistribute); each slot is
  /// read by exactly one segment once `built`, so reads move out of it.
  std::vector<InputRows> buffers;
  /// Broadcast motions materialize the batch here once and every
  /// destination reads it in place, instead of filling S identical buffers.
  std::vector<Row> broadcast_shared;
};

namespace {

/// Error returned by workers woken from a Motion barrier by the abort flag;
/// Execute prefers reporting the originating failure over this one, and
/// rewrites an all-secondhand outcome (abort raised by a cancel callback,
/// not by any worker) to the context's own kCancelled/kDeadlineExceeded.
Status AbortedStatus() {
  return Status::Cancelled("execution aborted: a peer segment failed");
}

bool IsAbortedStatus(const Status& status) {
  return status.code() == StatusCode::kCancelled &&
         status.message().rfind("execution aborted:", 0) == 0;
}

}  // namespace

// The suspension sentinel: a segment task that reaches a Motion whose peers
// have not all arrived unwinds its stack by returning this through the
// ordinary error plumbing (every operator already propagates non-OK
// statuses). It never escapes RunSegmentTask, which registers the segment as
// a waiter on the exchange once the stack has unwound.
Status SuspendedStatus() {
  return Status::Internal("suspended at motion rendezvous");
}

bool IsSuspendedStatus(const Status& status) {
  return status.code() == StatusCode::kInternal &&
         status.message() == "suspended at motion rendezvous";
}

/// Completion state of one run. Lives on RunSegments' frame; segment tasks
/// record their verdicts here, and the Execute thread runs ready tasks (when
/// there is no scheduler) or sleeps until every segment has a verdict. This
/// is the only blocking wait.
struct Executor::ParallelRun {
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::vector<Result<std::vector<Row>>> seg_results;
  /// Segments whose next task is runnable, drained by the Execute thread.
  /// Used only when no scheduler exists.
  std::deque<int> ready;
};

Executor::Executor(const Catalog* catalog, StorageEngine* storage)
    : Executor(catalog, storage, Options()) {}

Executor::Executor(const Catalog* catalog, StorageEngine* storage, Options options)
    : catalog_(catalog),
      storage_(storage),
      num_segments_(storage->num_segments()),
      options_(options),
      hub_(storage->num_segments()) {}

Executor::~Executor() = default;

Status Executor::CollectMotions(const PhysPtr& node) {
  if (node->kind() == PhysNodeKind::kMotion) {
    auto exchange = std::make_unique<MotionExchange>();
    exchange->source_rows.resize(static_cast<size_t>(num_segments_));
    exchange->deposited.assign(static_cast<size_t>(num_segments_), 0);
    if (!exchanges_.emplace(node.get(), std::move(exchange)).second) {
      return Status::InvalidArgument("plan shares Motion node '" + node->Describe() +
                                     "' between parents; every Motion must "
                                     "appear once");
    }
  }
  for (const auto& child : node->children()) {
    MPPDB_RETURN_IF_ERROR(CollectMotions(child));
  }
  return Status::OK();
}

void Executor::SignalAbort() {
  abort_flag_.store(true, std::memory_order_release);
  // Resume every continuation suspended at any exchange. The flag is set
  // before the drain, and a suspending segment re-checks it under the
  // exchange lock before registering, so no waiter can slip in after the
  // drain and strand: it either lands in this swap or observes the flag and
  // fails on its own. Each resumed walk re-checks at its Motion and records
  // the abort verdict.
  std::vector<int> waiters;
  for (auto& [node, exchange] : exchanges_) {
    std::lock_guard<std::mutex> lock(exchange->mu);
    waiters.insert(waiters.end(), exchange->waiters.begin(), exchange->waiters.end());
    exchange->waiters.clear();
  }
  for (int waiter : waiters) ResumeSegment(waiter);
}

Status Executor::CheckExec(int segment, const char* point) {
  MPPDB_RETURN_IF_ERROR(ctx_->CheckAlive());
  if (abort_flag_.load(std::memory_order_acquire)) return AbortedStatus();
  FaultInjector* injector = ctx_->fault_injector();
  if (point != nullptr && injector != nullptr) {
    return injector->Hit(point, segment, ctx_);
  }
  return Status::OK();
}

Status Executor::ChargeBudget(int segment, size_t bytes, const char* what) {
  FaultInjector* injector = ctx_->fault_injector();
  if (injector != nullptr) {
    MPPDB_RETURN_IF_ERROR(injector->Hit("alloc.budget", segment, ctx_));
  }
  if (ctx_->budget().TryCharge(bytes)) return Status::OK();
  return Status::ResourceExhausted(
      std::string("query memory budget exhausted charging ") + what + " (" +
      std::to_string(bytes) + " bytes, " + ctx_->budget().DebugString() + ")");
}

bool Executor::TryChargeOptional(size_t bytes) {
  return ctx_->budget().TryCharge(bytes);
}

Result<bool> Executor::TryChargeSpill(int segment, size_t bytes) {
  // Same fault point as ChargeBudget: an armed alloc.budget fault fires
  // whether or not the query would have spilled.
  FaultInjector* injector = ctx_->fault_injector();
  if (injector != nullptr) {
    MPPDB_RETURN_IF_ERROR(injector->Hit("alloc.budget", segment, ctx_));
  }
  return ctx_->budget().TryCharge(bytes);
}

Result<bool> Executor::ChargeOrSpill(int segment, size_t bytes, const char* what) {
  if (options_.spill) return TryChargeSpill(segment, bytes);
  MPPDB_RETURN_IF_ERROR(ChargeBudget(segment, bytes, what));
  return true;
}

Result<SpillFileManager*> Executor::EnsureSpillManager() {
  std::lock_guard<std::mutex> lock(spill_mu_);
  if (spill_files_ == nullptr) {
    spill_files_ = std::make_unique<SpillFileManager>(ctx_->spill_dir());
  }
  return spill_files_.get();
}

const SliceSynopsis* Executor::AcquireSynopsis(const TableStore& store,
                                               Oid unit_oid, int segment) {
  if (ctx_->budget().limited() && !store.SynopsisFresh(unit_oid, segment)) {
    // Stale synopsis: UnitSynopsis would rebuild it from the rows. Charge a
    // per-chunk-per-column scratch estimate; under pressure the rebuild is
    // shed (zone maps are advisory) rather than failing the query.
    const std::vector<Row>& rows = store.UnitRows(unit_oid, segment);
    const size_t width = rows.empty() ? 0 : rows[0].size();
    const size_t chunks =
        (rows.size() + TableStore::kChunkRows - 1) / TableStore::kChunkRows;
    if (!TryChargeOptional((chunks + 1) * width * 64)) {
      ++seg_stats_[static_cast<size_t>(segment)].synopsis_rebuilds_shed;
      return nullptr;
    }
  }
  return &store.UnitSynopsis(unit_oid, segment);
}

const SliceColumns* Executor::AcquireColumns(const TableStore& store,
                                             Oid unit_oid, int segment) {
  if (store.UnitOrientation(unit_oid) != StorageOrientation::kColumn) {
    return nullptr;
  }
  if (ctx_->budget().limited() && !store.ColumnsFresh(unit_oid, segment)) {
    // Stale image: UnitColumns would re-encode the slice. Charge roughly one
    // plain copy of the rows (encode scratch peaks near that); under
    // pressure the encode is shed — the encoded image is a fast path, the
    // row image stays authoritative.
    const std::vector<Row>& rows = store.UnitRows(unit_oid, segment);
    const size_t width = rows.empty() ? 0 : rows[0].size();
    if (!TryChargeOptional(ApproxRowsBytes(rows.size(), width))) {
      ++seg_stats_[static_cast<size_t>(segment)].colstore_rebuilds_shed;
      return nullptr;
    }
  }
  return store.UnitColumns(unit_oid, segment);
}

Result<std::vector<Row>> Executor::Execute(const PhysPtr& plan) {
  return Execute(plan, nullptr);
}

Result<std::vector<Row>> Executor::Execute(const PhysPtr& plan,
                                           QueryContext* ctx) {
  // A shared never-cancelled, unlimited default keeps the hot-path checks
  // unconditional (ctx_ is never null) without charging callers that want no
  // context. Intentionally leaked: execution may outlive static teardown
  // order in exotic embeddings.
  static QueryContext* const default_ctx = new QueryContext();
  ctx_ = ctx != nullptr ? ctx : default_ctx;
  ctx_->budget().ResetUsage();
  hub_.Reset();
  stats_ = ExecStats();
  seg_stats_.assign(static_cast<size_t>(num_segments_), ExecStats());
  abort_flag_.store(false);
  Status collected = CollectMotions(plan);
  seg_run_ = std::vector<SegmentRunState>(static_cast<size_t>(num_segments_));
  // Cancel() resumes every suspended segment through the abort flag, so they
  // notice within one resume instead of one batch. Registered on the
  // caller's context only — nobody can cancel the default.
  uint64_t cancel_cb = 0;
  if (ctx != nullptr) {
    cancel_cb = ctx->AddCancelCallback([this] { SignalAbort(); });
  }
  Result<std::vector<Row>> result =
      collected.ok() ? RunSegments(plan) : Result<std::vector<Row>>(collected);
  // Blocks until an in-flight callback has finished, so exchanges_ may be
  // cleared below.
  if (ctx != nullptr) ctx->RemoveCancelCallback(cancel_cb);
  // An all-secondhand abort (every path woke via the flag, e.g. Cancel()
  // raised it) is reported as the context's own verdict.
  if (!result.ok() && IsAbortedStatus(result.status())) {
    Status alive = ctx_->CheckAlive();
    if (!alive.ok()) result = alive;
  }
  // Leave the executor clean and reusable whatever the outcome: per-run
  // scratch is dropped here (the idempotent teardown the query-level retry
  // loop relies on — hub channels, exchange buffers, and published join
  // filters never leak into the next attempt), and stats_ carries the run's
  // counters only if it succeeded.
  hub_.Reset();
  exchanges_.clear();
  seg_run_.clear();
  // Destroying the spill manager removes the per-query spill directory and
  // every file in it — the single reclamation point covering success,
  // cancellation, deadline expiry, injected faults, and the teardown between
  // retry attempts (a retry re-enters here and spills afresh).
  spill_files_.reset();
  if (result.ok()) {
    for (const ExecStats& seg : seg_stats_) stats_.MergeFrom(seg);
  }
  seg_stats_.clear();
  return result;
}

void Executor::SetScheduler(MorselScheduler* scheduler) {
  scheduler_ = scheduler;
}

int Executor::ResolveWorkerCount(int workers) {
  if (workers > 0) return workers;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

void Executor::EnsureScheduler() {
  if (scheduler_ != nullptr || options_.workers == 1) return;
  if (owned_scheduler_ == nullptr) {
    const int workers = ResolveWorkerCount(options_.workers);
    if (workers == 1) return;
    owned_scheduler_ = std::make_unique<MorselScheduler>(workers);
  }
  scheduler_ = owned_scheduler_.get();
}

void Executor::ResumeSegment(int segment) {
  if (scheduler_ != nullptr) {
    scheduler_->Submit([this, segment]() { RunSegmentTask(segment); });
    return;
  }
  std::lock_guard<std::mutex> lock(run_->mu);
  run_->ready.push_back(segment);
  run_->cv.notify_all();
}

Result<std::vector<Row>> Executor::RunSegments(const PhysPtr& plan) {
  EnsureScheduler();
  ParallelRun run;
  run.seg_results.assign(
      static_cast<size_t>(num_segments_),
      Result<std::vector<Row>>(Status::Internal("segment slice did not run")));
  run_ = &run;
  current_plan_ = &plan;
  for (int segment = 0; segment < num_segments_; ++segment) ResumeSegment(segment);
  {
    std::unique_lock<std::mutex> lock(run.mu);
    // Deadline enforcement for segments suspended at a Motion whose peers
    // never arrive (stalled, or sleeping in an injected delay on a pool
    // worker): raise the abort, which resumes every suspended continuation;
    // each then fails its liveness check — CheckAlive itself reports
    // kDeadlineExceeded past the deadline — and records a typed verdict, so
    // the wait always terminates.
    bool deadline_armed = ctx_->has_deadline();
    auto runnable = [this, &run]() {
      return run.done == num_segments_ || !run.ready.empty();
    };
    while (run.done < num_segments_) {
      if (!run.ready.empty()) {
        // No scheduler: this thread runs the ready task itself. Another
        // thread may only push (SignalAbort from a cancel callback).
        const int segment = run.ready.front();
        run.ready.pop_front();
        lock.unlock();
        RunSegmentTask(segment);
        lock.lock();
      } else if (deadline_armed) {
        if (!run.cv.wait_until(lock, ctx_->deadline(), runnable)) {
          deadline_armed = false;
          lock.unlock();
          SignalAbort();
          lock.lock();
        }
      } else {
        run.cv.wait(lock, runnable);
      }
    }
  }
  run_ = nullptr;
  current_plan_ = nullptr;

  // Report the originating failure, not a barrier's secondhand abort.
  for (const auto& seg_result : run.seg_results) {
    if (!seg_result.ok() && !IsAbortedStatus(seg_result.status())) {
      return seg_result.status();
    }
  }
  size_t total_rows = 0;
  size_t segments_with_rows = 0;
  for (const auto& seg_result : run.seg_results) {
    if (!seg_result.ok()) return seg_result.status();
    total_rows += seg_result.value().size();
    if (!seg_result.value().empty()) ++segments_with_rows;
  }
  if (segments_with_rows <= 1) {
    // A Gather root: one segment holds the whole result, handed over as is.
    for (auto& seg_result : run.seg_results) {
      if (!seg_result.value().empty()) return std::move(seg_result).value();
    }
    return std::vector<Row>{};
  }
  std::vector<Row> result;
  result.reserve(total_rows);
  for (auto& seg_result : run.seg_results) {
    std::vector<Row> rows = std::move(seg_result).value();
    result.insert(result.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
  }
  return result;
}

void Executor::RunSegmentTask(int segment) {
  // A segment's tasks form a chain — initial task, then one continuation per
  // Motion suspension — with a happens-before edge through the exchange (or
  // scheduler) mutex at every hop, so re-binding the hub owner here keeps
  // the single-owner contract even though hops may land on different
  // workers.
  hub_.BindOwner(segment);
  // Task-body liveness gate: a query cancelled (or aborted by a peer) while
  // this task sat queued never starts executing.
  Status alive = CheckExec(segment, nullptr);
  Result<std::vector<Row>> rows = alive.ok()
                                      ? ExecOwned(*current_plan_, segment)
                                      : Result<std::vector<Row>>(alive);
  if (!rows.ok() && IsSuspendedStatus(rows.status())) {
    // The walk has unwound, so every memo entry its re-walk needs is written:
    // only now may the continuation become runnable. Registering at the
    // Motion instead would let the last arriver resume this segment on
    // another worker while this one still writes the memo.
    SegmentRunState& memo = seg_run_[static_cast<size_t>(segment)];
    MotionExchange* exchange = std::exchange(memo.suspended_at, nullptr);
    MPPDB_CHECK(exchange != nullptr);
    bool resume_now = false;
    {
      std::lock_guard<std::mutex> lock(exchange->mu);
      // The abort check under the exchange lock pairs with SignalAbort's
      // drain: registering after the drain implies the flag is visible
      // here, so no waiter can strand.
      if (abort_flag_.load(std::memory_order_acquire)) {
        rows = AbortedStatus();
      } else if (exchange->built) {
        resume_now = true;  // the last peer arrived while this walk unwound
      } else {
        exchange->waiters.push_back(segment);
        return;  // continuation registered; no verdict yet
      }
    }
    if (resume_now) {
      ResumeSegment(segment);
      return;
    }
  }
  if (!rows.ok()) SignalAbort();
  ParallelRun* run = run_;
  // Notify under the lock: once done hits S the Execute thread may wake and
  // destroy `run`, so the cv must not be touched after the unlock.
  std::lock_guard<std::mutex> lock(run->mu);
  run->seg_results[static_cast<size_t>(segment)] = std::move(rows);
  if (++run->done == num_segments_) run->cv.notify_all();
}

namespace {

/// An operator's owned output as a one-slice input.
Result<InputRows> Owned(Result<std::vector<Row>> rows) {
  if (!rows.ok()) return rows.status();
  return InputRows(std::move(rows).value());
}

/// Each sort key's position in `layout` and its direction, for Sort and TopN.
Status ResolveSortKeys(const std::vector<SortKey>& keys, const ColumnLayout& layout,
                       std::vector<int>* positions, std::vector<bool>* ascending) {
  for (const SortKey& key : keys) {
    const int pos = layout.PositionOf(key.column);
    if (pos < 0) {
      return Status::ExecutionError("sort column #" + std::to_string(key.column) +
                                    " not in child layout");
    }
    positions->push_back(pos);
    ascending->push_back(key.ascending);
  }
  return Status::OK();
}

}  // namespace

Result<InputRows> Executor::ExecNode(const PhysPtr& node, int segment) {
  // Suspension memo: a re-walk after a Motion suspension must not repeat
  // subtrees that already completed. Entries are consumed on use and
  // re-created on the next unwind, so the memo is empty whenever the segment
  // is not between an unwind and its re-walk — which also keeps legitimately
  // shared non-Motion subtrees correct (their repeat visits find no entry).
  SegmentRunState& memo = seg_run_[static_cast<size_t>(segment)];
  if (!memo.done.empty() && memo.done.erase(node.get()) > 0) {
    return InputRows();
  }
  if (!memo.cache.empty()) {
    auto cached = memo.cache.find(node.get());
    if (cached != memo.cache.end()) {
      InputRows input = std::move(cached->second);
      memo.cache.erase(cached);
      return input;
    }
  }
  // Per-operator liveness check; the hot loops below add per-batch checks.
  MPPDB_RETURN_IF_ERROR(CheckExec(segment, nullptr));
  switch (node->kind()) {
    case PhysNodeKind::kTableScan:
    case PhysNodeKind::kCheckedPartScan:
    case PhysNodeKind::kDynamicScan:
      return ExecScan(*node, segment);
    case PhysNodeKind::kDynamicIndexScan:
      return Owned(ExecDynamicIndexScan(static_cast<const DynamicIndexScanNode&>(*node),
                                        segment));
    case PhysNodeKind::kPartitionSelector:
      return ExecPartitionSelector(static_cast<const PartitionSelectorNode&>(*node),
                                   segment);
    case PhysNodeKind::kSequence: {
      const auto& children = node->children();
      InputRows last;
      for (size_t i = 0; i < children.size(); ++i) {
        Result<InputRows> input = ExecNode(children[i], segment);
        if (!input.ok()) {
          if (IsSuspendedStatus(input.status())) {
            // Earlier children completed and their outputs were discarded
            // (only the last child's output survives a Sequence); mark them
            // done so the re-walk skips their side-effecting subtrees.
            for (size_t j = 0; j < i; ++j) memo.done.insert(children[j].get());
          }
          return input.status();
        }
        last = std::move(input).value();
      }
      return last;
    }
    case PhysNodeKind::kAppend: {
      const auto& children = node->children();
      std::vector<InputRows> parts(children.size());
      for (size_t i = 0; i < children.size(); ++i) {
        Result<InputRows> input = ExecNode(children[i], segment);
        if (!input.ok()) {
          if (IsSuspendedStatus(input.status())) {
            // Park completed children, as they are, for the re-walk.
            for (size_t j = 0; j < i; ++j) {
              memo.cache[children[j].get()] = std::move(parts[j]);
            }
          }
          return input.status();
        }
        parts[i] = std::move(input).value();
      }
      InputRows out;
      for (InputRows& part : parts) out.Append(std::move(part));
      return out;
    }
    case PhysNodeKind::kFilter:
      return ExecFilter(static_cast<const FilterNode&>(*node), segment);
    case PhysNodeKind::kProject:
      return Owned(ExecProject(static_cast<const ProjectNode&>(*node), segment));
    case PhysNodeKind::kHashJoin:
      return Owned(ExecHashJoin(static_cast<const HashJoinNode&>(*node), segment));
    case PhysNodeKind::kNestedLoopJoin:
      return Owned(
          ExecNestedLoopJoin(static_cast<const NestedLoopJoinNode&>(*node), segment));
    case PhysNodeKind::kIndexNLJoin:
      return Owned(ExecIndexNLJoin(static_cast<const IndexNLJoinNode&>(*node), segment));
    case PhysNodeKind::kHashAgg:
      return Owned(ExecHashAgg(static_cast<const HashAggNode&>(*node), segment));
    case PhysNodeKind::kSort:
      return Owned(ExecSort(static_cast<const SortNode&>(*node), segment));
    case PhysNodeKind::kLimit: {
      // Reads its input in place and takes only the rows it keeps.
      const auto& limit = static_cast<const LimitNode&>(*node);
      MPPDB_ASSIGN_OR_RETURN(InputRows input, ExecNode(limit.child(0), segment));
      std::vector<Row> rows;
      input.MoveRange(0, std::min<size_t>(input.size(), limit.limit()), &rows);
      return InputRows(std::move(rows));
    }
    case PhysNodeKind::kTopN:
      return Owned(ExecTopN(static_cast<const TopNNode&>(*node), segment));
    case PhysNodeKind::kMotion:
      return ExecMotion(static_cast<const MotionNode&>(*node), segment);
    case PhysNodeKind::kValues: {
      const auto& values = static_cast<const ValuesNode&>(*node);
      if (segment != 0) return InputRows();
      return InputRows(values.rows());
    }
    case PhysNodeKind::kInsert:
      return Owned(ExecInsert(static_cast<const InsertNode&>(*node), segment));
    case PhysNodeKind::kUpdate:
      return Owned(ExecUpdate(static_cast<const UpdateNode&>(*node), segment));
    case PhysNodeKind::kDelete:
      return Owned(ExecDelete(static_cast<const DeleteNode&>(*node), segment));
  }
  return Status::Internal("unreachable physical node kind");
}

Result<std::vector<Row>> Executor::ExecOwned(const PhysPtr& node, int segment) {
  MPPDB_ASSIGN_OR_RETURN(InputRows input, ExecNode(node, segment));
  if (input.IsOneOwnedSlice()) return std::move(input).Take();
  // Slices read in place (a gathered scan, a broadcast batch) are copied
  // here, the one copy they get. On a pool the morsels copy in parallel, at
  // least one per worker, so that with whole-slice morsels (morsel_rows =
  // SIZE_MAX) a gathered input is still not copied by one thread alone.
  const size_t n = input.size();
  size_t morsel_rows = MorselRows();
  if (scheduler_ != nullptr) {
    const size_t workers = static_cast<size_t>(scheduler_->num_workers());
    const size_t chunk = TableStore::kChunkRows;
    const size_t per_worker = ((n + workers - 1) / workers + chunk - 1) / chunk * chunk;
    morsel_rows = std::min(morsel_rows, std::max(per_worker, chunk));
  }
  std::vector<Row> rows;
  rows.reserve(n);
  auto body = [&input](size_t begin, size_t end, ExecStats*,
                       std::vector<Row>* out) -> Status {
    input.MoveRange(begin, end, out);
    return Status::OK();
  };
  MPPDB_RETURN_IF_ERROR(RunMorselScan(segment, n, body, &rows, morsel_rows));
  return rows;
}

size_t Executor::MorselRows() const {
  const size_t rows =
      options_.morsel_rows == 0 ? 4 * TableStore::kChunkRows : options_.morsel_rows;
  // Chunk-aligned so zone-map chunk skipping never straddles a morsel. The
  // round-up cannot wrap, and saturates: a value too large to round up
  // means one morsel per slice.
  constexpr size_t kMaxChunks =
      std::numeric_limits<size_t>::max() / TableStore::kChunkRows;
  const size_t chunks = std::min(kMaxChunks, (rows - 1) / TableStore::kChunkRows + 1);
  return chunks * TableStore::kChunkRows;
}

template <typename T>
Status Executor::RunMorselScan(int segment, size_t row_count,
                               const std::type_identity_t<MorselBody<T>>& body,
                               std::vector<T>* out, size_t morsel_rows) {
  if (morsel_rows == 0) morsel_rows = MorselRows();
  if (scheduler_ == nullptr || scheduler_->num_workers() <= 1 ||
      row_count <= morsel_rows) {
    // Ineligible: run the body whole, against the segment accumulator — the
    // exact loop a 1-worker run executes.
    return body(0, row_count, &seg_stats_[static_cast<size_t>(segment)], out);
  }
  // Determinism by construction: every morsel gets a pre-assigned slot, and
  // rows/stats/errors are combined in range order no matter which worker ran
  // which morsel when.
  const size_t num_morsels = (row_count + morsel_rows - 1) / morsel_rows;
  std::vector<std::vector<T>> slot_rows(num_morsels);
  std::vector<ExecStats> slot_stats(num_morsels);
  std::vector<Status> slot_status(num_morsels, Status::OK());
  MorselScheduler::TaskGroup group(scheduler_);
  for (size_t m = 0; m < num_morsels; ++m) {
    const size_t begin = m * morsel_rows;
    const size_t end = std::min(row_count, begin + morsel_rows);
    group.Spawn([&body, &slot_rows, &slot_stats, &slot_status, m, begin, end]() {
      slot_status[m] = body(begin, end, &slot_stats[m], &slot_rows[m]);
    });
  }
  group.Wait();
  // Lowest failing range wins: the error the inline loop would hit first.
  for (const Status& status : slot_status) {
    MPPDB_RETURN_IF_ERROR(status);
  }
  ExecStats& stats = seg_stats_[static_cast<size_t>(segment)];
  for (size_t m = 0; m < num_morsels; ++m) {
    stats.MergeFrom(slot_stats[m]);
    out->insert(out->end(), std::make_move_iterator(slot_rows[m].begin()),
                std::make_move_iterator(slot_rows[m].end()));
  }
  return Status::OK();
}

// Morsels yield rows (copies, rowid scans, index scans) or the ids of the
// rows a fused filtered scan keeps.
template Status Executor::RunMorselScan<Row>(int, size_t,
                                             const MorselBody<Row>&,
                                             std::vector<Row>*, size_t);
template Status Executor::RunMorselScan<uint32_t>(int, size_t,
                                                  const MorselBody<uint32_t>&,
                                                  std::vector<uint32_t>*, size_t);

Result<std::vector<Executor::BoundJoinFilter>> Executor::BindJoinFilterProbes(
    const PhysicalNode& node, const ColumnLayout& layout, int segment) {
  std::vector<BoundJoinFilter> bound;
  if (!options_.join_filters || node.join_filters().probes.empty()) return bound;
  for (const JoinFilterProbe& probe : node.join_filters().probes) {
    const JoinFilterSummary* summary =
        probe.global ? hub_.FindGlobalJoinFilter(probe.filter_id)
                     : hub_.FindJoinFilter(segment, probe.filter_id);
    // The filter is advisory: an unpublished summary (publisher disabled or
    // never reached) just means no early rejection on this path.
    if (summary == nullptr) continue;
    MPPDB_ASSIGN_OR_RETURN(std::vector<int> positions,
                           ResolvePositions(layout, probe.key_columns));
    bound.push_back(BoundJoinFilter{summary, std::move(positions), probe.below_motion});
  }
  return bound;
}

Status Executor::PublishLocalJoinFilters(const PhysicalNode& node,
                                         const ColumnLayout& build_layout,
                                         const InputRows& build,
                                         int segment) {
  if (!options_.join_filters) return Status::OK();
  for (const JoinFilterSpec& spec : node.join_filters().publishes) {
    MPPDB_RETURN_IF_ERROR(CheckExec(segment, "joinfilter.publish"));
    MPPDB_ASSIGN_OR_RETURN(std::vector<int> positions,
                           ResolvePositions(build_layout, spec.key_columns));
    // Summaries are advisory: under budget pressure the publish is shed
    // (consumers tolerate a missing summary) instead of failing the query.
    const size_t build_count = build.size();
    const size_t summary_bytes = 64 + positions.size() * 48 + build_count;
    if (!TryChargeOptional(summary_bytes)) {
      ++seg_stats_[static_cast<size_t>(segment)].joinfilter_shed;
      continue;
    }
    JoinFilterSummaryBuilder builder(positions.size(), build_count);
    for (size_t s = 0; s < build.num_slices(); ++s) {
      const InputRows::SliceView rows = build.slice(s);
      for (size_t i = 0; i < rows.size(); ++i) builder.Add(rows[i], positions);
    }
    hub_.PublishJoinFilter(segment, spec.filter_id, builder.Finish());
    ++seg_stats_[static_cast<size_t>(segment)].joinfilter_built;
  }
  return Status::OK();
}

Result<InputRows> Executor::ExecScan(const PhysicalNode& node, int segment) {
  bool emit_rowids = false;
  if (node.kind() == PhysNodeKind::kTableScan) {
    emit_rowids = !static_cast<const TableScanNode&>(node).rowid_ids().empty();
  } else if (node.kind() == PhysNodeKind::kDynamicScan) {
    emit_rowids = !static_cast<const DynamicScanNode&>(node).rowid_ids().empty();
  }
  ScanFragment frag;
  frag.scans.push_back(&node);
  // The output layout is built only for a leaf that has probes to bind.
  if (!node.join_filters().probes.empty()) {
    const ColumnLayout layout = node.OutputLayout();
    MPPDB_ASSIGN_OR_RETURN(std::vector<BoundJoinFilter> join_filters,
                           BindJoinFilterProbes(node, layout, segment));
    if (!join_filters.empty()) {
      // Placement never annotates rowid-emitting scans (those exist for DML
      // plans, which get no placement pass at all).
      MPPDB_CHECK(!emit_rowids);
      return ExecFusedFilterScan(nullptr, frag, layout, join_filters, segment);
    }
  }
  InputRows input;
  std::vector<Row> out;
  MPPDB_RETURN_IF_ERROR(ForEachScanUnit(
      frag, segment,
      [&](const TableStore&, Oid unit_oid, const std::vector<Row>& rows) -> Status {
        if (!emit_rowids) {
          for (size_t base = 0; base < rows.size(); base += TableStore::kChunkRows) {
            MPPDB_RETURN_IF_ERROR(CheckExec(segment, "storage.scan_chunk"));
          }
          input.AddRef(rows);
          return Status::OK();
        }
        // A rowid leaf (DML plans) extends a copy of every row with its rowid
        // columns.
        auto body = [this, segment, unit_oid, &rows](size_t begin, size_t end,
                                                     ExecStats*,
                                                     std::vector<Row>* mout) -> Status {
          for (size_t i = begin; i < end; ++i) {
            if (i % TableStore::kChunkRows == 0) {
              MPPDB_RETURN_IF_ERROR(CheckExec(segment, "storage.scan_chunk"));
            }
            Row row = rows[i];
            row.push_back(Datum::Int64(unit_oid));
            row.push_back(Datum::Int64(segment));
            row.push_back(Datum::Int64(static_cast<int64_t>(i)));
            mout->push_back(std::move(row));
          }
          return Status::OK();
        };
        return RunMorselScan(segment, rows.size(), body, &out);
      }));
  if (emit_rowids) return InputRows(std::move(out));
  return input;
}

Result<std::vector<Row>> Executor::ExecDynamicIndexScan(
    const DynamicIndexScanNode& node, int segment) {
  // ForEachScanUnit gates and counts the units; the seeks run afterwards.
  // first_row[u] is the position of unit u's first stored row in the
  // admitted units' rows laid end to end.
  std::vector<Oid> units;
  std::vector<size_t> first_row;
  size_t total_rows = 0;
  ScanFragment frag;
  frag.scans.push_back(&node);
  MPPDB_RETURN_IF_ERROR(ForEachScanUnit(
      frag, segment,
      [&](const TableStore&, Oid unit_oid, const std::vector<Row>& rows) {
        units.push_back(unit_oid);
        first_row.push_back(total_rows);
        total_rows += rows.size();
        return Status::OK();
      }));
  TableStore* store = storage_->GetStore(node.table_oid());  // checked above
  const TableDescriptor& table = store->descriptor();
  if (!table.HasIndexOn(node.index_column())) {
    return Status::ExecutionError("DynamicIndexScan without an index on column " +
                                  std::to_string(node.index_column()) + " of " +
                                  table.name);
  }
  if (!store->HasIndex(node.index_column())) {
    MPPDB_RETURN_IF_ERROR(store->CreateIndex(node.index_column()));
  }

  ColumnLayout layout = node.OutputLayout();
  MPPDB_ASSIGN_OR_RETURN(std::vector<BoundJoinFilter> join_filters,
                         BindJoinFilterProbes(node, layout, segment));
  // Residual kernel compiled once per operator; each morsel body owns its
  // evaluation scratch (KernelContext is not thread-safe).
  std::optional<KernelProgram> residual_kernel;
  if (node.residual() != nullptr) {
    residual_kernel = KernelProgram::Compile(node.residual(), layout);
  }

  // Unit-granular morsels: the admitted units' stored rows split into row
  // ranges like a scan's, and a range seeks the units whose first row falls
  // inside it (the last range also takes trailing empty units). Range-order
  // output slots and stats merging keep the result bit-identical to an
  // inline loop.
  auto body = [&, this](size_t begin, size_t end, ExecStats* stats,
                        std::vector<Row>* mout) -> Status {
    KernelContext kctx;
    if (residual_kernel) kctx.Prepare(*residual_kernel, KernelContext::kDefaultChunkRows);
    FilterScratch scratch;
    SelVec keep;
    auto first_unit_at = [&first_row](size_t row) {
      return static_cast<size_t>(
          std::lower_bound(first_row.begin(), first_row.end(), row) - first_row.begin());
    };
    const size_t unit_end = end == total_rows ? units.size() : first_unit_at(end);
    for (size_t u = first_unit_at(begin); u < unit_end; ++u) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "storage.scan_chunk"));
      const Oid unit = units[u];
      ++stats->index_seeks;
      std::vector<size_t> positions;
      switch (node.mode()) {
        case IndexScanMode::kRangeSeek:
          positions = store->IndexRangeSeek(unit, segment, node.index_column(),
                                            node.lo(), node.hi());
          break;
        case IndexScanMode::kOrderedWalk:
          positions = store->IndexOrderedWalk(unit, segment, node.index_column(),
                                              node.ascending(), node.per_unit_limit());
          break;
        case IndexScanMode::kMinMax: {
          std::optional<size_t> pos =
              store->IndexMinMax(unit, segment, node.index_column(), node.ascending());
          if (pos.has_value()) positions.push_back(*pos);
          break;
        }
      }
      stats->index_rows_read += positions.size();
      std::vector<Row> candidates;
      candidates.reserve(positions.size());
      const std::vector<Row>& rows = store->UnitRows(unit, segment);
      for (size_t pos : positions) candidates.push_back(rows[pos]);
      // Evaluating the whole original predicate (not just the non-sargable
      // remainder), then the join filters over its survivors, keeps rows and
      // error behavior identical to Filter over the scan.
      for (size_t base = 0; base < candidates.size();
           base += KernelContext::kDefaultChunkRows) {
        if (residual_kernel) MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
        const size_t chunk_end =
            std::min(candidates.size(), base + KernelContext::kDefaultChunkRows);
        MPPDB_RETURN_IF_ERROR(FilterBatch(residual_kernel ? &*residual_kernel : nullptr,
                                          &kctx, candidates, base, chunk_end,
                                          join_filters, stats, &scratch, &keep));
        for (uint32_t i : keep) mout->push_back(std::move(candidates[i]));
      }
    }
    return Status::OK();
  };
  std::vector<Row> out;
  MPPDB_RETURN_IF_ERROR(RunMorselScan(segment, total_rows, body, &out));
  return out;
}

Result<InputRows> Executor::ExecPartitionSelector(const PartitionSelectorNode& node,
                                                  int segment) {
  const TableDescriptor* table = catalog_->FindTable(node.table_oid());
  if (table == nullptr || !table->IsPartitioned()) {
    return Status::ExecutionError("PartitionSelector on non-partitioned table oid " +
                                  std::to_string(node.table_oid()));
  }
  const PartitionScheme& scheme = *table->partition_scheme;
  const size_t num_levels = scheme.num_levels();
  MPPDB_CHECK(node.level_keys().size() == num_levels);
  MPPDB_CHECK(node.level_predicates().size() == num_levels);

  hub_.OpenChannel(segment, node.scan_id());
  MPPDB_RETURN_IF_ERROR(CheckExec(segment, "hub.push"));

  auto select_with = [&](const std::vector<ExprPtr>& preds) {
    std::vector<ConstraintSet> constraints;
    constraints.reserve(num_levels);
    for (size_t level = 0; level < num_levels; ++level) {
      if (preds[level] == nullptr) {
        constraints.push_back(ConstraintSet::All());
      } else {
        constraints.push_back(
            DeriveConstraint(preds[level], node.level_keys()[level]));
      }
    }
    for (Oid oid : scheme.SelectPartitions(constraints)) {
      hub_.Push(segment, node.scan_id(), oid);
    }
  };

  if (!node.HasChild()) {
    // Static selection: predicates reference only the partition key and
    // constants; one selection run covers the whole scan.
    select_with(node.level_predicates());
    return InputRows();
  }

  // The child's input passes through as it is: the pushes below read its
  // rows in place.
  MPPDB_ASSIGN_OR_RETURN(InputRows input, ExecNode(node.child(0), segment));
  ColumnLayout layout = node.child(0)->OutputLayout();
  // Visits every input row in order, running the hub.push check at every
  // kChunkRows-th row.
  auto for_each_row = [&](const auto& visit) -> Status {
    size_t until_check = 0;
    for (size_t s = 0; s < input.num_slices(); ++s) {
      const InputRows::SliceView rows = input.slice(s);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (until_check == 0) {
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "hub.push"));
          until_check = TableStore::kChunkRows;
        }
        --until_check;
        visit(rows[i]);
      }
    }
    return Status::OK();
  };

  // Predicates that reference no child column are row-invariant; evaluate
  // once instead of per tuple.
  bool row_dependent = false;
  for (const auto& pred : node.level_predicates()) {
    if (pred == nullptr) continue;
    std::unordered_set<ColRefId> refs;
    CollectColumnRefs(pred, &refs);
    for (ColRefId id : refs) {
      if (layout.PositionOf(id) >= 0) {
        row_dependent = true;
        break;
      }
    }
    if (row_dependent) break;
  }

  if (!row_dependent) {
    select_with(node.level_predicates());
    return input;
  }

  // Fast path (paper Fig. 15(a)): when every level's predicate is
  // `partition_key = <column of the input row>`, each tuple routes directly
  // through f_T, the partition_selection built-in's body, on the scheme
  // resolved above, instead of the generic constraint machinery.
  std::vector<int> eq_positions(num_levels, -1);
  bool all_equality = true;
  for (size_t level = 0; level < num_levels && all_equality; ++level) {
    const ExprPtr& pred = node.level_predicates()[level];
    if (pred == nullptr || pred->kind() != ExprKind::kComparison) {
      all_equality = false;
      break;
    }
    const auto& cmp = static_cast<const ComparisonExpr&>(*pred);
    if (cmp.op() != CompareOp::kEq) {
      all_equality = false;
      break;
    }
    ExprPtr other;
    if (cmp.child(0)->kind() == ExprKind::kColumnRef &&
        static_cast<const ColumnRefExpr&>(*cmp.child(0)).id() ==
            node.level_keys()[level]) {
      other = cmp.child(1);
    } else if (cmp.child(1)->kind() == ExprKind::kColumnRef &&
               static_cast<const ColumnRefExpr&>(*cmp.child(1)).id() ==
                   node.level_keys()[level]) {
      other = cmp.child(0);
    }
    if (other == nullptr || other->kind() != ExprKind::kColumnRef) {
      all_equality = false;
      break;
    }
    int pos = layout.PositionOf(static_cast<const ColumnRefExpr&>(*other).id());
    if (pos < 0) {
      all_equality = false;
      break;
    }
    eq_positions[level] = pos;
  }
  if (all_equality) {
    std::vector<Datum> key_values(num_levels);
    MPPDB_RETURN_IF_ERROR(for_each_row([&](const Row& row) {
      for (size_t level = 0; level < num_levels; ++level) {
        key_values[level] = row[static_cast<size_t>(eq_positions[level])];
      }
      const Oid oid = scheme.RouteValues(key_values);
      if (oid != kInvalidOid) {
        hub_.Push(segment, node.scan_id(), oid);
      }
    }));
    return input;
  }

  MPPDB_RETURN_IF_ERROR(for_each_row([&](const Row& row) {
    std::unordered_map<ColRefId, Datum> bindings;
    for (size_t i = 0; i < layout.ids().size(); ++i) {
      bindings.emplace(layout.ids()[i], row[i]);
    }
    // The partition key itself must stay symbolic: it names the scanned
    // table's column, not a value from this (outer) row.
    for (ColRefId key : node.level_keys()) bindings.erase(key);
    std::vector<ExprPtr> bound;
    bound.reserve(num_levels);
    for (const auto& pred : node.level_predicates()) {
      bound.push_back(pred == nullptr ? nullptr : SubstituteColumns(pred, bindings));
    }
    select_with(bound);
  }));
  return input;
}

Result<std::vector<Row>> Executor::ExecNestedLoopJoin(const NestedLoopJoinNode& node,
                                                      int segment) {
  MPPDB_ASSIGN_OR_RETURN(InputRows outer, ExecNode(node.child(0), segment));
  Result<InputRows> inner_result = ExecNode(node.child(1), segment);
  if (!inner_result.ok()) {
    if (IsSuspendedStatus(inner_result.status())) {
      seg_run_[static_cast<size_t>(segment)].cache[node.child(0).get()] =
          std::move(outer);
    }
    return inner_result.status();
  }
  std::vector<Row> outer_rows = std::move(outer).Take();
  std::vector<Row> inner_rows = std::move(inner_result).value().Take();
  // No pairs, no output — skip the O(n*m) loop entirely. The children have
  // already run (side effects and stats), and with zero pairs the row path
  // never evaluates the predicate either, so this is behavior-preserving.
  if (outer_rows.empty() || inner_rows.empty()) return std::vector<Row>{};

  // Hoist constant-foldable conjuncts out of the per-pair loop. A conjunct
  // folding to TRUE never changes the conjunction's value and cannot error,
  // so it is dropped. One folding to FALSE empties the result — but only
  // when every earlier conjunct was dropped: AND evaluates left to right and
  // short-circuits on the first false, so with const-true conjuncts before
  // it no pair can reach (and error in) a later conjunct. A NULL constant
  // does not short-circuit AND evaluation and is kept as-is.
  ExprPtr predicate = node.predicate();
  if (predicate != nullptr) {
    std::vector<ExprPtr> kept;
    for (const ExprPtr& conjunct : SplitConjuncts(predicate)) {
      std::optional<Datum> folded = TryFoldConst(conjunct);
      if (folded.has_value() && !folded->is_null() &&
          folded->type() == TypeId::kBool) {
        if (folded->bool_value()) continue;  // drop const TRUE
        if (kept.empty()) return std::vector<Row>{};  // leading const FALSE
      }
      kept.push_back(conjunct);
    }
    predicate = Conj(std::move(kept));
  }

  ColumnLayout joint_layout = ColumnLayout::Concat(node.child(0)->OutputLayout(),
                                                   node.child(1)->OutputLayout());
  std::vector<Row> out;
  // Pair-granular countdown: O(n*m) loops must observe cancellation within
  // one batch of pairs, not one batch of outer rows.
  size_t until_check = 0;
  if (node.join_type() == JoinType::kSemi) {
    for (const Row& inner : inner_rows) {
      for (const Row& outer : outer_rows) {
        if (until_check == 0) {
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
          until_check = TableStore::kChunkRows;
        }
        --until_check;
        Row joined = outer;
        joined.insert(joined.end(), inner.begin(), inner.end());
        bool keep = true;
        if (predicate != nullptr) {
          MPPDB_ASSIGN_OR_RETURN(keep,
                                 EvalPredicate(predicate, joint_layout, joined));
        }
        if (keep) {
          out.push_back(inner);
          break;
        }
      }
    }
    return out;
  }
  out.reserve(outer_rows.size());
  for (const Row& outer : outer_rows) {
    for (const Row& inner : inner_rows) {
      if (until_check == 0) {
        MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
        until_check = TableStore::kChunkRows;
      }
      --until_check;
      Row joined = outer;
      joined.insert(joined.end(), inner.begin(), inner.end());
      bool keep = true;
      if (predicate != nullptr) {
        MPPDB_ASSIGN_OR_RETURN(keep,
                               EvalPredicate(predicate, joint_layout, joined));
      }
      if (keep) out.push_back(std::move(joined));
    }
  }
  return out;
}

Result<std::vector<Row>> Executor::ExecIndexNLJoin(const IndexNLJoinNode& node,
                                                   int segment) {
  MPPDB_ASSIGN_OR_RETURN(std::vector<Row> outer_rows, ExecOwned(node.child(0), segment));
  TableStore* store = storage_->GetStore(node.inner_table());
  if (store == nullptr) {
    return Status::ExecutionError("no storage for table oid " +
                                  std::to_string(node.inner_table()));
  }
  const TableDescriptor& table = store->descriptor();
  if (table.distribution == TableDistribution::kReplicated) {
    return Status::ExecutionError(
        "IndexNLJoin over a replicated inner table would duplicate matches");
  }
  if (!table.HasIndexOn(node.inner_key_column())) {
    return Status::ExecutionError("IndexNLJoin without an index on column " +
                                  std::to_string(node.inner_key_column()) + " of " +
                                  table.name);
  }
  if (!store->HasIndex(node.inner_key_column())) {
    MPPDB_RETURN_IF_ERROR(store->CreateIndex(node.inner_key_column()));
  }
  const PartitionScheme* scheme =
      table.IsPartitioned() ? table.partition_scheme.get() : nullptr;
  if (scheme != nullptr && scheme->num_levels() != 1) {
    return Status::ExecutionError(
        "IndexNLJoin supports single-level partitioned inner tables");
  }

  ColumnLayout outer_layout = node.child(0)->OutputLayout();
  int key_pos = outer_layout.PositionOf(node.outer_key());
  if (key_pos < 0) {
    return Status::ExecutionError("IndexNLJoin outer key column not in outer layout");
  }
  ColumnLayout joint_layout =
      ColumnLayout::Concat(outer_layout, ColumnLayout(node.inner_column_ids()));

  std::vector<Row> out;
  std::vector<Datum> route_key(1);  // f_T's argument, reused across outer rows
  size_t until_check = 0;
  for (const Row& outer : outer_rows) {
    if (until_check == 0) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
      until_check = TableStore::kChunkRows;
    }
    --until_check;
    const Datum& key = outer[static_cast<size_t>(key_pos)];
    if (key.is_null()) continue;
    // The outer child computes "the keys of partitions to be scanned"
    // (paper 2.2): route through f_T to the single qualifying partition.
    Oid unit = table.oid;
    if (scheme != nullptr) {
      route_key[0] = key;
      unit = scheme->RouteValues(route_key);
      if (unit == kInvalidOid) continue;  // the invalid partition: no match
    }
    ExecStats& stats = seg_stats_[static_cast<size_t>(segment)];
    stats.partitions_scanned[table.oid].insert(unit);
    const std::vector<size_t> positions =
        store->IndexLookup(unit, segment, node.inner_key_column(), key);
    stats.tuples_scanned += positions.size();
    if (positions.empty()) continue;
    const std::vector<Row>& unit_rows = store->UnitRows(unit, segment);
    for (size_t pos : positions) {
      Row joined = outer;
      const Row& inner = unit_rows[pos];
      joined.insert(joined.end(), inner.begin(), inner.end());
      if (node.residual() != nullptr) {
        MPPDB_ASSIGN_OR_RETURN(bool keep,
                               EvalPredicate(node.residual(), joint_layout, joined));
        if (!keep) continue;
      }
      out.push_back(std::move(joined));
    }
  }
  return out;
}

Result<std::vector<Row>> Executor::ExecSort(const SortNode& node, int segment) {
  MPPDB_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecOwned(node.child(0), segment));
  ColumnLayout layout = node.child(0)->OutputLayout();
  std::vector<int> positions;
  std::vector<bool> ascending;
  MPPDB_RETURN_IF_ERROR(ResolveSortKeys(node.keys(), layout, &positions, &ascending));
  // Order the rows by normalized key words (sort_keys.h), then move them
  // into place.
  const size_t num_keys = positions.size();
  MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
  // Scoped charge: the key buffer and permutation live only for the sort.
  // String key payloads count, so varchar sort keys don't undercharge.
  size_t key_payload = 0;
  for (const Row& row : rows) {
    for (int pos : positions) {
      key_payload += DatumPayloadBytes(row[static_cast<size_t>(pos)]);
    }
  }
  const size_t sort_bytes = ApproxRowsBytes(rows.size(), num_keys) + key_payload;
  MPPDB_ASSIGN_OR_RETURN(bool charged,
                         ChargeOrSpill(segment, sort_bytes, "sort key buffer"));
  if (!charged) {
    return SpillSortRows(node, segment, std::move(rows), positions, ascending,
                         sort_bytes);
  }
  const std::vector<uint32_t> order =
      SortKeys(positions, ascending, rows).Order(rows, 0, rows.size());
  std::vector<Row> sorted;
  sorted.reserve(rows.size());
  for (uint32_t idx : order) sorted.push_back(std::move(rows[idx]));
  ctx_->budget().Release(sort_bytes);
  return sorted;
}

Result<std::vector<Row>> Executor::ExecTopN(const TopNNode& node, int segment) {
  MPPDB_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecOwned(node.child(0), segment));
  ColumnLayout layout = node.child(0)->OutputLayout();
  std::vector<int> positions;
  std::vector<bool> ascending;
  MPPDB_RETURN_IF_ERROR(ResolveSortKeys(node.keys(), layout, &positions, &ascending));
  const size_t k = node.limit();
  ExecStats& stats = seg_stats_[static_cast<size_t>(segment)];
  if (k == 0 || rows.empty()) {
    stats.topn_rows_cut += rows.size();
    return std::vector<Row>{};
  }
  const size_t num_keys = positions.size();
  // Heap state is O(k) — the retained rows' keys plus an arrival stamp — the
  // whole point versus Sort's O(n) key buffer.
  const size_t retain = std::min(k, rows.size());
  const size_t heap_bytes = ApproxRowsBytes(retain, num_keys + 1);
  MPPDB_RETURN_IF_ERROR(ChargeBudget(segment, heap_bytes, "top-n heap"));

  // Each retained entry's key words live in `slot_words` at its slot; a
  // displaced entry's slot passes to the row that displaces it.
  const SortKeys keys(positions, ascending, rows);
  const size_t width = keys.width();
  std::vector<uint64_t> slot_words(retain * width);
  std::vector<uint64_t> candidate(width);
  struct Entry {
    size_t arrival;
    size_t slot;
    Row row;
  };
  auto words_of = [&](const Entry& e) { return slot_words.data() + e.slot * width; };
  // Strict weak "ranks before" in the stable sort order: keys first, arrival
  // order as the tie-break — so the retained set and its final ordering are
  // exactly the first k rows of a stable sort (≡ Limit over Sort).
  auto before = [&](const Entry& a, const Entry& b) {
    const int c = keys.Compare(words_of(a), a.row, words_of(b), b.row);
    return c != 0 ? c < 0 : a.arrival < b.arrival;
  };
  // Max-heap under `before`: front is the worst retained entry.
  std::vector<Entry> heap;
  heap.reserve(retain);
  size_t until_check = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (until_check == 0) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
      until_check = TableStore::kChunkRows;
    }
    --until_check;
    if (heap.size() < k) {
      const size_t slot = heap.size();
      keys.Encode(rows[r], slot_words.data() + slot * width);
      heap.push_back(Entry{r, slot, std::move(rows[r])});
      std::push_heap(heap.begin(), heap.end(), before);
      continue;
    }
    // A later arrival that ties the worst retained entry on every key ranks
    // after it (stability), so only strictly-better rows displace.
    keys.Encode(rows[r], candidate.data());
    const Entry& worst = heap.front();
    if (keys.Compare(candidate.data(), rows[r], words_of(worst), worst.row) >= 0) {
      continue;
    }
    std::pop_heap(heap.begin(), heap.end(), before);
    Entry& e = heap.back();
    std::copy(candidate.begin(), candidate.end(), slot_words.begin() + e.slot * width);
    e.arrival = r;
    e.row = std::move(rows[r]);
    std::push_heap(heap.begin(), heap.end(), before);
  }
  stats.topn_rows_cut += rows.size() - heap.size();
  std::sort(heap.begin(), heap.end(), before);
  std::vector<Row> out;
  out.reserve(heap.size());
  for (Entry& e : heap) out.push_back(std::move(e.row));
  ctx_->budget().Release(heap_bytes);
  return out;
}

Status Executor::BuildMotionBuffers(const MotionNode& node, int segment,
                                    std::vector<InputRows> source_rows,
                                    MotionExchange* exchange) {
  ColumnLayout layout = node.child(0)->OutputLayout();
  size_t total_rows = 0;
  for (const InputRows& rows : source_rows) total_rows += rows.size();

  // The exchange's receive buffers hold every in-flight row until the
  // destinations drain them: a mandatory charge, like a real interconnect's
  // receive-queue quota.
  MPPDB_RETURN_IF_ERROR(
      ChargeBudget(segment, ApproxRowsBytes(total_rows, layout.ids().size()),
                   "motion receive buffers"));

  // Cross-segment join-filter publication: the summary covers every source
  // segment's rows before they are routed, which is exactly the union of all
  // segments' post-exchange build tables — sound for consumers below a
  // probe-side Motion on any segment. Publishing here (before `built` is
  // announced) means every consuming slice, still blocked on or short of
  // this rendezvous, observes a complete summary.
  if (options_.join_filters) {
    for (const JoinFilterSpec& spec : node.join_filters().publishes) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "joinfilter.publish"));
      MPPDB_ASSIGN_OR_RETURN(std::vector<int> positions,
                             ResolvePositions(layout, spec.key_columns));
      // Advisory, like the segment-local summaries: shed under pressure.
      const size_t summary_bytes = 64 + positions.size() * 48 + total_rows;
      if (!TryChargeOptional(summary_bytes)) {
        ++seg_stats_[static_cast<size_t>(segment)].joinfilter_shed;
        continue;
      }
      JoinFilterSummaryBuilder builder(positions.size(), total_rows);
      size_t rows_since_check = 0;
      for (const InputRows& rows : source_rows) {
        for (size_t s = 0; s < rows.num_slices(); ++s) {
          const InputRows::SliceView slice = rows.slice(s);
          for (size_t i = 0; i < slice.size(); ++i) {
            if (++rows_since_check >= TableStore::kChunkRows) {
              rows_since_check = 0;
              MPPDB_RETURN_IF_ERROR(CheckExec(segment, nullptr));
            }
            builder.Add(slice[i], positions);
          }
        }
      }
      hub_.PublishGlobalJoinFilter(spec.filter_id, builder.Finish());
      ++seg_stats_[static_cast<size_t>(segment)].joinfilter_built;
    }
  }

  exchange->buffers.clear();
  exchange->buffers.resize(static_cast<size_t>(num_segments_));
  std::vector<std::vector<Row>> routed;
  std::vector<int> hash_pos;
  switch (node.motion_kind()) {
    case MotionKind::kGather:
      break;
    case MotionKind::kBroadcast:
      // One shared materialization; destinations read it in place.
      exchange->broadcast_shared.reserve(total_rows);
      break;
    case MotionKind::kRedistribute: {
      MPPDB_ASSIGN_OR_RETURN(hash_pos, ResolvePositions(layout, node.hash_columns()));
      // Sender batch hint: destinations receive ~total/S rows each under a
      // uniform hash; reserve that plus slack to avoid most regrows.
      const size_t expected =
          total_rows / static_cast<size_t>(num_segments_);
      routed.resize(static_cast<size_t>(num_segments_));
      for (auto& buffer : routed) buffer.reserve(expected + expected / 4 + 4);
      break;
    }
  }
  // Source-segment order keeps buffer contents independent of arrival order.
  // The routing loop is the longest uninterruptible stretch of a run (the
  // last arriver routes every segment's rows while its peers wait
  // on the rendezvous), so it re-checks liveness at batch granularity like
  // the operator hot loops do.
  size_t rows_since_check = 0;
  for (InputRows& input : source_rows) {
    MPPDB_RETURN_IF_ERROR(CheckExec(segment, nullptr));
    if (node.motion_kind() == MotionKind::kGather) {
      // The slices themselves move; no row is touched.
      exchange->buffers[0].Append(std::move(input));
      continue;
    }
    // Broadcast and Redistribute sources deposited one owned slice.
    std::vector<Row> rows = std::move(input).Take();
    if (node.motion_kind() == MotionKind::kBroadcast) {
      exchange->broadcast_shared.insert(exchange->broadcast_shared.end(),
                                        std::make_move_iterator(rows.begin()),
                                        std::make_move_iterator(rows.end()));
      continue;
    }
    for (Row& row : rows) {
      if (++rows_since_check >= TableStore::kChunkRows) {
        rows_since_check = 0;
        MPPDB_RETURN_IF_ERROR(CheckExec(segment, nullptr));
      }
      uint64_t h = HashRowColumns(row, hash_pos);
      routed[h % static_cast<uint64_t>(num_segments_)].push_back(std::move(row));
    }
  }
  for (size_t dest = 0; dest < routed.size(); ++dest) {
    exchange->buffers[dest] = InputRows(std::move(routed[dest]));
  }
  return Status::OK();
}

InputRows Executor::ReadMotionBuffer(const MotionNode& node, MotionExchange& exchange,
                                     int segment) {
  if (node.motion_kind() == MotionKind::kBroadcast) {
    // Every destination reads the one batch in place; it lives until the
    // run ends.
    InputRows shared;
    shared.AddRef(exchange.broadcast_shared);
    return shared;
  }
  // Sole reader of this slot: hand the buffer over without copying.
  return std::move(exchange.buffers[static_cast<size_t>(segment)]);
}

Result<InputRows> Executor::ExecMotion(const MotionNode& node, int segment) {
  MotionExchange& exchange = *exchanges_.at(&node);
  // A worker-count-independent exchange. Arrival is a counter each segment
  // bumps when it deposits; a segment whose peers are outstanding suspends
  // (unwinds, then registers a continuation) instead of blocking a thread,
  // and the last arriver builds the buffers and resumes the suspended peers.
  {
    std::unique_lock<std::mutex> lock(exchange.mu);
    if (!exchange.deposited[static_cast<size_t>(segment)]) {
      lock.unlock();
      // A Gather deposits its child's slices as they are: storage slices by
      // reference, owned ones moved, and segment 0's consumer copies only
      // what it must own. Broadcast and Redistribute take ownership here, on
      // the source segment's own task, so a child read in place is copied in
      // parallel across segments and never by the last arriver.
      InputRows rows;
      if (node.motion_kind() == MotionKind::kGather) {
        MPPDB_ASSIGN_OR_RETURN(rows, ExecNode(node.child(0), segment));
      } else {
        MPPDB_ASSIGN_OR_RETURN(std::vector<Row> owned, ExecOwned(node.child(0), segment));
        rows = InputRows(std::move(owned));
      }
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "motion.send"));
      seg_stats_[static_cast<size_t>(segment)].rows_moved += rows.size();
      lock.lock();
      exchange.source_rows[static_cast<size_t>(segment)] = std::move(rows);
      exchange.deposited[static_cast<size_t>(segment)] = 1;
      if (++exchange.arrived == num_segments_) {
        // Last arriver builds the per-destination buffers exactly once —
        // unless the run is already doomed (a peer failed between its
        // deposit and our arrival): announce the abort instead of building
        // dead buffers.
        exchange.build_status = CheckExec(segment, nullptr);
        if (exchange.build_status.ok()) {
          exchange.build_status = BuildMotionBuffers(
              node, segment, std::move(exchange.source_rows), &exchange);
        }
        exchange.built = true;
        std::vector<int> waiters;
        waiters.swap(exchange.waiters);
        lock.unlock();
        for (int waiter : waiters) ResumeSegment(waiter);
      } else {
        // Suspend; RunSegmentTask registers the continuation once the walk
        // has unwound.
        seg_run_[static_cast<size_t>(segment)].suspended_at = &exchange;
        return SuspendedStatus();
      }
    } else if (!exchange.built) {
      // A resumed re-walk normally finds its suspension point built; being
      // here means a stray resume (or a future multi-resume policy) raced
      // the build. Suspend again — some peer has yet to arrive (or an abort
      // fires), so a resume is guaranteed.
      seg_run_[static_cast<size_t>(segment)].suspended_at = &exchange;
      return SuspendedStatus();
    }
  }
  // `built` is final: the buffers/build_status are immutable from here on
  // (each segment only moves out of its own buffer slot, and the broadcast
  // batch is only read), so lock-free concurrent reads are safe.
  if (!exchange.build_status.ok()) return exchange.build_status;
  MPPDB_RETURN_IF_ERROR(CheckExec(segment, "motion.recv"));
  return ReadMotionBuffer(node, exchange, segment);
}

Result<std::vector<Row>> Executor::ExecInsert(const InsertNode& node, int segment) {
  // DML writes only owned rows: no storage slice it reads may be one it
  // mutates (DESIGN.md §15).
  MPPDB_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecOwned(node.child(0), segment));
  TableStore* store = storage_->GetStore(node.table_oid());
  if (store == nullptr) {
    return Status::ExecutionError("no storage for table oid " +
                                  std::to_string(node.table_oid()));
  }
  // Last liveness check before mutating storage: a cancelled or expired
  // query aborts here with storage untouched, never mid-apply.
  MPPDB_RETURN_IF_ERROR(CheckExec(segment, nullptr));
  {
    // Single-writer DML rule: input is gathered, so only segment 0 carries
    // rows; the lock is defense in depth against plans that violate that.
    std::lock_guard<std::mutex> lock(dml_mu_);
    // All-or-nothing: InsertBatch routes every row before it writes any.
    MPPDB_RETURN_IF_ERROR(store->InsertBatch(rows));
  }
  if (segment != 0) return std::vector<Row>{};
  return std::vector<Row>{{Datum::Int64(static_cast<int64_t>(rows.size()))}};
}

namespace {

struct RowLocator {
  Oid unit;
  int segment;
  size_t index;
};

Result<RowLocator> ExtractLocator(const Row& row, const std::vector<int>& rowid_pos) {
  RowLocator loc;
  loc.unit = static_cast<Oid>(row[static_cast<size_t>(rowid_pos[0])].AsInt64());
  loc.segment = static_cast<int>(row[static_cast<size_t>(rowid_pos[1])].AsInt64());
  loc.index = static_cast<size_t>(row[static_cast<size_t>(rowid_pos[2])].AsInt64());
  return loc;
}

// Deletes the located rows from storage; descending index order per unit
// vector keeps earlier indices valid.
void ApplyDeletes(TableStore* store, std::vector<RowLocator> locators) {
  std::sort(locators.begin(), locators.end(),
            [](const RowLocator& a, const RowLocator& b) {
              if (a.unit != b.unit) return a.unit < b.unit;
              if (a.segment != b.segment) return a.segment < b.segment;
              return a.index > b.index;
            });
  for (const RowLocator& loc : locators) {
    std::vector<Row>* rows = store->MutableUnitRows(loc.unit, loc.segment);
    MPPDB_CHECK(loc.index < rows->size());
    rows->erase(rows->begin() + static_cast<std::ptrdiff_t>(loc.index));
  }
}

}  // namespace

Result<std::vector<Row>> Executor::ExecUpdate(const UpdateNode& node, int segment) {
  MPPDB_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecOwned(node.child(0), segment));
  if (rows.empty()) {
    if (segment != 0) return std::vector<Row>{};
    return std::vector<Row>{{Datum::Int64(0)}};
  }
  TableStore* store = storage_->GetStore(node.table_oid());
  if (store == nullptr) {
    return Status::ExecutionError("no storage for table oid " +
                                  std::to_string(node.table_oid()));
  }
  ColumnLayout layout = node.child(0)->OutputLayout();
  MPPDB_ASSIGN_OR_RETURN(std::vector<int> rowid_pos,
                         ResolvePositions(layout, node.rowid_ids()));
  MPPDB_ASSIGN_OR_RETURN(std::vector<int> table_pos,
                         ResolvePositions(layout, node.table_column_ids()));

  std::vector<RowLocator> to_delete;
  std::vector<Row> to_insert;
  // A target row may join multiple source rows; SQL UPDATE applies one of
  // the matches (we keep the first), never several.
  std::set<std::tuple<Oid, int, size_t>> seen_locators;
  for (const Row& row : rows) {
    MPPDB_ASSIGN_OR_RETURN(RowLocator loc, ExtractLocator(row, rowid_pos));
    if (!seen_locators.insert({loc.unit, loc.segment, loc.index}).second) continue;
    to_delete.push_back(loc);
    Row updated;
    updated.reserve(table_pos.size());
    for (int pos : table_pos) updated.push_back(row[static_cast<size_t>(pos)]);
    for (const UpdateSetItem& item : node.set_items()) {
      MPPDB_ASSIGN_OR_RETURN(Datum v, EvalExpr(item.value, layout, row));
      updated[static_cast<size_t>(item.column_index)] = std::move(v);
    }
    to_insert.push_back(std::move(updated));
  }
  // Storage-untouched-on-cancel guarantee (see ExecInsert).
  MPPDB_RETURN_IF_ERROR(CheckExec(segment, nullptr));
  {
    // Single-writer DML rule (see ExecInsert).
    std::lock_guard<std::mutex> lock(dml_mu_);
    // Delete-then-reinsert handles partition-key changes via f_T routing.
    // Every rewritten row is routed first, so a row that routes nowhere
    // fails the statement before any delete. (Deleting first lets the
    // reinsert reuse the freed capacity instead of growing full slices.)
    MPPDB_RETURN_IF_ERROR(store->CheckBatch(to_insert));
    ApplyDeletes(store, std::move(to_delete));
    MPPDB_RETURN_IF_ERROR(store->InsertBatch(to_insert));
  }
  if (segment != 0) return std::vector<Row>{};
  return std::vector<Row>{{Datum::Int64(static_cast<int64_t>(rows.size()))}};
}

Result<std::vector<Row>> Executor::ExecDelete(const DeleteNode& node, int segment) {
  MPPDB_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecOwned(node.child(0), segment));
  if (rows.empty()) {
    if (segment != 0) return std::vector<Row>{};
    return std::vector<Row>{{Datum::Int64(0)}};
  }
  TableStore* store = storage_->GetStore(node.table_oid());
  if (store == nullptr) {
    return Status::ExecutionError("no storage for table oid " +
                                  std::to_string(node.table_oid()));
  }
  ColumnLayout layout = node.child(0)->OutputLayout();
  MPPDB_ASSIGN_OR_RETURN(std::vector<int> rowid_pos,
                         ResolvePositions(layout, node.rowid_ids()));
  std::vector<RowLocator> to_delete;
  std::set<std::tuple<Oid, int, size_t>> seen_locators;
  for (const Row& row : rows) {
    MPPDB_ASSIGN_OR_RETURN(RowLocator loc, ExtractLocator(row, rowid_pos));
    if (!seen_locators.insert({loc.unit, loc.segment, loc.index}).second) continue;
    to_delete.push_back(loc);
  }
  // Storage-untouched-on-cancel guarantee (see ExecInsert).
  MPPDB_RETURN_IF_ERROR(CheckExec(segment, nullptr));
  {
    // Single-writer DML rule (see ExecInsert).
    std::lock_guard<std::mutex> lock(dml_mu_);
    ApplyDeletes(store, std::move(to_delete));
  }
  if (segment != 0) return std::vector<Row>{};
  return std::vector<Row>{{Datum::Int64(static_cast<int64_t>(rows.size()))}};
}

}  // namespace mppdb
