#ifndef MPPDB_EXEC_EXECUTOR_H_
#define MPPDB_EXEC_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/plan.h"
#include "runtime/propagation.h"
#include "runtime/query_context.h"
#include "storage/storage.h"

namespace mppdb {

class KernelContext;
class KernelProgram;
class SpillFileManager;

/// Suspension sentinel for segment tasks (executor.cc):
/// a segment task that reaches a Motion whose peers have not all arrived
/// unwinds by returning this status through the ordinary error plumbing,
/// and registers its continuation once fully unwound. Operators with multi-child state to
/// preserve (HashJoin, Append, Sequence, fused-scan prefixes) test for it
/// with IsSuspendedStatus before propagating. Never escapes the executor.
Status SuspendedStatus();
bool IsSuspendedStatus(const Status& status);

/// Counters collected during one query execution; the raw material for the
/// paper's partition-elimination experiments (Table 3, Fig. 16, Fig. 17).
struct ExecStats {
  /// Per table OID: distinct storage units (leaf partitions) actually
  /// scanned, across all segments.
  std::map<Oid, std::set<Oid>> partitions_scanned;
  /// Total tuples read from storage (across segments).
  size_t tuples_scanned = 0;
  /// Total rows shipped through Motion operators.
  size_t rows_moved = 0;
  /// Zone-map skipping counters (Options::data_skipping; all zero when it is
  /// off). tuples_scanned and partitions_scanned stay *logical* — skipped
  /// chunks still count there, so pruning-effect assertions keep one
  /// skipping-independent baseline.
  /// Chunks covered by skip-eligible filtered scans (ceil(rows / kChunkRows)
  /// per slice).
  size_t chunks_total = 0;
  /// Chunks whose synopsis proved the predicate false for every row.
  size_t chunks_skipped = 0;
  /// (unit, segment) slices skipped wholesale via the rollup synopsis; their
  /// chunks are also counted in chunks_skipped.
  size_t units_skipped = 0;
  /// A copy with the zone-map skipping counters above zeroed: what is left
  /// must not depend on data_skipping (DESIGN.md invariant 8).
  ExecStats WithoutSkipCounters() const {
    ExecStats out = *this;
    out.chunks_total = 0;
    out.chunks_skipped = 0;
    out.units_skipped = 0;
    return out;
  }

  /// Runtime join-filter counters (Options::join_filters; all zero when the
  /// feature — or the optimizer's placement — is off). Like the zone-map
  /// counters, every pre-existing field above stays identical with filters
  /// on or off: rows_moved stays logical (rows a below-Motion consumer
  /// rejects are still counted as moved, with the savings reported in
  /// joinfilter_motion_rows_saved), and predicate-driven chunk skips are
  /// tested before join-filter skips so chunks_skipped is unchanged.
  /// Summaries published (one per filter per segment, plus one per
  /// cross-segment merge).
  size_t joinfilter_built = 0;
  /// Probe rows tested against a summary (predicate survivors
  /// at Filter consumers; rows of unskipped chunks at bare-scan consumers).
  /// A stopped filter (joinfilter_probes_stopped) tests no further row.
  size_t joinfilter_probed = 0;
  /// Probed rows rejected (NULL key, out of build min/max, or bloom miss).
  size_t joinfilter_rows_rejected = 0;
  /// Chunks (and, via rollups, whole slices) skipped because the build-key
  /// min/max proved them disjoint; disjoint from chunks_skipped.
  size_t joinfilter_chunks_skipped = 0;
  /// Rows that were *not* serialized through an exchange because a consumer
  /// below the Motion rejected them (rows_moved still counts them).
  size_t joinfilter_motion_rows_saved = 0;
  /// (filter, segment, scan) triples whose probe prefix rejected less than
  /// Executor::kJoinFilterStopFraction of its rows, so the filter stopped
  /// probing for the rest of that scan (chunk skipping continues).
  size_t joinfilter_probes_stopped = 0;
  /// A copy with the joinfilter_* counters above zeroed (joinfilter_shed,
  /// a budget counter, stays): what is left must not depend on join filters
  /// (DESIGN.md invariant 9).
  ExecStats WithoutJoinFilterCounters() const {
    ExecStats out = *this;
    out.joinfilter_built = 0;
    out.joinfilter_probed = 0;
    out.joinfilter_rows_rejected = 0;
    out.joinfilter_chunks_skipped = 0;
    out.joinfilter_motion_rows_saved = 0;
    out.joinfilter_probes_stopped = 0;
    return out;
  }

  /// Memory-budget shedding counters (zero unless the query ran with a
  /// limited QueryContext budget — so the worker-count bit-identity
  /// matrix, which runs budget-free, is unaffected). Shedding
  /// order under pressure: join-filter summaries first, stale zone-map
  /// rebuilds second, and only then do mandatory charges fail the query with
  /// kResourceExhausted.
  /// Join-filter summaries not published because their charge was refused.
  size_t joinfilter_shed = 0;
  /// Stale slice synopses scanned without rebuilding because their rebuild
  /// charge was refused (the scan runs unskipped instead).
  size_t synopsis_rebuilds_shed = 0;

  /// Columnar-execution counters (encoded evaluation over column-oriented
  /// partitions; all zero for row-oriented tables). Like the zone-map
  /// counters, the logical fields above stay identical across storage
  /// orientations — only these (and time spent) change.
  /// Chunks whose sargable conjunct prefix was evaluated directly on the
  /// encoded column data (dictionary codes, RLE runs, packed integers).
  size_t chunks_encoded_eval = 0;
  /// Rows materialized from the row image after surviving the encoded
  /// prefix (the late-materialization survivors).
  size_t rows_late_materialized = 0;
  /// Encoded bytes of the chunks counted in chunks_encoded_eval (their
  /// plain-row footprint is chunk rows * row width; the ratio is the
  /// bytes-scanned saving).
  size_t encoded_bytes_scanned = 0;
  /// Stale encoded column images scanned via the row image instead because
  /// their re-encode charge was refused under memory pressure.
  size_t colstore_rebuilds_shed = 0;
  /// A copy with the columnar-execution counters above zeroed: what is left
  /// must not depend on storage orientation (DESIGN.md invariant 12).
  ExecStats WithoutEncodedCounters() const {
    ExecStats out = *this;
    out.chunks_encoded_eval = 0;
    out.rows_late_materialized = 0;
    out.encoded_bytes_scanned = 0;
    out.colstore_rebuilds_shed = 0;
    return out;
  }

  /// Index access-path counters (QueryOptions::enable_index_paths; all zero
  /// when the optimizer picked no index plan). Like the counters above, the
  /// logical fields stay identical when an index plan replaces a scan plan:
  /// partitions_scanned and tuples_scanned count the units and slice rows the
  /// replaced scan would have covered. Only these three counters (and the
  /// chunk/skip counters of the scan the index plan *avoided running*) differ.
  /// Index accesses performed: one per (unit, segment) seek, walk, or min/max
  /// probe.
  size_t index_seeks = 0;
  /// Row positions actually read back from index entries (seek/walk
  /// survivors before residual filtering; at most one per unit for min/max).
  size_t index_rows_read = 0;
  /// Rows a bounded top-N heap discarded without sorting (input rows minus
  /// retained rows, summed across TopN operators).
  size_t topn_rows_cut = 0;

  /// Out-of-core spill counters (Options::spill; all zero when the budget
  /// never refused a mandatory charge). Spilling is stats-only-visible
  /// (DESIGN.md invariant 14): rows are bit-identical to the in-memory
  /// path, only these counters (and time spent) move.
  /// Spill partition files that received at least one row (hash join build
  /// and probe partitions, hash aggregate partitions; sorted runs are
  /// counted in sort_runs instead).
  size_t spill_partitions = 0;
  /// Bytes written to spill files (frame headers included).
  size_t spill_bytes_written = 0;
  /// Bytes read back from spill files.
  size_t spill_bytes_read = 0;
  /// Passes over spilled data: one per hash partitioning fan-out (initial
  /// and each recursive re-partition), one per sort run generation, one per
  /// k-way merge.
  size_t spill_passes = 0;
  /// Sorted runs written by the external merge sort.
  size_t sort_runs = 0;

  /// Distinct partitions scanned for `table_oid` (0 if never scanned).
  size_t PartitionsScanned(Oid table_oid) const;
  /// Sum over all tables.
  size_t TotalPartitionsScanned() const;

  /// Folds another accumulator in (set-union partitions, sum counters).
  /// Used to merge per-segment stats after a run; commutative, so
  /// merge order does not affect the result.
  void MergeFrom(const ExecStats& other);

  bool operator==(const ExecStats& other) const = default;
};

/// An operator's output as Executor::ExecNode returns it: a list of row
/// slices in input order. A slice is either read in place (a scan leaf's
/// TableStore::UnitRows, or a Broadcast's shared batch) or an owned vector
/// held at a stable address, and it may carry a selection: ascending row ids
/// within its vector, of which only those rows belong to the input (a
/// filtered scan's survivors). A Gather hands its sources' slices to segment
/// 0 as they are. Storage slices are valid only until the consuming operator
/// returns (DESIGN.md §15). Owned slices are held by unique_ptr, which makes
/// the type move-only: no copy can keep slice pointers into another
/// object's owned rows.
class InputRows {
 public:
  /// One slice as its consumers read it: the i-th row of the slice is
  /// rows()[id(i)]. Valid while the InputRows is not modified.
  class SliceView {
   public:
    SliceView(const std::vector<Row>* rows, const std::vector<uint32_t>* sel)
        : rows_(rows), sel_(sel) {}

    size_t size() const { return sel_ != nullptr ? sel_->size() : rows_->size(); }
    /// Position in rows() of the slice's i-th row.
    uint32_t id(size_t i) const {
      return sel_ != nullptr ? (*sel_)[i] : static_cast<uint32_t>(i);
    }
    const Row& operator[](size_t i) const { return (*rows_)[id(i)]; }
    /// The vector the ids index, for batch kernels that take (rows, ids).
    const std::vector<Row>& rows() const { return *rows_; }
    /// The selection, or null when every row of rows() belongs to the slice.
    const std::vector<uint32_t>* selection() const { return sel_; }

   private:
    const std::vector<Row>* rows_;
    const std::vector<uint32_t>* sel_;
  };

  InputRows() = default;
  explicit InputRows(std::vector<Row> rows) { AddOwned(std::move(rows)); }

  /// Appends a storage slice, read in place. Empty slices are omitted.
  void AddRef(const std::vector<Row>& rows) {
    if (!rows.empty()) slices_.push_back(Slice{&rows, nullptr, {}});
  }
  /// Appends the rows of a storage slice whose ids `sel` lists (ascending),
  /// read in place. An empty selection is omitted; a full one is dropped.
  void AddSelected(const std::vector<Row>& rows, std::vector<uint32_t> sel) {
    if (sel.size() == rows.size()) return AddRef(rows);
    if (!sel.empty()) slices_.push_back(Slice{&rows, nullptr, std::move(sel)});
  }
  /// Appends an owned slice. Empty slices are omitted.
  void AddOwned(std::vector<Row> rows) {
    if (rows.empty()) return;
    auto owned = std::make_unique<std::vector<Row>>(std::move(rows));
    const std::vector<Row>* ptr = owned.get();
    slices_.push_back(Slice{ptr, std::move(owned), {}});
  }
  /// Appends `other`'s slices after this input's, without copying rows.
  void Append(InputRows other) {
    for (Slice& s : other.slices_) slices_.push_back(std::move(s));
  }

  size_t num_slices() const { return slices_.size(); }
  SliceView slice(size_t i) const { return slices_[i].view(); }

  size_t size() const {
    size_t total = 0;
    for (const Slice& s : slices_) total += s.size();
    return total;
  }

  /// True when the input is exactly one owned vector with no selection,
  /// which Take moves out without touching a row.
  bool IsOneOwnedSlice() const {
    return slices_.size() == 1 && slices_[0].owned != nullptr && slices_[0].sel.empty();
  }

  /// Appends rows [begin, end) of the concatenated input to `out`: owned
  /// rows are moved, rows read in place are copied. Calls on disjoint ranges
  /// may run concurrently (each touches only its own rows).
  void MoveRange(size_t begin, size_t end, std::vector<Row>* out) {
    out->reserve(out->size() + (end - begin));
    size_t first = 0;  // concatenated position of the current slice's row 0
    for (Slice& s : slices_) {
      const size_t n = s.size();
      if (first + n > begin && first < end) {
        const auto lo = static_cast<std::ptrdiff_t>(std::max(begin, first) - first);
        const auto hi = static_cast<std::ptrdiff_t>(std::min(end, first + n) - first);
        if (!s.sel.empty()) {
          for (auto id = s.sel.begin() + lo; id != s.sel.begin() + hi; ++id) {
            if (s.owned != nullptr) {
              out->push_back(std::move((*s.owned)[*id]));
            } else {
              out->push_back((*s.rows)[*id]);
            }
          }
        } else if (s.owned != nullptr) {
          out->insert(out->end(), std::make_move_iterator(s.owned->begin() + lo),
                      std::make_move_iterator(s.owned->begin() + hi));
        } else {
          out->insert(out->end(), s.rows->begin() + lo, s.rows->begin() + hi);
        }
      }
      first += n;
      if (first >= end) break;
    }
  }

  /// The rows as one owned vector, in input order: a single owned slice is
  /// moved out, owned rows are moved, and rows read in place are copied.
  std::vector<Row> Take() && {
    if (IsOneOwnedSlice()) return std::move(*slices_[0].owned);
    std::vector<Row> rows;
    MoveRange(0, size(), &rows);
    return rows;
  }

 private:
  struct Slice {
    const std::vector<Row>* rows;
    /// Set for owned slices; `rows` then points at it.
    std::unique_ptr<std::vector<Row>> owned;
    /// Ascending ids of the rows that belong to the slice; empty means all
    /// of them (a slice with no selected row is never stored).
    std::vector<uint32_t> sel;

    size_t size() const { return sel.empty() ? rows->size() : sel.size(); }
    SliceView view() const { return SliceView(rows, sel.empty() ? nullptr : &sel); }
  };
  std::vector<Slice> slices_;
};

/// Executes physical plans against the simulated MPP cluster.
///
/// Execution model: every plan slice (maximal Motion-free subtree) runs once
/// per segment, operators materialize their outputs (scan leaves hand back
/// storage slices instead; see InputRows), and children execute
/// left to right — so a PartitionSelector placed in children[0] of a join
/// always completes before the DynamicScan in children[1] starts, on the
/// same segment, matching the paper's producer/consumer contract.
///
/// Segments are tasks, not threads (DESIGN.md §10). Each
/// segment's slice chain runs as a sequence of tasks, and Motion nodes act
/// like a real interconnect exchange whose arrival is a counter, not a
/// blocked thread: a segment that reaches a Motion deposits its rows, bumps
/// the arrival count, and — when peers are still outstanding — suspends by
/// unwinding its task, then registering a continuation; the last arriver
/// partitions the rows into per-destination buffers exactly once and resumes
/// every suspended peer as a new task. No task ever blocks on another, so
/// any worker count makes progress. If any segment fails, the executor
/// raises an abort flag and resumes every suspended continuation so it
/// observes the abort; queued-but-unstarted tasks fail their liveness gate.
///
/// Who runs the ready tasks is the only thing Options::workers changes:
///  * 1 worker (the default): the calling thread drains a queue local to the
///    run until every segment has a verdict — no pool, no thread hop.
///  * N > 1 workers (or a scheduler injected via SetScheduler): a shared
///    work-stealing MorselScheduler runs the tasks, and heavy scan loops
///    additionally split into fixed-size chunk-aligned morsels that idle
///    workers steal.
///    Runtime state is concurrency-safe by construction: the propagation hub
///    is segment-scoped (each segment task re-binds its channels' owner at
///    task start — a segment's tasks form a chain, never overlapping, so the
///    single-owner contract holds across thread hops), execution counters
///    accumulate into per-segment ExecStats (plus per-morsel shards merged
///    in range order at each scan's join), and storage writes follow the
///    single-writer DML rule below.
/// Output is worker-count independent: per-segment results are concatenated
/// in segment order, Motion buffers are assembled in source-segment order,
/// and per-morsel outputs land in pre-assigned slots concatenated in range
/// order, so N workers give rows and ExecStats identical to 1 worker.
///
/// Every Motion node must appear once in the plan: Execute rejects a plan
/// that shares a Motion node between parents with kInvalidArgument.
///
/// Simulation conventions (documented deviations from a multi-process MPP):
///  * Gather delivers to segment 0 (standing in for the coordinator).
///  * Values nodes and scans of kReplicated base tables produce rows on
///    segment 0 only; runtime replication is expressed via Broadcast Motion.
///  * Scalar aggregates over empty input emit their single row on segment 0.
///  * DML nodes expect gathered input and apply changes through the global
///    TableStore (which re-routes rows to partitions and segments). Because
///    DML input is gathered, all reads complete at the Gather barrier before
///    any write applies, and only segment 0 carries rows — the single-writer
///    rule that keeps TableStore mutation safe on a pool (guarded by
///    a DML mutex as defense in depth).
///
/// An Executor is reusable across Execute calls — including after a failed
/// execution, which leaves zeroed stats and no stale per-run state — but is
/// not itself thread-safe: run one Execute at a time.
class Executor {
 public:
  struct Options {
    /// Threads that run the segment tasks (see class comment). 1: the
    /// calling thread runs them; 0: a pool of hardware_concurrency workers;
    /// N > 1: a lazily-created pool of N. Any value works — Motion
    /// rendezvous is an arrival counter, not a set of blocked threads, so
    /// there is no minimum. Ignored when a shared scheduler was injected via
    /// SetScheduler.
    int workers = 1;
    /// Rows per scan morsel: on a pool, heavy scan loops split into
    /// fixed-size chunk-aligned morsels that idle workers steal. 0 means
    /// auto (4 storage chunks = 4096 rows). Always rounded up to a whole
    /// number of 1024-row chunks so zone-map chunk skipping never straddles
    /// a morsel boundary; SIZE_MAX saturates to one morsel per slice (each
    /// segment slice still runs as one schedulable task, but scans stay
    /// whole). Output is bit-identical at every value.
    size_t morsel_rows = 0;
    /// Consult chunk zone maps (storage/synopsis.h) to skip chunks and whole
    /// slices a Filter's sargable predicate provably cannot match. Output
    /// rows, ordering, error outcomes,
    /// and the logical ExecStats counters are identical with it off — only
    /// the chunks_* / units_skipped counters (and time spent) change.
    bool data_skipping = true;
    /// Build and consume runtime join filters (runtime/join_filter.h) where
    /// the optimizer placed JoinFilterSpec/JoinFilterProbe annotations:
    /// build sides publish bloom + min/max summaries of their keys through
    /// the propagation hub, probe-side scans reject non-joining rows early
    /// (below Motions, before exchange). Rows, ordering, errors, and every
    /// pre-existing ExecStats field are identical with it off — only the
    /// joinfilter_* counters (and time spent) change. Chunk-level skipping
    /// through the zone maps additionally requires data_skipping.
    bool join_filters = true;
    /// Degrade to out-of-core execution (src/exec/spill_exec.cc) when the
    /// memory budget refuses a mandatory hash-join build table, hash
    /// aggregate group, or sort buffer: the refused state is partitioned by
    /// a secondary hash into on-disk spill files (recursively, with a fresh
    /// salt per depth) or sorted in budget-sized runs and merged. The budget
    /// becomes the spill trigger instead of the failure point. Output rows
    /// are bit-identical to the in-memory path; only the spill_* /
    /// sort_runs counters move. Off: refused mandatory charges surface
    /// kResourceExhausted exactly as before. Motion buffers and top-N heaps
    /// never spill, so their charges stay mandatory either way.
    bool spill = true;
  };

  Executor(const Catalog* catalog, StorageEngine* storage);
  Executor(const Catalog* catalog, StorageEngine* storage, Options options);
  ~Executor();

  /// Runs the plan and returns the concatenated root output (for plans with
  /// a Gather root this is exactly the coordinator's result).
  Result<std::vector<Row>> Execute(const PhysPtr& plan);

  /// Same, under a QueryContext: cooperative cancellation, deadline, memory
  /// budget, and fault injection (see runtime/query_context.h). `ctx` may be
  /// null (a shared unlimited default is used) and must outlive the call.
  /// Cancellation or deadline expiry terminates the run within one batch
  /// with kCancelled / kDeadlineExceeded: every worker joins, every Motion
  /// barrier wakes, hub channels and exchanges are drained by the usual
  /// end-of-run reset, and storage is untouched (DML liveness is re-checked
  /// after the read phase, before any write applies). Budget usage is
  /// per-execution: ResetUsage runs at the start of every call.
  Result<std::vector<Row>> Execute(const PhysPtr& plan, QueryContext* ctx);

  /// Stats of the most recent Execute call (zeroed if it failed).
  const ExecStats& stats() const { return stats_; }

  const Options& options() const { return options_; }

  /// Points runs at an externally-owned scheduler instead of the calling
  /// thread or a private lazily-created pool — Database uses this to share
  /// one pool across every statement. `scheduler` must outlive the
  /// executor; null reverts to Options::workers. Call only between Execute
  /// calls.
  void SetScheduler(MorselScheduler* scheduler);

  /// Thread count implied by an Options::workers value: the value itself
  /// when positive, otherwise hardware_concurrency (min 1).
  static int ResolveWorkerCount(int workers);

  /// The join-filter stop rule (DESIGN.md §8). A fused scan with bound join
  /// filters probes its first kJoinFilterPrefixRows probe rows on a segment
  /// (predicate survivors, in slice order) in the segment's own task, with
  /// a tally per filter; the prefix ends early once the scan has evaluated
  /// kJoinFilterPrefixScanRows rows. A filter that rejected less than
  /// kJoinFilterStopFraction of the prefix rows it probed stops probing for
  /// the rest of the scan; one that probed none keeps probing. The prefix is
  /// counted in rows, not in morsels or tasks, so the decision depends
  /// neither on the worker count nor on Options::morsel_rows.
  static constexpr size_t kJoinFilterPrefixRows = 64;
  static constexpr size_t kJoinFilterPrefixScanRows = 4096;
  static constexpr double kJoinFilterStopFraction = 0.2;

 private:
  /// Per-Motion-node exchange state: deposited source rows, the rendezvous
  /// barrier, and the per-destination buffers built exactly once.
  struct MotionExchange;

  /// Runs one task per segment (plus one continuation per Motion
  /// suspension) until every segment has a verdict, then concatenates the
  /// segment outputs in segment order.
  Result<std::vector<Row>> RunSegments(const PhysPtr& plan);

  /// Completion state of one run: per-segment verdicts, the count of
  /// finished segments, and — when no scheduler exists — the queue of ready
  /// segment tasks the calling thread drains. The Execute thread waits on it
  /// (the only blocking wait — segment tasks never block).
  struct ParallelRun;

  /// Per-segment memo for the suspension/re-walk protocol (see DESIGN.md
  /// §10): results of subtrees that completed before a suspension unwound
  /// the stack, nodes whose (discarded or consumed) execution must not
  /// repeat, and one-shot side effects already performed. Touched only by
  /// the segment's own task chain — no locks.
  struct SegmentRunState {
    /// Completed-child results cached across a suspension; consumed (moved
    /// out and erased) by the first re-visit, which returns them as they
    /// were parked. A storage slice read in place is therefore neither
    /// re-scanned, re-counted nor copied by the re-walk.
    std::unordered_map<const PhysicalNode*, InputRows> cache;
    /// Nodes that completed and whose output is discardable (Sequence
    /// prefixes); re-visits return {} without executing.
    std::unordered_set<const PhysicalNode*> done;
    /// One-shot effects (hash-join budget charge + join-filter publication)
    /// already performed before a later suspension.
    std::unordered_set<const PhysicalNode*> effects_done;
    /// Hash joins whose build-table charge was refused (spill decided)
    /// before the probe child ran. The decision is recorded here — not in a
    /// local — because a probe-side Motion suspension unwinds the stack and
    /// the re-walk must spill regardless of what the budget says by then.
    /// Consumed (erased) once the probe child completes.
    std::unordered_set<const PhysicalNode*> spill_decided;
    /// The exchange the walk suspended at. The segment task registers its
    /// continuation there only after the walk has fully unwound, so no
    /// re-walk can start while the entries above are still being written.
    MotionExchange* suspended_at = nullptr;
  };

  /// Points scheduler_ at the pool the run's tasks go to: the injected one,
  /// or a lazily-created private pool when Options::workers resolves above
  /// 1. Leaves it null at 1 worker (the calling thread runs the tasks).
  void EnsureScheduler();

  /// Makes `segment`'s next task runnable: submits it to the scheduler, or
  /// pushes it onto the run's ready queue under ParallelRun::mu when there
  /// is none. Safe from any thread (SignalAbort may call it from a cancel
  /// callback).
  void ResumeSegment(int segment);

  /// The body of one segment task: binds the hub owner, runs the segment's
  /// plan walk, and either records the verdict in run_ (scheduling no
  /// further work) or — when the walk suspended at a Motion — registers the
  /// continuation on that exchange (or resubmits it, if the exchange was
  /// built meanwhile) and returns.
  void RunSegmentTask(int segment);

  /// Morsel body: process rows [begin, end) of one storage slice into `out`
  /// (rows, or the ids of the rows it keeps), accumulating into `stats`.
  /// Ranges are chunk-aligned at both ends (except end == row_count).
  template <typename T>
  using MorselBody =
      std::function<Status(size_t begin, size_t end, ExecStats* stats,
                           std::vector<T>* out)>;

  /// Runs `body` over [0, row_count): inline when morsels are ineligible
  /// (no pool, single worker, or a slice no larger than one morsel),
  /// otherwise split into chunk-aligned morsels of `morsel_rows` (0 means
  /// MorselRows()) spawned on a TaskGroup. Per-morsel rows land in
  /// pre-assigned slots appended to `out` in range order and per-morsel
  /// stats merge in range order, so output and stats are bit-identical to
  /// the inline run; on error the lowest range's status is returned (the
  /// inline loop's first error).
  template <typename T>
  Status RunMorselScan(int segment, size_t row_count,
                       const std::type_identity_t<MorselBody<T>>& body,
                       std::vector<T>* out, size_t morsel_rows = 0);

  /// Effective rows-per-morsel: Options::morsel_rows (0 = 4 chunks) rounded
  /// up to a whole number of storage chunks, saturating at the largest
  /// chunk-aligned size_t (one morsel per slice).
  size_t MorselRows() const;

  /// Registers an exchange for every Motion node in the plan. Fails with
  /// kInvalidArgument naming the node if a Motion node object appears more
  /// than once (a shared subtree): an exchange is built exactly once per
  /// run, so a second parent could never read it.
  Status CollectMotions(const PhysPtr& node);

  /// Routes per-source rows into the exchange's per-destination buffers
  /// according to the Motion kind, in source-segment order (determinism).
  /// Gather appends every source's slices to segment 0's buffer without
  /// touching a row; Broadcast materializes the batch once in the exchange's
  /// shared buffer instead of once per destination. Also publishes any
  /// JoinFilterSpec the optimizer attached to this Motion (the cross-segment
  /// merged summary), before `built` is announced, so consumers blocked on
  /// the rendezvous observe it. `segment` is the building segment (stats
  /// attribution).
  Status BuildMotionBuffers(const MotionNode& node, int segment,
                            std::vector<InputRows> source_rows,
                            MotionExchange* exchange);

  /// Reads `segment`'s output of a built exchange: the shared broadcast
  /// buffer by reference (every destination reads it), per-destination
  /// buffers moved out (each has exactly one reader).
  InputRows ReadMotionBuffer(const MotionNode& node, MotionExchange& exchange,
                             int segment);

  /// Marks the current run failed and resumes every continuation suspended
  /// at a Motion exchange, so each observes the abort and records its
  /// verdict instead of waiting for peers that will never arrive. Safe from
  /// any thread, including a QueryContext cancel callback: exchanges_ is
  /// immutable while the callback is registered.
  void SignalAbort();

  /// The batch-granularity liveness + fault check, called at operator
  /// dispatch and once per chunk/batch inside the hot loops: kCancelled /
  /// kDeadlineExceeded from the context, the peer-abort status when another
  /// segment failed, or the armed fault at `point` (null = no fault point
  /// here). Fault-free cost: three predictable loads.
  Status CheckExec(int segment, const char* point);

  /// Charges `bytes` of mandatory operator state (build tables, sort
  /// buffers, motion buffers) against the query budget, first passing
  /// through the alloc.budget fault point. Refused charges fail the query
  /// with kResourceExhausted naming `what`.
  Status ChargeBudget(int segment, size_t bytes, const char* what);

  /// Charges advisory state (join-filter summaries, synopsis rebuilds);
  /// false means the caller must shed the allocation instead of failing.
  bool TryChargeOptional(size_t bytes);

  /// Attempts a mandatory charge the caller can satisfy out-of-core
  /// instead: passes through the alloc.budget fault point (an armed fault
  /// there still fails the query), then reports whether the budget accepted
  /// the bytes. A refusal is not an error — it is the spill trigger.
  Result<bool> TryChargeSpill(int segment, size_t bytes);

  /// A mandatory charge for state that can spill (hash join build table,
  /// hash aggregate group, sort buffer): TryChargeSpill when Options::spill
  /// is on, ChargeBudget (failing with kResourceExhausted naming `what`)
  /// otherwise. False only when spilling is on and the budget refused.
  Result<bool> ChargeOrSpill(int segment, size_t bytes, const char* what);

  /// Lazily creates the per-run spill file manager rooted at the context's
  /// spill_dir. Thread-safe (segments on a pool may spill concurrently); the
  /// manager — and with it every spill file — is destroyed by Execute's
  /// end-of-run teardown on success, cancellation, deadline expiry, fault,
  /// and retry alike.
  Result<SpillFileManager*> EnsureSpillManager();

  // --- Out-of-core operators (src/exec/spill_exec.cc) -----------------------
  // Entered when TryChargeSpill refuses the corresponding in-memory state.
  // Row-oriented implementations. Each reproduces its in-memory operator's
  // output order exactly; see the file comment in spill_exec.cc for the
  // order-restoration argument.

  /// Hybrid hash join fallback: partitions both inputs by a salted
  /// secondary hash into spill file pairs, recursively re-partitions
  /// overfull partitions (bounded depth, then a block-streaming fallback
  /// that never materializes the partition), joins each partition with the
  /// oracle's hash-table code, and restores global probe order.
  Result<std::vector<Row>> SpillHashJoin(const HashJoinNode& node, int segment,
                                         std::vector<Row> build_rows,
                                         std::vector<Row> probe_rows,
                                         const ColumnLayout& build_layout,
                                         const ColumnLayout& probe_layout,
                                         const std::vector<int>& build_pos,
                                         const std::vector<int>& probe_pos);

  /// Hash aggregation fallback: partitions the input by a salted group-key
  /// hash, aggregates each partition in memory when it fits (streaming with
  /// per-group charges at max depth), and restores the oracle's
  /// first-appearance group order via first-arrival input indexes.
  Result<std::vector<Row>> SpillHashAgg(const HashAggNode& node, int segment,
                                        const std::vector<Row>& rows,
                                        const ColumnLayout& layout,
                                        const std::vector<int>& group_pos);

  /// External merge sort fallback: budget-sized sorted runs spilled to
  /// disk, then a k-way merge with budget-aware read-back buffers. Run
  /// boundaries are contiguous input slices and equal keys break ties by
  /// run index, so the merge reproduces the oracle's stable sort exactly.
  Result<std::vector<Row>> SpillSortRows(const SortNode& node, int segment,
                                         std::vector<Row> rows,
                                         const std::vector<int>& positions,
                                         const std::vector<bool>& ascending,
                                         size_t sort_bytes);

  /// Budget-aware synopsis access for scans: returns the slice synopsis,
  /// charging a rebuild estimate when in-place DML staled it. A refused
  /// rebuild charge sheds the synopsis (returns nullptr, counted in
  /// synopsis_rebuilds_shed) and the scan proceeds unskipped.
  const SliceSynopsis* AcquireSynopsis(const TableStore& store, Oid unit_oid,
                                       int segment);

  /// Budget-aware encoded-column access for scans of column-oriented units:
  /// returns the slice's encoded image, charging a re-encode estimate when
  /// DML staled it. Returns nullptr for row-oriented units, or when the
  /// charge was refused (counted in colstore_rebuilds_shed) — the scan then
  /// runs off the row image as usual.
  const SliceColumns* AcquireColumns(const TableStore& store, Oid unit_oid,
                                     int segment);

  /// Runs `node` on `segment`. Scan leaves hand back storage slices read in
  /// place (ExecScan), a Filter over a scan fragment the storage slices
  /// with a selection of its survivors (ExecFusedFilterScan), a
  /// PartitionSelector its child's input, Sequence its last child's input,
  /// Append its children's slices concatenated, and Motion what its
  /// exchange routed to `segment` (ExecMotion); every other operator's
  /// output is one owned slice. A result parked in the suspension memo is
  /// returned as is.
  Result<InputRows> ExecNode(const PhysPtr& node, int segment);
  /// ExecNode's output as an owned vector, for operators that move, reorder
  /// or store their input rows. One owned slice is moved out; otherwise the
  /// rows are copied (owned ones moved) in morsels through RunMorselScan, at
  /// least one per worker, so on a pool the copy runs in parallel even when
  /// scans keep whole slices.
  Result<std::vector<Row>> ExecOwned(const PhysPtr& node, int segment);

  /// A JoinFilterProbe resolved against a consumer's output layout, with the
  /// published summary in hand. Bound once per operator execution.
  struct BoundJoinFilter {
    const JoinFilterSummary* summary;
    std::vector<int> key_positions;
    /// Consumer sits below a probe-side Motion: every rejected row (or
    /// skipped chunk row) is compensated into rows_moved — which stays
    /// logical — and credited to joinfilter_motion_rows_saved.
    bool below_motion;
  };

  /// Resolves the node's JoinFilterProbe annotations against `layout`,
  /// looking the summaries up in the hub (segment-local or global). Probes
  /// whose summary was never published are silently dropped — the filter is
  /// advisory. Empty when Options::join_filters is off.
  Result<std::vector<BoundJoinFilter>> BindJoinFilterProbes(
      const PhysicalNode& node, const ColumnLayout& layout, int segment);

  /// Publishes the segment-local build-key summaries a hash join's
  /// JoinFilterSpec annotations describe, from the resolved build input.
  /// Must run after the build child and before the probe child, so
  /// probe-side consumers on the same slice thread can find them.
  Status PublishLocalJoinFilters(const PhysicalNode& node,
                                 const ColumnLayout& build_layout,
                                 const InputRows& build, int segment);

  /// TableScan, DynamicScan and CheckedPartScan: walks the leaf's storage
  /// units through ForEachScanUnit. A leaf with bound join-filter probes runs
  /// as the fused filter-over-scan with no predicate (its survivors handed on
  /// as selections); a rowid leaf (DML
  /// plans) copies every row with its rowid columns appended. Every other
  /// leaf adds each unit as a storage slice read in place, with the
  /// storage.scan_chunk check run once per chunk.
  Result<InputRows> ExecScan(const PhysicalNode& node, int segment);
  /// Partition-aware index access over the units ForEachScanUnit admits; the
  /// residual and join filters run through FilterBatch over each unit's
  /// candidates. The admitted units' stored rows split into morsels
  /// (RunMorselScan); each morsel seeks the units whose first row it holds.
  Result<std::vector<Row>> ExecDynamicIndexScan(const DynamicIndexScanNode& node,
                                                int segment);
  /// Pushes the selected partition oids into the scan's channel and returns
  /// its child's input unchanged (none for a static selector).
  Result<InputRows> ExecPartitionSelector(const PartitionSelectorNode& node,
                                          int segment);
  Result<std::vector<Row>> ExecNestedLoopJoin(const NestedLoopJoinNode& node,
                                              int segment);
  Result<std::vector<Row>> ExecIndexNLJoin(const IndexNLJoinNode& node, int segment);
  Result<std::vector<Row>> ExecSort(const SortNode& node, int segment);
  /// Bounded top-N: keeps the k rows a stable sort by `keys` would rank
  /// first, in that order — output is bit-identical to Limit(k) over
  /// Sort(keys) — holding at most k rows of sort state (O(k) budget charge).
  Result<std::vector<Row>> ExecTopN(const TopNNode& node, int segment);
  /// One segment's side of an exchange: deposits the child's output, then
  /// returns what the exchange routed to `segment`. Gather deposits the
  /// child's slices as they are and segment 0 receives their concatenation
  /// in source-segment order; Broadcast and Redistribute take ownership at
  /// deposit, and every Broadcast destination reads the one shared batch in
  /// place.
  Result<InputRows> ExecMotion(const MotionNode& node, int segment);
  Result<std::vector<Row>> ExecInsert(const InsertNode& node, int segment);
  Result<std::vector<Row>> ExecUpdate(const UpdateNode& node, int segment);
  Result<std::vector<Row>> ExecDelete(const DeleteNode& node, int segment);

  // --- Batch-kernel operators (src/exec/vectorized.cc) ----------------------

  /// A Motion-free scan subtree a Filter can fuse with: optional Sequence
  /// prefixes (PartitionSelectors) followed by TableScan/DynamicScan/
  /// CheckedPartScan leaves, possibly under an Append. ExecScan and
  /// ExecDynamicIndexScan walk a one-leaf fragment.
  struct ScanFragment {
    /// Sequence prefix children (PartitionSelectors feeding DynamicScans),
    /// executed in order for their side effects before any scanning; their
    /// outputs are discarded, exactly as SequenceNode does.
    std::vector<PhysPtr> prefix;
    /// The scan leaves, in the order the unfused plan would scan them.
    std::vector<const PhysicalNode*> scans;
  };

  /// Matches `node` against the fusable scan-fragment grammar. Returns false
  /// for shapes the fused path does not cover (`out` may be partially
  /// filled and must only be used on success).
  static bool MatchScanFragment(const PhysPtr& node, ScanFragment* out);

  /// Executes the fragment's Sequence prefixes in order, discarding their
  /// outputs. On a Motion suspension it marks the completed prefixes done,
  /// so the re-walk skips their side-effecting subtrees (see kSequence).
  Status RunFragmentPrefix(const ScanFragment& frag, int segment);

  /// A storage-unit visitor: `rows` is the unit's slice on the segment.
  using ScanUnitFn = std::function<Status(const TableStore& store, Oid unit_oid,
                                          const std::vector<Row>& rows)>;

  /// Runs `fn` for every storage unit the fragment's scan leaves cover on
  /// `segment`, after recording the unit in the logical scan stats
  /// (partitions_scanned, tuples_scanned). The only copy of each leaf kind's
  /// gating: replicated tables scan on segment 0 only, CheckedPartScan
  /// checks membership, DynamicScan and DynamicIndexScan check that their
  /// propagation channel exists and that every selected oid is a unit of the
  /// table (a DynamicIndexScan with scan id -1 visits every unit, with no
  /// channel). The Sequence prefixes must already have been executed.
  Status ForEachScanUnit(const ScanFragment& frag, int segment, const ScanUnitFn& fn);

  /// Rows one join filter probed and rejected, for the stop rule.
  struct JoinFilterTally {
    size_t probed = 0;
    size_t rejected = 0;
  };

  /// Scratch of one batch loop's probes and filter steps, reused across
  /// batches so steady-state batches allocate nothing.
  struct FilterScratch {
    std::vector<uint32_t> sel;
    /// One key-hash column per bound join filter.
    std::vector<std::vector<uint64_t>> hashes;
  };

  /// Join-filter probe over a selection: hashes each bound filter's key
  /// columns over the selected rows in one batch pass, then tests every row
  /// and compacts the survivors into `sel` in place. Counters go to `stats`
  /// (a morsel-local shard inside morsel scans, the segment accumulator
  /// elsewhere); `tally`, when not null, holds one entry per filter.
  void ProbeJoinFilters(const std::vector<Row>& rows,
                        const std::vector<BoundJoinFilter>& filters,
                        ExecStats* stats, std::vector<uint32_t>* sel,
                        FilterScratch* scratch, JoinFilterTally* tally = nullptr);

  /// The batch step of every row-dropping operator (Filter, the fused
  /// filter-over-scan, the index scan's residual): evaluates `program` (null:
  /// no predicate, every row passes) over rows [base, end), then probes the
  /// join filters with the survivors, which are left in `keep`.
  Status FilterBatch(const KernelProgram* program, KernelContext* ctx,
                     const std::vector<Row>& rows, size_t base, size_t end,
                     const std::vector<BoundJoinFilter>& join_filters,
                     ExecStats* stats, FilterScratch* scratch,
                     std::vector<uint32_t>* keep);

  /// Filter. Over a scan fragment it fuses with the scan
  /// (ExecFusedFilterScan); otherwise it evaluates the predicate kernel over
  /// the child's rows.
  Result<InputRows> ExecFilter(const FilterNode& node, int segment);
  /// Fused filter-over-scan: evaluates `filter`'s predicate in chunks
  /// directly over TableStore::UnitRows slices via a selection vector,
  /// skipping chunks and whole slices by zone map (Options::data_skipping)
  /// and evaluating the compilable prefix on encoded column chunks of
  /// column-oriented units, then probes `join_filters` under the stop rule
  /// (kJoinFilterPrefixRows). No row is copied: each unit's survivors are
  /// handed on as a selection over its storage slice. `layout` is the
  /// fragment's output layout. A null `filter` is a scan leaf with bound
  /// probes: every row passes the predicate, so a chunk the build key range
  /// proves disjoint is skipped for below-Motion probes too. The Sequence
  /// prefixes must already have been executed.
  Result<InputRows> ExecFusedFilterScan(
      const FilterNode* filter, const ScanFragment& frag, const ColumnLayout& layout,
      const std::vector<BoundJoinFilter>& join_filters, int segment);
  // Project, HashJoin and HashAgg read ExecNode's slices, selections
  // included, without taking them: storage slices stay in place, and rows are
  // copied only into output rows or into a spill fallback.
  Result<std::vector<Row>> ExecProject(const ProjectNode& node, int segment);
  Result<std::vector<Row>> ExecHashJoin(const HashJoinNode& node, int segment);
  Result<std::vector<Row>> ExecHashAgg(const HashAggNode& node, int segment);

  const Catalog* catalog_;
  StorageEngine* storage_;
  int num_segments_;
  Options options_;
  PartitionPropagationHub hub_;
  /// Merged stats of the last successful Execute.
  ExecStats stats_;
  /// Per-segment accumulators for the run in progress; each is written only
  /// by the thread executing that segment's slices.
  std::vector<ExecStats> seg_stats_;
  /// Exchange state per Motion node, pre-built for the run in progress and
  /// immutable (as a map) until the run ends, so tasks and SignalAbort read
  /// it lock-free.
  std::unordered_map<const PhysicalNode*, std::unique_ptr<MotionExchange>> exchanges_;
  std::atomic<bool> abort_flag_{false};
  /// Context of the run in progress; never null while executing (a shared
  /// unlimited default stands in when the caller passed none).
  QueryContext* ctx_ = nullptr;
  /// Spill file manager of the run in progress; null until the first spill.
  /// Reset (removing the per-query spill directory and every file in it) by
  /// Execute's end-of-run teardown on every outcome.
  std::unique_ptr<SpillFileManager> spill_files_;
  /// Guards lazy creation of spill_files_ from concurrent segment tasks.
  std::mutex spill_mu_;
  /// Defense in depth for the single-writer DML rule (see class comment).
  std::mutex dml_mu_;
  /// The pool runs schedule onto: an injected shared scheduler
  /// (SetScheduler), the lazily-created private one below, or null — the
  /// calling thread runs every task.
  MorselScheduler* scheduler_ = nullptr;
  std::unique_ptr<MorselScheduler> owned_scheduler_;
  /// Per-segment suspension memos for the run in progress.
  std::vector<SegmentRunState> seg_run_;
  /// Completion state of the run in progress (owned by RunSegments' frame);
  /// null otherwise. Segment tasks record their verdicts here.
  ParallelRun* run_ = nullptr;
  /// Root of the plan being run; continuations re-enter through it.
  const PhysPtr* current_plan_ = nullptr;
};

}  // namespace mppdb

#endif  // MPPDB_EXEC_EXECUTOR_H_
