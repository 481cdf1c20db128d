// Batch-kernel operators: Filter (fused with the scan below it when the
// child is a scan fragment), Project, HashJoin and HashAgg evaluate their
// expressions chunk-at-a-time through compiled kernel programs
// (expr/vector_eval.h) over selection vectors. Results are independent of
// chunking, morsel splits and parallelism. When several rows of a batch
// would each raise an error, which of those errors surfaces is unspecified
// (column-major evaluation), but whether the query fails is not (see
// DESIGN.md §6).
//
// Also home of the scan-fragment grammar: MatchScanFragment, which the fused
// filter-over-scan matches, and ForEachScanUnit, the one walk over the
// storage units a fragment's scan leaves cover (ExecScan and
// ExecDynamicIndexScan walk a one-leaf fragment). The fused scan hands its
// survivors on as selections over the storage slices, and Project, HashJoin
// and HashAgg read their input's slices, selections included, without taking
// them, so storage rows stay in place and are copied only when emitted (or
// handed to a spill fallback).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "exec/agg_state.h"
#include "exec/executor.h"
#include "exec/join_hash.h"
#include "expr/encoded_eval.h"
#include "expr/sargable.h"
#include "expr/vector_eval.h"
#include "runtime/spill/row_codec.h"

namespace mppdb {

namespace {

/// Batch key-hash pass over one input slice: the CombineKeyHash of
/// `positions` for every row, plus a has-null flag (NULL keys never join).
/// One tight loop, no per-row datum copies.
void HashRowKeys(const InputRows::SliceView& rows, const std::vector<int>& positions,
                 std::vector<uint64_t>* hashes, std::vector<uint8_t>* has_null) {
  hashes->resize(rows.size());
  has_null->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    uint64_t h = kKeyHashSeed;
    uint8_t null_flag = 0;
    for (int pos : positions) {
      const Datum& v = row[static_cast<size_t>(pos)];
      null_flag = static_cast<uint8_t>(null_flag | (v.is_null() ? 1 : 0));
      h = CombineKeyHash(h, v);
    }
    (*hashes)[i] = h;
    (*has_null)[i] = null_flag;
  }
}

/// Fills `sel` with the identity selection [base, end).
void IdentitySel(size_t base, size_t end, SelVec* sel) {
  sel->clear();
  for (size_t i = base; i < end; ++i) sel->push_back(static_cast<uint32_t>(i));
}

/// Batch key-hash kernel for the join-filter probe and HashAgg's group ids:
/// the CombineKeyHash fold of the key columns for every row in `sel` (same
/// formula as HashRowKeys and as the summary's own key hash).
void HashKeysForSel(const std::vector<Row>& rows, const SelVec& sel,
                    const std::vector<int>& positions,
                    std::vector<uint64_t>* hashes) {
  hashes->resize(sel.size());
  for (size_t i = 0; i < sel.size(); ++i) {
    const Row& row = rows[sel[i]];
    uint64_t h = kKeyHashSeed;
    for (int pos : positions) h = CombineKeyHash(h, row[static_cast<size_t>(pos)]);
    (*hashes)[i] = h;
  }
}

/// Walks an operator input in kernel batches: runs of a slice's rows, cut at
/// slice boundaries and at every kDefaultChunkRows-th row of the
/// concatenated input (selected rows are what counts). A batch that starts on
/// that grid is where a chunk loop over the concatenated rows would start a
/// chunk, so consumers run their exec.batch check exactly there: the same
/// checks at the same rows whether the input is owned, read in place or
/// selected. An owned input yields exactly that chunk loop's batches. A
/// selected batch is also cut where its ids would span a chunk, since
/// kernels index a batch's scratch by id - base().
class InputBatches {
 public:
  explicit InputBatches(const InputRows& input) : input_(input) {}

  /// Advances to the next non-empty batch; false once the input is done.
  bool Next() {
    for (; slice_ < input_.num_slices(); ++slice_, pos_ = 0) {
      const InputRows::SliceView slice = input_.slice(slice_);
      if (pos_ == slice.size()) continue;
      constexpr size_t kChunk = KernelContext::kDefaultChunkRows;
      grid_start_ = offset_ % kChunk == 0;
      size_t end = std::min(slice.size(), pos_ + (kChunk - offset_ % kChunk));
      rows_ = &slice.rows();
      base_ = slice.id(pos_);
      if (const std::vector<uint32_t>* ids = slice.selection()) {
        end = static_cast<size_t>(
            std::lower_bound(ids->begin() + static_cast<std::ptrdiff_t>(pos_),
                             ids->begin() + static_cast<std::ptrdiff_t>(end),
                             base_ + kChunk) -
            ids->begin());
        sel_.assign(ids->begin() + static_cast<std::ptrdiff_t>(pos_),
                    ids->begin() + static_cast<std::ptrdiff_t>(end));
      } else {
        IdentitySel(pos_, end, &sel_);
      }
      offset_ += end - pos_;
      pos_ = end;
      return true;
    }
    return false;
  }

  /// The slice's backing rows; the batch is rows()[sel()[i]].
  const std::vector<Row>& rows() const { return *rows_; }
  /// The batch's row ids, ascending, within [base(), base() + chunk).
  const SelVec& sel() const { return sel_; }
  size_t base() const { return base_; }
  bool grid_start() const { return grid_start_; }

 private:
  const InputRows& input_;
  size_t slice_ = 0;
  /// Position within the current slice's selected rows.
  size_t pos_ = 0;
  const std::vector<Row>* rows_ = nullptr;
  SelVec sel_;
  size_t base_ = 0;
  /// Rows of the concatenated input consumed so far.
  size_t offset_ = 0;
  bool grid_start_ = false;
};

/// HashAgg's group index: a power-of-two table of group ids, probed
/// linearly and doubled at half full. A group's stored key hash rejects
/// almost every collision before its JoinKey is compared.
class GroupIndex {
 public:
  static constexpr uint32_t kNoGroup = UINT32_MAX;

  /// The group of `row`'s key at `positions`, or kNoGroup with `*slot` set
  /// to where Insert places it.
  uint32_t Find(const Row& row, const std::vector<int>& positions, uint64_t hash,
                size_t* slot) const {
    for (*slot = Home(hash);; *slot = (*slot + 1) & (slots_.size() - 1)) {
      const uint32_t g = slots_[*slot];
      if (g == kNoGroup || (hashes_[g] == hash && SameKey(row, positions, keys_[g]))) {
        return g;
      }
    }
  }

  /// Adds a group at the `slot` Find returned; returns its id.
  uint32_t Insert(size_t slot, uint64_t hash, JoinKey key) {
    slots_[slot] = static_cast<uint32_t>(keys_.size());
    hashes_.push_back(hash);
    keys_.push_back(std::move(key));
    if (2 * keys_.size() > slots_.size()) {
      slots_.assign(2 * slots_.size(), kNoGroup);
      for (uint32_t g = 0; g < keys_.size(); ++g) {
        size_t s = Home(hashes_[g]);
        while (slots_[s] != kNoGroup) s = (s + 1) & (slots_.size() - 1);
        slots_[s] = g;
      }
    }
    return static_cast<uint32_t>(keys_.size() - 1);
  }

  /// The group keys in id (first-appearance) order.
  std::vector<JoinKey>& keys() { return keys_; }

 private:
  /// JoinKey::operator== of the row's key and `key`, BIGINT pairs inline.
  static bool SameKey(const Row& row, const std::vector<int>& positions,
                      const JoinKey& key) {
    for (size_t i = 0; i < positions.size(); ++i) {
      const Datum& a = row[static_cast<size_t>(positions[i])];
      const Datum& b = key.values[i];
      const bool bigints = a.type() == TypeId::kInt64 && b.type() == TypeId::kInt64 &&
                           !a.is_null() && !b.is_null();
      if (bigints ? a.int64_value() != b.int64_value() : Datum::Compare(a, b) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Fibonacci hashing: the top bits of the scrambled hash.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >>
                               (64 - std::countr_zero(slots_.size())));
  }

  std::vector<uint32_t> slots_ = std::vector<uint32_t>(16, kNoGroup);
  std::vector<uint64_t> hashes_;
  std::vector<JoinKey> keys_;
};

}  // namespace

void Executor::ProbeJoinFilters(const std::vector<Row>& rows,
                                const std::vector<BoundJoinFilter>& filters,
                                ExecStats* stats_out, std::vector<uint32_t>* sel,
                                FilterScratch* scratch, JoinFilterTally* tally) {
  if (filters.empty() || sel->empty()) return;
  ExecStats& stats = *stats_out;
  std::vector<std::vector<uint64_t>>& hashes = scratch->hashes;
  if (hashes.size() < filters.size()) hashes.resize(filters.size());
  for (size_t f = 0; f < filters.size(); ++f) {
    HashKeysForSel(rows, *sel, filters[f].key_positions, &hashes[f]);
  }
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    const uint32_t r = (*sel)[i];
    ++stats.joinfilter_probed;
    // Rejection is attributed to the first rejecting filter, which alone
    // decides the below-Motion rows_moved compensation.
    const BoundJoinFilter* rejecter = nullptr;
    for (size_t f = 0; f < filters.size(); ++f) {
      if (tally != nullptr) ++tally[f].probed;
      if (!filters[f].summary->RowMayMatchHashed(rows[r], filters[f].key_positions,
                                                 hashes[f][i])) {
        if (tally != nullptr) ++tally[f].rejected;
        rejecter = &filters[f];
        break;
      }
    }
    if (rejecter == nullptr) {
      (*sel)[kept++] = r;
      continue;
    }
    ++stats.joinfilter_rows_rejected;
    if (rejecter->below_motion) {
      ++stats.rows_moved;  // rows_moved stays logical
      ++stats.joinfilter_motion_rows_saved;
    }
  }
  sel->resize(kept);
}

bool Executor::MatchScanFragment(const PhysPtr& node, ScanFragment* out) {
  switch (node->kind()) {
    case PhysNodeKind::kTableScan:
      // Rowid-emitting scans synthesize extra columns per row; they stay
      // unfused (DML plans, not hot scans).
      if (!static_cast<const TableScanNode&>(*node).rowid_ids().empty()) return false;
      out->scans.push_back(node.get());
      return true;
    case PhysNodeKind::kDynamicScan:
      if (!static_cast<const DynamicScanNode&>(*node).rowid_ids().empty()) return false;
      out->scans.push_back(node.get());
      return true;
    case PhysNodeKind::kCheckedPartScan:
      out->scans.push_back(node.get());
      return true;
    case PhysNodeKind::kSequence: {
      if (node->children().empty()) return false;
      for (size_t i = 0; i + 1 < node->children().size(); ++i) {
        out->prefix.push_back(node->child(i));
      }
      return MatchScanFragment(node->children().back(), out);
    }
    case PhysNodeKind::kAppend: {
      for (const PhysPtr& child : node->children()) {
        if (!MatchScanFragment(child, out)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

// The synopsis chunk grid must coincide with the kernel batch grid, so the
// fused filter-over-scan can skip per batch without re-chunking.
static_assert(TableStore::kChunkRows == KernelContext::kDefaultChunkRows,
              "storage chunk size must match the kernel batch size");

Status Executor::ForEachScanUnit(const ScanFragment& frag, int segment,
                                 const ScanUnitFn& fn) {
  ExecStats& seg_stats = seg_stats_[static_cast<size_t>(segment)];
  // Logical accounting: the unit counts as scanned whatever the visitor
  // skips or rejects (zone maps, join filters).
  auto visit = [&](const TableStore& store, Oid table_oid, Oid unit_oid) {
    const std::vector<Row>& rows = store.UnitRows(unit_oid, segment);
    seg_stats.partitions_scanned[table_oid].insert(unit_oid);
    seg_stats.tuples_scanned += rows.size();
    return fn(store, unit_oid, rows);
  };
  for (const PhysicalNode* scan : frag.scans) {
    switch (scan->kind()) {
      case PhysNodeKind::kTableScan: {
        const auto& ts = static_cast<const TableScanNode&>(*scan);
        const TableStore* store = storage_->GetStore(ts.table_oid());
        if (store == nullptr) {
          return Status::ExecutionError("no storage for table oid " +
                                        std::to_string(ts.table_oid()));
        }
        // Replicated base tables produce rows on one segment only.
        if (store->descriptor().distribution == TableDistribution::kReplicated &&
            segment != 0) {
          break;
        }
        MPPDB_RETURN_IF_ERROR(visit(*store, ts.table_oid(), ts.unit_oid()));
        break;
      }
      case PhysNodeKind::kCheckedPartScan: {
        const auto& cs = static_cast<const CheckedPartScanNode&>(*scan);
        const TableStore* store = storage_->GetStore(cs.table_oid());
        if (store == nullptr) {
          return Status::ExecutionError("no storage for table oid " +
                                        std::to_string(cs.table_oid()));
        }
        if (!hub_.HasChannel(segment, cs.scan_id())) {
          return Status::ExecutionError(
              "CheckedPartScan: no partition parameter for scan id " +
              std::to_string(cs.scan_id()));
        }
        const std::vector<Oid>& selected = hub_.Selected(segment, cs.scan_id());
        if (std::find(selected.begin(), selected.end(), cs.leaf_oid()) !=
            selected.end()) {
          MPPDB_RETURN_IF_ERROR(visit(*store, cs.table_oid(), cs.leaf_oid()));
        }
        break;
      }
      case PhysNodeKind::kDynamicScan:
      case PhysNodeKind::kDynamicIndexScan: {
        const bool index = scan->kind() == PhysNodeKind::kDynamicIndexScan;
        const Oid table_oid =
            index ? static_cast<const DynamicIndexScanNode&>(*scan).table_oid()
                  : static_cast<const DynamicScanNode&>(*scan).table_oid();
        const int scan_id = index
                                ? static_cast<const DynamicIndexScanNode&>(*scan).scan_id()
                                : static_cast<const DynamicScanNode&>(*scan).scan_id();
        const TableStore* store = storage_->GetStore(table_oid);
        if (store == nullptr) {
          return Status::ExecutionError("no storage for table oid " +
                                        std::to_string(table_oid));
        }
        // An index scan of an unpartitioned table (scan id -1) reads every
        // unit; every other dynamic leaf reads what its selector sent.
        const bool every_unit = index && scan_id < 0;
        if (!every_unit && !hub_.HasChannel(segment, scan_id)) {
          return Status::ExecutionError(
              std::string(index ? "DynamicIndexScan" : "DynamicScan") +
              " executed before its PartitionSelector (scan id " +
              std::to_string(scan_id) + ", segment " + std::to_string(segment) + ")");
        }
        if (store->descriptor().distribution == TableDistribution::kReplicated &&
            segment != 0) {
          break;
        }
        const std::vector<Oid>& units =
            every_unit ? store->UnitOids() : hub_.Selected(segment, scan_id);
        for (Oid oid : units) {
          if (!store->HasUnit(oid)) {
            return Status::ExecutionError("selected partition oid " +
                                          std::to_string(oid) +
                                          " is not a leaf of table " +
                                          std::to_string(table_oid));
          }
          MPPDB_RETURN_IF_ERROR(visit(*store, table_oid, oid));
        }
        break;
      }
      default:
        return Status::Internal("unexpected scan kind in scan fragment");
    }
  }
  return Status::OK();
}

Status Executor::RunFragmentPrefix(const ScanFragment& frag, int segment) {
  for (size_t i = 0; i < frag.prefix.size(); ++i) {
    Result<InputRows> discarded = ExecNode(frag.prefix[i], segment);
    if (!discarded.ok()) {
      if (IsSuspendedStatus(discarded.status())) {
        SegmentRunState& memo = seg_run_[static_cast<size_t>(segment)];
        for (size_t j = 0; j < i; ++j) memo.done.insert(frag.prefix[j].get());
      }
      return discarded.status();
    }
  }
  return Status::OK();
}

Status Executor::FilterBatch(const KernelProgram* program, KernelContext* ctx,
                             const std::vector<Row>& rows, size_t base, size_t end,
                             const std::vector<BoundJoinFilter>& join_filters,
                             ExecStats* stats, FilterScratch* scratch, SelVec* keep) {
  if (program == nullptr) {
    IdentitySel(base, end, keep);
  } else {
    IdentitySel(base, end, &scratch->sel);
    MPPDB_RETURN_IF_ERROR(
        EvalPredicateBatch(*program, ctx, rows, base, scratch->sel, keep));
  }
  // Join filters apply to predicate survivors only (identical error
  // behavior to filters off).
  ProbeJoinFilters(rows, join_filters, stats, keep, scratch);
  return Status::OK();
}

Result<InputRows> Executor::ExecFilter(const FilterNode& node, int segment) {
  const ColumnLayout layout = node.child(0)->OutputLayout();
  ScanFragment frag;
  if (MatchScanFragment(node.child(0), &frag)) {
    MPPDB_RETURN_IF_ERROR(RunFragmentPrefix(frag, segment));
    MPPDB_ASSIGN_OR_RETURN(std::vector<BoundJoinFilter> join_filters,
                           BindJoinFilterProbes(node, layout, segment));
    return ExecFusedFilterScan(&node, frag, layout, join_filters, segment);
  }
  MPPDB_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecOwned(node.child(0), segment));
  MPPDB_ASSIGN_OR_RETURN(std::vector<BoundJoinFilter> join_filters,
                         BindJoinFilterProbes(node, layout, segment));
  KernelProgram program = KernelProgram::Compile(node.predicate(), layout);
  KernelContext ctx;
  ctx.Prepare(program, KernelContext::kDefaultChunkRows);
  std::vector<Row> out;
  out.reserve(rows.size());
  FilterScratch scratch;
  SelVec keep;
  for (size_t base = 0; base < rows.size(); base += ctx.chunk_capacity()) {
    MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
    size_t end = std::min(rows.size(), base + ctx.chunk_capacity());
    MPPDB_RETURN_IF_ERROR(FilterBatch(&program, &ctx, rows, base, end, join_filters,
                                      &seg_stats_[static_cast<size_t>(segment)],
                                      &scratch, &keep));
    for (uint32_t r : keep) out.push_back(std::move(rows[r]));
  }
  return InputRows(std::move(out));
}

Result<InputRows> Executor::ExecFusedFilterScan(
    const FilterNode* filter, const ScanFragment& frag, const ColumnLayout& layout,
    const std::vector<BoundJoinFilter>& join_filters, int segment) {
  // The program is compiled once and shared read-only across morsels; each
  // morsel runs its own KernelContext (the mutable evaluation scratch).
  std::optional<KernelProgram> program;
  CompiledSargable compiled;
  // Exactly-compiled conjunct prefix for column-oriented units
  // (expr/encoded_eval.h): the prefix runs on encoded chunks, the residual as
  // a kernel program over the late-materialized survivors — whose selection
  // vector feeds straight into the batch evaluator.
  EncodedPredicate encoded;
  std::optional<KernelProgram> residual_program;
  if (filter != nullptr) {
    program.emplace(KernelProgram::Compile(filter->predicate(), layout));
    if (options_.data_skipping) compiled = CompileSargable(filter->sargable(), layout);
    encoded = CompileEncodedPredicate(filter->predicate(), layout);
    if (encoded.HasTerms() && encoded.residual != nullptr) {
      residual_program.emplace(KernelProgram::Compile(encoded.residual, layout));
    }
  }
  const bool can_prune = compiled.CanPrune();
  InputRows out;

  // A join filter may skip a whole chunk only when every row it drops is
  // accounted for: (a) the whole predicate is provably error-free on the
  // chunk — unlike a predicate-driven skip, the dropped rows may *satisfy*
  // it, so no conjunct may be allowed to error behind the skip; and (b)
  // below a Motion, the dropped rows' rows_moved compensation needs per-row
  // predicate outcomes, so only a scan with no predicate (every row would
  // have reached the Motion) skips for a below-Motion filter. A filter that
  // stopped probing still skips chunks: that costs one synopsis test each.
  auto join_filter_chunk_skip = [&](const ChunkSynopsis& chunk, size_t chunk_rows,
                                    ExecStats& stats) {
    if (join_filters.empty()) return false;
    if (filter != nullptr && !SynopsisErrorFree(filter->sargable(), compiled, chunk)) {
      return false;
    }
    for (const BoundJoinFilter& join_filter : join_filters) {
      if (join_filter.below_motion && filter != nullptr) continue;
      if (join_filter.summary->ChunkProvablyDisjoint(chunk, join_filter.key_positions)) {
        ++stats.joinfilter_chunks_skipped;
        if (join_filter.below_motion) {
          stats.rows_moved += chunk_rows;  // rows_moved stays logical
          stats.joinfilter_motion_rows_saved += chunk_rows;
        }
        return true;
      }
    }
    return false;
  };

  // One storage unit's slice with what the scan reads about it.
  struct Unit {
    const std::vector<Row>* rows;
    const SliceSynopsis* synopsis;
    const SliceColumns* cols;
  };
  // Evaluation scratch of one task's chunk loop, sized to the rows it covers.
  struct ChunkScratch {
    KernelContext ctx;
    KernelContext residual_ctx;
    FilterScratch filter;
    SelVec keep;
    std::vector<char> pure;
  };
  auto make_scratch = [&](size_t rows) {
    ChunkScratch scratch;
    const size_t capacity = std::min(TableStore::kChunkRows, rows);
    if (program) scratch.ctx.Prepare(*program, capacity);
    if (residual_program) scratch.residual_ctx.Prepare(*residual_program, capacity);
    return scratch;
  };

  // Evaluates the predicate over the chunk at `base` directly over the
  // storage slice, leaving the ids of the rows that satisfy it in
  // scratch->keep, the join filters' probe rows; filtered-out tuples are
  // never materialized. False when the chunk was skipped by zone map (keep
  // is then empty).
  // TableStore::kChunkRows == KernelContext::kDefaultChunkRows (static_assert
  // above), so batch boundaries land exactly on synopsis chunk boundaries
  // and a skipped chunk is a skipped batch.
  auto scan_chunk = [&](const Unit& unit, size_t base, ChunkScratch* scratch,
                        ExecStats* stats) -> Result<bool> {
    MPPDB_RETURN_IF_ERROR(CheckExec(segment, "storage.scan_chunk"));
    SelVec& keep = scratch->keep;
    keep.clear();
    const std::vector<Row>& rows = *unit.rows;
    const size_t chunk_end = std::min(rows.size(), base + TableStore::kChunkRows);
    const size_t chunk_idx = base / TableStore::kChunkRows;
    if (unit.synopsis != nullptr) {
      const ChunkSynopsis& chunk = unit.synopsis->chunks[chunk_idx];
      // Predicate-driven skips run first so chunks_skipped is identical
      // with join filters on or off.
      if (can_prune && SynopsisCanSkip(compiled, chunk)) {
        ++stats->chunks_skipped;
        return false;
      }
      if (join_filter_chunk_skip(chunk, chunk_end - base, *stats)) return false;
    }
    if (unit.cols != nullptr && EncodedChunkEligible(encoded, *unit.cols, chunk_idx)) {
      // Encoded fast path: prefix on the encoded chunk; the residual
      // kernel program sees only the survivor selection (the kernel AND
      // already short-circuits per row on FALSE, so this is the same set
      // of rows it would evaluate the residual conjuncts on).
      const SliceColumns& cols = *unit.cols;
      SelVec& sel = scratch->filter.sel;
      ++stats->chunks_encoded_eval;
      stats->encoded_bytes_scanned += cols.ChunkEncodedBytes(chunk_idx);
      EvalEncodedPredicate(encoded, cols, chunk_idx, base, chunk_end - base, &sel,
                           residual_program ? &scratch->pure : nullptr);
      stats->rows_late_materialized += sel.size();
      if (residual_program) {
        MPPDB_RETURN_IF_ERROR(EvalPredicateBatch(
            *residual_program, &scratch->residual_ctx, rows, base, sel, &keep));
        // Final keep needs every prefix verdict TRUE as well: intersect
        // with the purity flags (aligned to sel; keep ⊆ sel, both
        // ascending).
        size_t kept = 0, si = 0;
        for (uint32_t r : keep) {
          while (sel[si] != r) ++si;
          if (scratch->pure[si] != 0) keep[kept++] = r;
        }
        keep.resize(kept);
      } else {
        keep = sel;
      }
    } else if (program) {
      IdentitySel(base, chunk_end, &scratch->filter.sel);
      MPPDB_RETURN_IF_ERROR(EvalPredicateBatch(*program, &scratch->ctx, rows, base,
                                               scratch->filter.sel, &keep));
    } else {
      IdentitySel(base, chunk_end, &keep);
    }
    return true;
  };

  // The stop rule (kJoinFilterPrefixRows). The prefix is the scan's first
  // probe rows on this segment, in slice order, probed in this task with a
  // tally per filter; only then do the rest of the scan's chunks fan out as
  // morsels, probing with the filters that did not stop.
  ExecStats& seg_stats = seg_stats_[static_cast<size_t>(segment)];
  std::vector<BoundJoinFilter> probing = join_filters;
  std::vector<JoinFilterTally> tally(probing.size());
  bool in_prefix = !probing.empty();
  size_t prefix_probes = 0;  // probe rows the prefix has probed
  size_t prefix_rows = 0;    // rows of the chunks the prefix evaluated
  auto end_prefix = [&]() {
    in_prefix = false;
    size_t kept = 0;
    for (size_t f = 0; f < probing.size(); ++f) {
      // A filter that probed nothing keeps probing: 0 < 0 is false.
      if (static_cast<double>(tally[f].rejected) <
          kJoinFilterStopFraction * static_cast<double>(tally[f].probed)) {
        ++seg_stats.joinfilter_probes_stopped;
        continue;
      }
      probing[kept++] = probing[f];
    }
    probing.resize(kept);
  };
  // The prefix's step over one evaluated chunk: probes the chunk's first
  // probe rows with tallies up to the prefix length, settles the filters
  // when the prefix is complete, and probes the rest with the filters that
  // still probe. Survivor ids go to `ids` in order.
  SelVec rest;
  auto probe_prefix = [&](const std::vector<Row>& rows, size_t evaluated_rows,
                          ChunkScratch* scratch, std::vector<uint32_t>* ids) {
    SelVec& keep = scratch->keep;
    const size_t head = std::min(keep.size(), kJoinFilterPrefixRows - prefix_probes);
    rest.assign(keep.begin() + static_cast<std::ptrdiff_t>(head), keep.end());
    keep.resize(head);
    ProbeJoinFilters(rows, probing, &seg_stats, &keep, &scratch->filter, tally.data());
    ids->insert(ids->end(), keep.begin(), keep.end());
    prefix_probes += head;
    prefix_rows += evaluated_rows;
    if (prefix_probes == kJoinFilterPrefixRows ||
        prefix_rows >= kJoinFilterPrefixScanRows) {
      end_prefix();
    }
    ProbeJoinFilters(rows, probing, &seg_stats, &rest, &scratch->filter);
    ids->insert(ids->end(), rest.begin(), rest.end());
  };

  // ForEachScanUnit records the logical stats, so they match an unfused
  // Filter over the scan; only chunks_* and units_skipped reveal the
  // skipping (a scan with no predicate counts neither). Past the stop rule's
  // prefix the chunk loop is morsel-ranged: chunk-aligned sub-ranges of the
  // slice run as stealable tasks, each with its own scratch and stats shard,
  // their survivor ids concatenated in range order.
  auto scan_unit_filtered = [&](const TableStore& store, Oid unit_oid,
                                const std::vector<Row>& rows) -> Status {
    if (rows.empty()) return Status::OK();
    Unit unit{&rows, nullptr, nullptr};
    if (options_.data_skipping) {
      if (filter != nullptr) {
        seg_stats.chunks_total +=
            (rows.size() + TableStore::kChunkRows - 1) / TableStore::kChunkRows;
      }
      if (can_prune || !join_filters.empty()) {
        // A shed synopsis rebuild (budget pressure) returns null: the slice
        // scans unskipped. Acquired here, in the spawning task (the lazy
        // rebuild is owner-confined); morsel bodies only read it.
        unit.synopsis = AcquireSynopsis(store, unit_oid, segment);
        if (unit.synopsis != nullptr) {
          MPPDB_CHECK(unit.synopsis->rollup.row_count == rows.size());
          if (can_prune && SynopsisCanSkip(compiled, unit.synopsis->rollup)) {
            ++seg_stats.units_skipped;
            seg_stats.chunks_skipped += unit.synopsis->chunks.size();
            return Status::OK();
          }
        }
      }
    }
    // Encoded image of column-oriented units (null for row-oriented ones, a
    // shed re-encode, or a predicate with no compilable prefix).
    if (encoded.HasTerms()) {
      unit.cols = AcquireColumns(store, unit_oid, segment);
      if (unit.cols != nullptr) MPPDB_CHECK(unit.cols->row_count == rows.size());
    }
    std::vector<uint32_t> ids;
    size_t start = 0;
    if (in_prefix) {
      ChunkScratch scratch = make_scratch(rows.size());
      for (; in_prefix && start < rows.size(); start += TableStore::kChunkRows) {
        MPPDB_ASSIGN_OR_RETURN(bool evaluated,
                               scan_chunk(unit, start, &scratch, &seg_stats));
        probe_prefix(rows,
                     evaluated ? std::min(rows.size() - start, TableStore::kChunkRows) : 0,
                     &scratch, &ids);
      }
    }
    if (start < rows.size()) {
      auto body = [&, start](size_t begin, size_t end, ExecStats* stats,
                             std::vector<uint32_t>* mids) -> Status {
        ChunkScratch scratch = make_scratch(end - begin);
        for (size_t base = start + begin; base < start + end;
             base += TableStore::kChunkRows) {
          MPPDB_RETURN_IF_ERROR(scan_chunk(unit, base, &scratch, stats).status());
          ProbeJoinFilters(rows, probing, stats, &scratch.keep, &scratch.filter);
          mids->insert(mids->end(), scratch.keep.begin(), scratch.keep.end());
        }
        return Status::OK();
      };
      MPPDB_RETURN_IF_ERROR(RunMorselScan(segment, rows.size() - start, body, &ids));
    }
    out.AddSelected(rows, std::move(ids));
    return Status::OK();
  };

  MPPDB_RETURN_IF_ERROR(ForEachScanUnit(frag, segment, scan_unit_filtered));
  return out;
}

Result<std::vector<Row>> Executor::ExecProject(const ProjectNode& node, int segment) {
  MPPDB_ASSIGN_OR_RETURN(InputRows input, ExecNode(node.child(0), segment));
  ColumnLayout layout = node.child(0)->OutputLayout();
  // A bare-column item is read in place from the row (`columns`), as
  // ExecHashAgg reads a bare-column argument; any other runs as a kernel.
  const size_t num_items = node.items().size();
  std::vector<std::optional<KernelProgram>> programs(num_items);
  std::vector<KernelContext> ctxs(num_items);
  std::vector<int> columns(num_items, -1);
  for (size_t i = 0; i < num_items; ++i) {
    KernelProgram program = KernelProgram::Compile(node.items()[i].expr, layout);
    if (program.instrs().size() == 1 && program.instrs()[0].op == KernelOp::kLoadColumn) {
      columns[i] = program.instrs()[0].arg;
      continue;
    }
    programs[i] = std::move(program);
    ctxs[i].Prepare(*programs[i], KernelContext::kDefaultChunkRows);
  }
  std::vector<Row> out;
  out.reserve(input.size());
  for (InputBatches batch(input); batch.Next();) {
    if (batch.grid_start()) MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
    const std::vector<Row>& rows = batch.rows();
    const size_t base = batch.base();
    const SelVec& sel = batch.sel();
    for (size_t i = 0; i < num_items; ++i) {
      if (!programs[i].has_value()) continue;
      MPPDB_RETURN_IF_ERROR(EvalExprBatch(*programs[i], &ctxs[i], rows, base, sel));
    }
    for (uint32_t r : sel) {
      Row projected;
      projected.reserve(num_items);
      for (size_t i = 0; i < num_items; ++i) {
        if (columns[i] >= 0) {
          projected.push_back(rows[r][static_cast<size_t>(columns[i])]);
          continue;
        }
        // Moving out of the slot is safe: every kernel rewrites all selected
        // positions on the next chunk before they are read again.
        projected.push_back(std::move(ctxs[i].slot(programs[i]->root())[r - base]));
      }
      out.push_back(std::move(projected));
    }
  }
  return out;
}

Result<std::vector<Row>> Executor::ExecHashJoin(const HashJoinNode& node,
                                                int segment) {
  // children[0] (build) runs to completion first — the property
  // PartitionSelector placement relies on.
  MPPDB_ASSIGN_OR_RETURN(InputRows build, ExecNode(node.child(0), segment));
  ColumnLayout build_layout = node.child(0)->OutputLayout();
  // One-shot effects, skipped when a probe-side Motion suspension already
  // performed them on an earlier walk (the hub rejects a second publication
  // of the same filter id, and the budget must not be charged twice).
  const bool effects_pending =
      seg_run_[static_cast<size_t>(segment)].effects_done.erase(&node) == 0;
  if (effects_pending) {
    // The build table pins every build row plus hash-table nodes for the
    // whole probe phase: the query's dominant mandatory allocation. Charged
    // before the advisory filter publication so that under budget pressure
    // the optional summary sheds while the mandatory table still fits.
    // String payloads count (RowsPayloadBytes), so wide-varchar builds
    // don't undercharge and defeat the spill trigger. The charge is the same
    // whether the build rows are read in place or owned.
    size_t build_bytes = ApproxRowsBytes(build.size(), build_layout.ids().size());
    for (size_t s = 0; s < build.num_slices(); ++s) {
      const InputRows::SliceView rows = build.slice(s);
      for (size_t i = 0; i < rows.size(); ++i) build_bytes += RowPayloadBytes(rows[i]);
    }
    MPPDB_ASSIGN_OR_RETURN(
        bool charged, ChargeOrSpill(segment, build_bytes, "hash join build table"));
    if (!charged) {
      // A refusal is the spill trigger, not a failure. The decision lands in
      // the segment memo (not a local) because the probe child may suspend
      // at a Motion and unwind this frame; it is consumed after the probe
      // child completes.
      seg_run_[static_cast<size_t>(segment)].spill_decided.insert(&node);
    }
    // This segment's build-key summary goes out before the probe child runs,
    // so probe-side consumers (same segment, same slice chain) can find it.
    // Published when spilling too: filters are advisory (their own charges
    // shed under pressure) and only ever reject non-joining probe rows.
    MPPDB_RETURN_IF_ERROR(PublishLocalJoinFilters(node, build_layout, build, segment));
  }
  Result<InputRows> probe_result = ExecNode(node.child(1), segment);
  if (!probe_result.ok()) {
    if (IsSuspendedStatus(probe_result.status())) {
      // The resolved build input waits in the memo: the re-walk's ExecNode
      // returns it without re-scanning, re-counting stats or copying.
      SegmentRunState& memo = seg_run_[static_cast<size_t>(segment)];
      memo.cache[node.child(0).get()] = std::move(build);
      memo.effects_done.insert(&node);
    }
    return probe_result.status();
  }
  InputRows probe = std::move(probe_result).value();

  ColumnLayout probe_layout = node.child(1)->OutputLayout();
  MPPDB_ASSIGN_OR_RETURN(std::vector<int> build_pos,
                         ResolvePositions(build_layout, node.build_keys()));
  MPPDB_ASSIGN_OR_RETURN(std::vector<int> probe_pos,
                         ResolvePositions(probe_layout, node.probe_keys()));

  if (seg_run_[static_cast<size_t>(segment)].spill_decided.erase(&node) > 0) {
    return SpillHashJoin(node, segment, std::move(build).Take(), std::move(probe).Take(),
                         build_layout, probe_layout, build_pos, probe_pos);
  }

  // Batch key passes: one tight loop per slice computes every key's 64-bit
  // hash and null flag up front. The hash table then stores only (hash, row
  // pointer) — no JoinKey datum copies, and no copy of a build row read in
  // place — and its equality check rejects almost every bucket collision
  // with a single integer compare. The hash codes and equality verdicts are
  // those of a JoinKey table (see join_hash.h), which the spill path's
  // per-partition joins build, so the output row order is the same whether
  // or not the join spilled.
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> has_null;
  std::unordered_multiset<RowKeyRef, RowKeyRefHash, RowKeyRefEq> table;
  table.reserve(build.size());
  for (size_t s = 0; s < build.num_slices(); ++s) {
    const InputRows::SliceView rows = build.slice(s);
    HashRowKeys(rows, build_pos, &hashes, &has_null);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (has_null[i]) continue;  // NULL keys never join
      table.insert(RowKeyRef{hashes[i], &rows[i], &build_pos});
    }
  }

  const bool semi = node.join_type() == JoinType::kSemi;
  std::vector<Row> out;
  out.reserve(probe.size());

  auto join_pair = [](const Row& build_row, const Row& probe_row) {
    Row joined;
    joined.reserve(build_row.size() + probe_row.size());
    joined.insert(joined.end(), build_row.begin(), build_row.end());
    joined.insert(joined.end(), probe_row.begin(), probe_row.end());
    return joined;
  };

  // Visits every probe row with a non-NULL key in input order, with its
  // build-side matches, running the exec.batch check at every
  // kChunkRows-th probe row of the concatenated input.
  using Matches = std::pair<decltype(table)::const_iterator,
                            decltype(table)::const_iterator>;
  auto for_each_probe = [&](const auto& visit) -> Status {
    size_t p = 0;
    for (size_t s = 0; s < probe.num_slices(); ++s) {
      const InputRows::SliceView rows = probe.slice(s);
      HashRowKeys(rows, probe_pos, &hashes, &has_null);
      for (size_t i = 0; i < rows.size(); ++i, ++p) {
        if (p % TableStore::kChunkRows == 0) {
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
        }
        if (has_null[i]) continue;
        Matches matches = table.equal_range(RowKeyRef{hashes[i], &rows[i], &probe_pos});
        MPPDB_RETURN_IF_ERROR(visit(rows[i], matches));
      }
    }
    return Status::OK();
  };

  if (node.residual() == nullptr) {
    MPPDB_RETURN_IF_ERROR(
        for_each_probe([&](const Row& probe_row, const Matches& matches) -> Status {
          if (semi) {
            if (matches.first != matches.second) out.push_back(probe_row);
            return Status::OK();
          }
          for (auto it = matches.first; it != matches.second; ++it) {
            out.push_back(join_pair(*it->row, probe_row));
          }
          return Status::OK();
        }));
    return out;
  }

  ColumnLayout joint_layout = ColumnLayout::Concat(build_layout, probe_layout);
  KernelProgram residual = KernelProgram::Compile(node.residual(), joint_layout);
  KernelContext ctx;

  if (semi) {
    // Semi join stops evaluating the residual at the first keeping match —
    // later candidates must not be evaluated (they could error), so the
    // kernel runs one candidate at a time.
    ctx.Prepare(residual, 1);
    std::vector<Row> candidate(1);
    const SelVec kOne{0};
    SelVec keep;
    MPPDB_RETURN_IF_ERROR(
        for_each_probe([&](const Row& probe_row, const Matches& matches) -> Status {
          for (auto it = matches.first; it != matches.second; ++it) {
            candidate[0] = join_pair(*it->row, probe_row);
            MPPDB_RETURN_IF_ERROR(
                EvalPredicateBatch(residual, &ctx, candidate, 0, kOne, &keep));
            if (!keep.empty()) {
              out.push_back(probe_row);
              break;
            }
          }
          return Status::OK();
        }));
    return out;
  }

  // Inner join with residual: batch the joined candidates and evaluate the
  // residual kernel over each full chunk, keeping survivors in order.
  ctx.Prepare(residual, KernelContext::kDefaultChunkRows);
  std::vector<Row> pending;
  pending.reserve(ctx.chunk_capacity());
  SelVec sel, keep;
  auto flush = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    IdentitySel(0, pending.size(), &sel);
    MPPDB_RETURN_IF_ERROR(EvalPredicateBatch(residual, &ctx, pending, 0, sel, &keep));
    for (uint32_t r : keep) out.push_back(std::move(pending[r]));
    pending.clear();
    return Status::OK();
  };
  MPPDB_RETURN_IF_ERROR(
      for_each_probe([&](const Row& probe_row, const Matches& matches) -> Status {
        for (auto it = matches.first; it != matches.second; ++it) {
          pending.push_back(join_pair(*it->row, probe_row));
          if (pending.size() == ctx.chunk_capacity()) MPPDB_RETURN_IF_ERROR(flush());
        }
        return Status::OK();
      }));
  MPPDB_RETURN_IF_ERROR(flush());
  return out;
}

Result<std::vector<Row>> Executor::ExecHashAgg(const HashAggNode& node, int segment) {
  MPPDB_ASSIGN_OR_RETURN(InputRows input, ExecNode(node.child(0), segment));
  ColumnLayout layout = node.child(0)->OutputLayout();
  MPPDB_ASSIGN_OR_RETURN(std::vector<int> group_pos,
                         ResolvePositions(layout, node.group_by()));

  // A bare-column argument is read in place from the row (`columns`); any
  // other runs as a kernel. count(*) has no argument.
  const size_t num_aggs = node.aggs().size();
  std::vector<std::optional<KernelProgram>> programs(num_aggs);
  std::vector<KernelContext> ctxs(num_aggs);
  std::vector<int> columns(num_aggs, -1);
  for (size_t i = 0; i < num_aggs; ++i) {
    if (node.aggs()[i].func == AggFunc::kCountStar) continue;
    KernelProgram program = KernelProgram::Compile(node.aggs()[i].arg, layout);
    if (program.instrs().size() == 1 && program.instrs()[0].op == KernelOp::kLoadColumn) {
      columns[i] = program.instrs()[0].arg;
      continue;
    }
    programs[i] = std::move(program);
    ctxs[i].Prepare(*programs[i], KernelContext::kDefaultChunkRows);
  }

  // Per batch: a key-hash pass, a group-id pass, then one accumulate loop
  // per aggregate into column-major states (AccumulateAgg, shared with the
  // spill path). Each group sees its rows in input order and groups are
  // numbered in first-appearance order, so the output is a row-at-a-time
  // loop's. Grouping state grows with distinct keys, so each new group is
  // charged as it appears, in row order, string key payloads included.
  GroupIndex index;
  std::vector<std::vector<AggState>> states(num_aggs);
  const size_t group_bytes = ApproxRowsBytes(1, group_pos.size() + num_aggs);
  size_t charged_bytes = 0;
  bool spill = false;
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> ids;
  for (InputBatches batch(input); !spill && batch.Next();) {
    if (batch.grid_start()) MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
    const std::vector<Row>& rows = batch.rows();
    const size_t base = batch.base();
    const SelVec& sel = batch.sel();
    for (size_t i = 0; i < num_aggs; ++i) {
      if (!programs[i].has_value()) continue;
      MPPDB_RETURN_IF_ERROR(EvalExprBatch(*programs[i], &ctxs[i], rows, base, sel));
    }
    // A refusal or a charge error stops the group-id pass at its row; the
    // rows before it accumulate first, so a row error among them still wins.
    size_t assigned = 0;
    Status stop;
    if (group_pos.empty() && !index.keys().empty()) {
      ids.assign(sel.size(), 0);  // a scalar aggregate: one group, no hashing
      assigned = sel.size();
    } else {
      HashKeysForSel(rows, sel, group_pos, &hashes);
      ids.resize(sel.size());
      for (; assigned < sel.size(); ++assigned) {
        const Row& row = rows[sel[assigned]];
        size_t slot = 0;
        uint32_t g = index.Find(row, group_pos, hashes[assigned], &slot);
        if (g == GroupIndex::kNoGroup) {
          JoinKey key = ExtractKey(row, group_pos);
          const size_t this_group_bytes = group_bytes + RowPayloadBytes(key.values);
          Result<bool> charged =
              ChargeOrSpill(segment, this_group_bytes, "hash aggregate group");
          if (!charged.ok() || !*charged) {
            stop = charged.status();
            spill = charged.ok();
            break;
          }
          charged_bytes += this_group_bytes;
          g = index.Insert(slot, hashes[assigned], std::move(key));
          for (std::vector<AggState>& agg_states : states) agg_states.emplace_back();
        }
        ids[assigned] = g;
      }
    }
    for (size_t i = 0; i < num_aggs; ++i) {
      const AggFunc func = node.aggs()[i].func;
      std::vector<AggState>& agg_states = states[i];
      if (func == AggFunc::kCountStar) {
        for (size_t j = 0; j < assigned; ++j) ++agg_states[ids[j]].count;
        continue;
      }
      for (size_t j = 0; j < assigned; ++j) {
        const Datum& v = columns[i] >= 0
                             ? rows[sel[j]][static_cast<size_t>(columns[i])]
                             : ctxs[i].slot(programs[i]->root())[sel[j] - base];
        if (v.is_null()) continue;
        MPPDB_RETURN_IF_ERROR(AccumulateAgg(agg_states[ids[j]], func, v));
      }
    }
    MPPDB_RETURN_IF_ERROR(stop);
  }

  if (spill) {
    // Hand the intact input, in input order, to the out-of-core path, which
    // re-aggregates from scratch partition by partition; the charges
    // accumulated so far return to the pool (the spill path charges per
    // partition instead).
    ctx_->budget().Release(charged_bytes);
    index = GroupIndex();
    states.clear();
    const std::vector<Row> rows = std::move(input).Take();
    return SpillHashAgg(node, segment, rows, layout, group_pos);
  }

  // Scalar aggregate over empty input still has one (empty-keyed) group —
  // emitted on segment 0 only (see executor.h).
  std::vector<JoinKey>& keys = index.keys();
  if (node.group_by().empty() && keys.empty() && segment == 0) {
    keys.emplace_back();
    for (std::vector<AggState>& agg_states : states) agg_states.emplace_back();
  }

  std::vector<Row> out;
  out.reserve(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = std::move(keys[g].values);
    for (size_t i = 0; i < num_aggs; ++i) {
      row.push_back(FinalizeAgg(states[i][g], node.aggs()[i].func));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace mppdb
