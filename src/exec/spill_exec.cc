// Out-of-core execution (Executor::Options::spill; DESIGN.md §14).
//
// Entered when TryChargeSpill refuses the in-memory state of a hash join
// build table, a hash aggregate's grouping state, or a sort buffer.
// Identity with the *in-memory oracle* (the in-memory operator) — the
// stats-only-visible invariant — rests on three order-restoration
// arguments:
//
//  * Hash join: spill partitioning preserves the relative order of rows on
//    each side, and every row of a join key lands in exactly one partition.
//    A partition joined in memory uses a hash table with the oracle's hash
//    codes and equality (JoinKey vs RowKeyRef, see join_hash.h) over rows
//    inserted in original relative order, so each probe row's matches come
//    out in the oracle's per-key order (libstdc++ iterates an equal-key
//    bucket chain in reverse insertion order). Probe
//    rows carry their global input index as a prepended tag column; a final
//    stable sort by (tag, emission rank) reassembles global probe order.
//    The bounded-depth fallback never materializes the partition: it
//    streams budget-sized build blocks, ranks each match by its reverse
//    build position — the oracle's per-key order — and lets the same final
//    sort interleave them correctly.
//
//  * Hash aggregate: all rows of a group share a partition in original
//    relative order, so per-group accumulation order (and thus float sums)
//    matches the oracle exactly. Each group records the global input index
//    of its first row; sorting finished groups by that index reproduces the
//    oracle's first-appearance emission order.
//
//  * Sort: runs are contiguous input slices sorted in the oracle's order
//    (one SortKeys encoding for the whole input), and the k-way merge
//    breaks equal keys toward the lower-numbered run — a stable merge of
//    stable-sorted contiguous slices, which is exactly one global stable
//    sort.
//
// Documented divergence (DESIGN.md §14): a spilled join may evaluate a
// residual predicate on candidate pairs the oracle's early-outs skipped
// (semi-join short circuits, fallback block order). Kept rows are
// identical; the difference is observable only when a residual errors.
//
// Memory model: spill working state (one partition's build table, one run
// buffer, merge read-back buffers, streamed batches) is charged against the
// budget exactly like the in-memory state it replaces — TryChargeSpill
// first, recursing or shrinking on refusal, with the irreducible minimum
// (one spill block, one run floor, one merge buffer set) a mandatory
// ChargeBudget that surfaces kResourceExhausted when even that cannot fit.
// Operator inputs and outputs are never charged, matching the oracle.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "exec/agg_state.h"
#include "exec/executor.h"
#include "exec/join_hash.h"
#include "exec/sort_keys.h"
#include "runtime/spill/row_codec.h"
#include "runtime/spill/spill_file.h"

namespace mppdb {

namespace {

/// Fan-out of one hash partitioning pass.
constexpr size_t kSpillFanout = 8;
/// Partitioning depth bound: a partition still overfull after this many
/// fresh-salt re-partitions (e.g. all-duplicate keys, which no hash can
/// split) takes the block-streaming fallback instead of recursing forever.
constexpr int kMaxSpillDepth = 4;
/// Rows per serialized batch when partitioning (the unit of spill I/O).
constexpr size_t kSpillBatchRows = 512;
/// Run-buffer floor for the external sort; below this the charge becomes
/// mandatory (a budget that cannot hold 16 rows of keys cannot sort).
constexpr size_t kMinRunRows = 16;
/// Max runs merged per k-way merge pass; more runs cascade through
/// intermediate merged runs so read-back buffers stay bounded.
constexpr size_t kMergeFanIn = 16;

/// splitmix64 finalizer: decorrelates the spill partition choice from the
/// hash table's bucket choice (both start from JoinKeyHash) and, salted per
/// depth, from the parent partition's choice.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t SpillSalt(int depth) {
  return Mix(0x5b111c0deull + static_cast<uint64_t>(depth) * 0x9e3779b97f4a7c15ull);
}

size_t PartitionOf(const JoinKey& key, int depth) {
  return static_cast<size_t>(
      Mix(static_cast<uint64_t>(JoinKeyHash{}(key)) ^ SpillSalt(depth)) %
      kSpillFanout);
}

/// ExtractKey with a column offset, for rows carrying a prepended tag.
JoinKey ExtractKeyAt(const Row& row, const std::vector<int>& positions,
                     size_t offset) {
  JoinKey key;
  key.values.reserve(positions.size());
  for (int pos : positions) {
    key.values.push_back(row[static_cast<size_t>(pos) + offset]);
  }
  return key;
}

/// In-memory footprint of `row` under the budget's estimate model.
size_t RowFootprint(const Row& row) {
  return ApproxRowsBytes(1, row.size()) + RowPayloadBytes(row);
}

/// One spill partition file being written: rows buffer into batches, the
/// file is created lazily on the first flush (empty partitions touch no
/// filesystem state), and the in-memory footprint of everything written is
/// tracked so the reader knows what re-materializing would charge.
struct PartWriter {
  std::unique_ptr<SpillFile> file;
  std::vector<Row> buffer;
  size_t rows = 0;
  size_t mem_bytes = 0;
};

}  // namespace

Result<std::vector<Row>> Executor::SpillHashJoin(
    const HashJoinNode& node, int segment, std::vector<Row> build_rows,
    std::vector<Row> probe_rows, const ColumnLayout& build_layout,
    const ColumnLayout& probe_layout, const std::vector<int>& build_pos,
    const std::vector<int>& probe_pos) {
  ExecStats& stats = seg_stats_[static_cast<size_t>(segment)];
  MPPDB_ASSIGN_OR_RETURN(SpillFileManager * manager, EnsureSpillManager());
  const bool semi = node.join_type() == JoinType::kSemi;
  const ColumnLayout joint_layout =
      ColumnLayout::Concat(build_layout, probe_layout);

  // Output rows tagged with (global probe index, emission rank); the final
  // stable sort by the pair restores the oracle's global output order. All
  // of one probe row's matches come from one partition, so ranks only need
  // to be correct relative to entries with the same index: the in-memory
  // partition path uses a monotone emission counter, the fallback computes
  // the oracle's reverse-build-position rank directly.
  struct Tagged {
    int64_t index;
    int64_t rank;
    Row row;
  };
  std::vector<Tagged> tagged;
  int64_t emission = 0;

  auto flush = [&](PartWriter& w) -> Status {
    if (w.buffer.empty()) return Status::OK();
    if (w.file == nullptr) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.open"));
      MPPDB_ASSIGN_OR_RETURN(w.file, manager->Create());
      ++stats.spill_partitions;
    }
    MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.write"));
    MPPDB_ASSIGN_OR_RETURN(size_t bytes,
                           w.file->WriteBatch(w.buffer.data(), w.buffer.size()));
    stats.spill_bytes_written += bytes;
    w.buffer.clear();
    return Status::OK();
  };
  auto add = [&](PartWriter& w, Row row) -> Status {
    w.mem_bytes += RowFootprint(row);
    ++w.rows;
    w.buffer.push_back(std::move(row));
    if (w.buffer.size() >= kSpillBatchRows) return flush(w);
    return Status::OK();
  };
  auto read_all = [&](PartWriter& w, std::vector<Row>* out) -> Status {
    if (w.file == nullptr) return Status::OK();
    MPPDB_RETURN_IF_ERROR(w.file->Rewind());
    for (;;) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.read"));
      MPPDB_ASSIGN_OR_RETURN(size_t bytes, w.file->ReadBatch(out));
      if (bytes == 0) break;
      stats.spill_bytes_read += bytes;
    }
    return Status::OK();
  };

  struct Part {
    PartWriter build;
    PartWriter probe;
  };

  // Depth-0 partitioning straight from the in-memory child outputs. NULL
  // keys never join, so both sides drop them here — exactly the rows the
  // oracle's table insert / probe loop skips.
  std::vector<Part> initial(kSpillFanout);
  ++stats.spill_passes;
  size_t until_check = 0;
  for (Row& row : build_rows) {
    if (until_check == 0) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
      until_check = TableStore::kChunkRows;
    }
    --until_check;
    JoinKey key = ExtractKey(row, build_pos);
    if (key.HasNull()) continue;
    MPPDB_RETURN_IF_ERROR(add(initial[PartitionOf(key, 0)].build, std::move(row)));
  }
  build_rows.clear();
  build_rows.shrink_to_fit();
  until_check = 0;
  for (size_t i = 0; i < probe_rows.size(); ++i) {
    if (until_check == 0) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
      until_check = TableStore::kChunkRows;
    }
    --until_check;
    JoinKey key = ExtractKey(probe_rows[i], probe_pos);
    if (key.HasNull()) continue;
    Row row;
    row.reserve(probe_rows[i].size() + 1);
    row.push_back(Datum::Int64(static_cast<int64_t>(i)));
    row.insert(row.end(), probe_rows[i].begin(), probe_rows[i].end());
    MPPDB_RETURN_IF_ERROR(add(initial[PartitionOf(key, 0)].probe, std::move(row)));
  }
  probe_rows.clear();
  probe_rows.shrink_to_fit();

  struct Pending {
    int depth;
    Part part;
  };
  std::vector<Pending> work;
  for (Part& p : initial) {
    MPPDB_RETURN_IF_ERROR(flush(p.build));
    MPPDB_RETURN_IF_ERROR(flush(p.probe));
    work.push_back(Pending{1, std::move(p)});
  }
  initial.clear();

  // Evaluates the residual (if any) over build+probe and appends the
  // surviving output row to `tagged`. Returns whether the pair was kept.
  auto emit_pair = [&](const Row& build, const Row& probe, int64_t index,
                       int64_t rank) -> Result<bool> {
    Row joined;
    joined.reserve(build.size() + probe.size());
    joined.insert(joined.end(), build.begin(), build.end());
    joined.insert(joined.end(), probe.begin(), probe.end());
    if (node.residual() != nullptr) {
      MPPDB_ASSIGN_OR_RETURN(bool keep,
                             EvalPredicate(node.residual(), joint_layout, joined));
      if (!keep) return false;
    }
    if (semi) {
      tagged.push_back(Tagged{index, rank, probe});
    } else {
      tagged.push_back(Tagged{index, rank, std::move(joined)});
    }
    return true;
  };

  while (!work.empty()) {
    Pending pending = std::move(work.back());
    work.pop_back();
    Part& part = pending.part;
    if (part.build.rows == 0 || part.probe.rows == 0) continue;

    MPPDB_ASSIGN_OR_RETURN(bool charged,
                           TryChargeSpill(segment, part.build.mem_bytes));
    if (charged) {
      // The partition fits: run the oracle's own join over it. Build rows
      // come back in original relative order, so the table's per-key match
      // order is the oracle's.
      std::vector<Row> bpart;
      Status read_status = read_all(part.build, &bpart);
      if (!read_status.ok()) {
        ctx_->budget().Release(part.build.mem_bytes);
        return read_status;
      }
      std::vector<Row> ppart;
      read_status = read_all(part.probe, &ppart);
      if (!read_status.ok()) {
        ctx_->budget().Release(part.build.mem_bytes);
        return read_status;
      }
      auto join_partition = [&]() -> Status {
        std::unordered_multimap<JoinKey, const Row*, JoinKeyHash> table;
        table.reserve(bpart.size());
        for (const Row& row : bpart) {
          table.emplace(ExtractKey(row, build_pos), &row);
        }
        size_t checks = 0;
        for (const Row& tagged_probe : ppart) {
          if (checks++ % TableStore::kChunkRows == 0) {
            MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
          }
          const int64_t index = tagged_probe[0].int64_value();
          const Row probe(tagged_probe.begin() + 1, tagged_probe.end());
          JoinKey key = ExtractKey(probe, probe_pos);
          auto [begin, end] = table.equal_range(key);
          for (auto it = begin; it != end; ++it) {
            MPPDB_ASSIGN_OR_RETURN(bool kept,
                                   emit_pair(*it->second, probe, index, emission));
            ++emission;
            if (kept && semi) break;  // one match is enough for semi join
          }
        }
        return Status::OK();
      };
      Status join_status = join_partition();
      ctx_->budget().Release(part.build.mem_bytes);
      MPPDB_RETURN_IF_ERROR(join_status);
      continue;
    }

    if (pending.depth < kMaxSpillDepth) {
      // Still overfull: re-partition both sides with this depth's fresh
      // salt. Probe rows keep their tag column (keys shift by one).
      ++stats.spill_passes;
      std::vector<Part> children(kSpillFanout);
      auto repartition = [&](PartWriter& src, bool is_probe) -> Status {
        if (src.file == nullptr) return Status::OK();
        MPPDB_RETURN_IF_ERROR(src.file->Rewind());
        std::vector<Row> batch;
        for (;;) {
          batch.clear();
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.read"));
          MPPDB_ASSIGN_OR_RETURN(size_t bytes, src.file->ReadBatch(&batch));
          if (bytes == 0) break;
          stats.spill_bytes_read += bytes;
          for (Row& row : batch) {
            JoinKey key = is_probe ? ExtractKeyAt(row, probe_pos, 1)
                                   : ExtractKey(row, build_pos);
            Part& child = children[PartitionOf(key, pending.depth)];
            MPPDB_RETURN_IF_ERROR(
                add(is_probe ? child.probe : child.build, std::move(row)));
          }
        }
        return Status::OK();
      };
      MPPDB_RETURN_IF_ERROR(repartition(part.build, /*is_probe=*/false));
      MPPDB_RETURN_IF_ERROR(repartition(part.probe, /*is_probe=*/true));
      for (Part& child : children) {
        MPPDB_RETURN_IF_ERROR(flush(child.build));
        MPPDB_RETURN_IF_ERROR(flush(child.probe));
        work.push_back(Pending{pending.depth + 1, std::move(child)});
      }
      continue;
    }

    // Depth exhausted (e.g. all-duplicate keys, which no salt can split):
    // block-streaming fallback. Budget-sized blocks of the build file are
    // joined against streamed probe batches; each match is ranked by its
    // reverse build position — the oracle's per-key candidate order — so
    // the final sort interleaves blocks correctly. Nothing is ever fully
    // materialized; the probe file is re-read once per block.
    {
      const size_t per_row =
          (part.build.mem_bytes + part.build.rows - 1) / part.build.rows;
      const int64_t total_build = static_cast<int64_t>(part.build.rows);
      std::unordered_set<int64_t> satisfied;  // semi: probes already matched
      MPPDB_RETURN_IF_ERROR(part.build.file->Rewind());
      bool build_eof = false;
      int64_t base = 0;
      while (!build_eof) {
        // Grow one block batch by batch while the budget allows; the first
        // batch of a block is mandatory (a budget that cannot hold one
        // spill batch cannot join at all).
        std::vector<Row> block;
        size_t block_charge = 0;
        for (;;) {
          const size_t batch_charge = per_row * kSpillBatchRows;
          if (block.empty()) {
            MPPDB_RETURN_IF_ERROR(
                ChargeBudget(segment, batch_charge, "hash join spill block"));
          } else {
            MPPDB_ASSIGN_OR_RETURN(bool more,
                                   TryChargeSpill(segment, batch_charge));
            if (!more) break;
          }
          block_charge += batch_charge;
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.read"));
          Result<size_t> bytes = part.build.file->ReadBatch(&block);
          if (!bytes.ok()) {
            ctx_->budget().Release(block_charge);
            return bytes.status();
          }
          if (bytes.value() == 0) {
            build_eof = true;
            break;
          }
          stats.spill_bytes_read += bytes.value();
        }
        auto process_block = [&]() -> Status {
          if (block.empty()) return Status::OK();
          std::unordered_multimap<JoinKey, size_t, JoinKeyHash> table;
          table.reserve(block.size());
          for (size_t i = 0; i < block.size(); ++i) {
            table.emplace(ExtractKey(block[i], build_pos), i);
          }
          MPPDB_RETURN_IF_ERROR(part.probe.file->Rewind());
          std::vector<Row> pbatch;
          for (;;) {
            pbatch.clear();
            MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.read"));
            MPPDB_ASSIGN_OR_RETURN(size_t bytes,
                                   part.probe.file->ReadBatch(&pbatch));
            if (bytes == 0) break;
            stats.spill_bytes_read += bytes;
            for (const Row& tagged_probe : pbatch) {
              const int64_t index = tagged_probe[0].int64_value();
              if (semi && satisfied.count(index) > 0) continue;
              const Row probe(tagged_probe.begin() + 1, tagged_probe.end());
              JoinKey key = ExtractKey(probe, probe_pos);
              auto [begin, end] = table.equal_range(key);
              for (auto it = begin; it != end; ++it) {
                const int64_t rank =
                    total_build - 1 - (base + static_cast<int64_t>(it->second));
                MPPDB_ASSIGN_OR_RETURN(
                    bool kept, emit_pair(block[it->second], probe, index,
                                         semi ? 0 : rank));
                if (kept && semi) {
                  satisfied.insert(index);
                  break;
                }
              }
            }
          }
          return Status::OK();
        };
        Status block_status = process_block();
        ctx_->budget().Release(block_charge);
        MPPDB_RETURN_IF_ERROR(block_status);
        base += static_cast<int64_t>(block.size());
      }
    }
  }

  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.index != b.index) return a.index < b.index;
                     return a.rank < b.rank;
                   });
  std::vector<Row> out;
  out.reserve(tagged.size());
  for (Tagged& t : tagged) out.push_back(std::move(t.row));
  return out;
}

Result<std::vector<Row>> Executor::SpillHashAgg(const HashAggNode& node,
                                                int segment,
                                                const std::vector<Row>& rows,
                                                const ColumnLayout& layout,
                                                const std::vector<int>& group_pos) {
  ExecStats& stats = seg_stats_[static_cast<size_t>(segment)];
  MPPDB_ASSIGN_OR_RETURN(SpillFileManager * manager, EnsureSpillManager());
  const size_t num_aggs = node.aggs().size();
  const size_t group_bytes =
      ApproxRowsBytes(1, group_pos.size() + num_aggs);

  auto flush = [&](PartWriter& w) -> Status {
    if (w.buffer.empty()) return Status::OK();
    if (w.file == nullptr) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.open"));
      MPPDB_ASSIGN_OR_RETURN(w.file, manager->Create());
      ++stats.spill_partitions;
    }
    MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.write"));
    MPPDB_ASSIGN_OR_RETURN(size_t bytes,
                           w.file->WriteBatch(w.buffer.data(), w.buffer.size()));
    stats.spill_bytes_written += bytes;
    w.buffer.clear();
    return Status::OK();
  };
  auto add = [&](PartWriter& w, Row row) -> Status {
    w.mem_bytes += RowFootprint(row);
    ++w.rows;
    w.buffer.push_back(std::move(row));
    if (w.buffer.size() >= kSpillBatchRows) return flush(w);
    return Status::OK();
  };

  // Finished groups tagged with the global input index of their first row;
  // the final sort by that index reproduces the oracle's first-appearance
  // emission order (first indexes are distinct across groups).
  struct TaggedGroup {
    int64_t first_index;
    Row row;
  };
  std::vector<TaggedGroup> finished;

  // Depth-0 partitioning from the in-memory input, tagging each row with
  // its global index. NULL group keys group together (Datum::Compare treats
  // NULL == NULL), exactly as the oracle's JoinKey map does — nothing is
  // dropped here.
  std::vector<PartWriter> initial(kSpillFanout);
  ++stats.spill_passes;
  size_t until_check = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (until_check == 0) {
      MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
      until_check = TableStore::kChunkRows;
    }
    --until_check;
    JoinKey key = ExtractKey(rows[i], group_pos);
    Row row;
    row.reserve(rows[i].size() + 1);
    row.push_back(Datum::Int64(static_cast<int64_t>(i)));
    row.insert(row.end(), rows[i].begin(), rows[i].end());
    MPPDB_RETURN_IF_ERROR(add(initial[PartitionOf(key, 0)], std::move(row)));
  }

  struct Pending {
    int depth;
    PartWriter part;
  };
  std::vector<Pending> work;
  for (PartWriter& w : initial) {
    MPPDB_RETURN_IF_ERROR(flush(w));
    work.push_back(Pending{1, std::move(w)});
  }
  initial.clear();

  // Aggregates one stream of tagged rows through the oracle's accumulation
  // code, then finalizes every group in arrival order into `finished`.
  // Rows arrive in original relative order, so per-group accumulation order
  // — and with it float sums — is bit-identical to the oracle's.
  struct GroupState {
    std::vector<AggState> states;
    int64_t first_index;
  };
  auto accumulate = [&](std::unordered_map<JoinKey, GroupState, JoinKeyHash>& groups,
                        std::vector<JoinKey>& order, const Row& tagged_row,
                        bool charge_groups) -> Status {
    const int64_t index = tagged_row[0].int64_value();
    const Row row(tagged_row.begin() + 1, tagged_row.end());
    JoinKey key = ExtractKey(row, group_pos);
    auto it = groups.find(key);
    if (it == groups.end()) {
      if (charge_groups) {
        MPPDB_RETURN_IF_ERROR(
            ChargeBudget(segment, group_bytes + RowPayloadBytes(key.values),
                         "hash aggregate group"));
      }
      GroupState fresh;
      fresh.states.assign(num_aggs, AggState());
      fresh.first_index = index;
      it = groups.emplace(key, std::move(fresh)).first;
      order.push_back(std::move(key));
    }
    std::vector<AggState>& states = it->second.states;
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggItem& agg = node.aggs()[a];
      AggState& state = states[a];
      if (agg.func == AggFunc::kCountStar) {
        ++state.count;
        continue;
      }
      MPPDB_ASSIGN_OR_RETURN(Datum v, EvalExpr(agg.arg, layout, row));
      if (v.is_null()) continue;
      MPPDB_RETURN_IF_ERROR(AccumulateAgg(state, agg.func, v));
    }
    return Status::OK();
  };
  auto finalize = [&](std::unordered_map<JoinKey, GroupState, JoinKeyHash>& groups,
                      std::vector<JoinKey>& order) {
    for (const JoinKey& key : order) {
      GroupState& group = groups.at(key);
      Row row = key.values;
      for (size_t a = 0; a < num_aggs; ++a) {
        row.push_back(FinalizeAgg(group.states[a], node.aggs()[a].func));
      }
      finished.push_back(TaggedGroup{group.first_index, std::move(row)});
    }
  };

  while (!work.empty()) {
    Pending pending = std::move(work.back());
    work.pop_back();
    PartWriter& part = pending.part;
    if (part.rows == 0) continue;

    // The partition's whole-row footprint bounds its grouping state (one
    // group per row at worst), so a charged partition aggregates with no
    // per-group charges.
    MPPDB_ASSIGN_OR_RETURN(bool charged, TryChargeSpill(segment, part.mem_bytes));
    if (charged) {
      auto aggregate_partition = [&]() -> Status {
        std::unordered_map<JoinKey, GroupState, JoinKeyHash> groups;
        std::vector<JoinKey> order;
        MPPDB_RETURN_IF_ERROR(part.file->Rewind());
        std::vector<Row> batch;
        size_t checks = 0;
        for (;;) {
          batch.clear();
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.read"));
          MPPDB_ASSIGN_OR_RETURN(size_t bytes, part.file->ReadBatch(&batch));
          if (bytes == 0) break;
          stats.spill_bytes_read += bytes;
          for (const Row& tagged_row : batch) {
            if (checks++ % TableStore::kChunkRows == 0) {
              MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
            }
            MPPDB_RETURN_IF_ERROR(
                accumulate(groups, order, tagged_row, /*charge_groups=*/false));
          }
        }
        finalize(groups, order);
        return Status::OK();
      };
      Status agg_status = aggregate_partition();
      ctx_->budget().Release(part.mem_bytes);
      MPPDB_RETURN_IF_ERROR(agg_status);
      continue;
    }

    if (pending.depth < kMaxSpillDepth) {
      ++stats.spill_passes;
      std::vector<PartWriter> children(kSpillFanout);
      MPPDB_RETURN_IF_ERROR(part.file->Rewind());
      std::vector<Row> batch;
      for (;;) {
        batch.clear();
        MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.read"));
        MPPDB_ASSIGN_OR_RETURN(size_t bytes, part.file->ReadBatch(&batch));
        if (bytes == 0) break;
        stats.spill_bytes_read += bytes;
        for (Row& row : batch) {
          JoinKey key = ExtractKeyAt(row, group_pos, 1);
          MPPDB_RETURN_IF_ERROR(
              add(children[PartitionOf(key, pending.depth)], std::move(row)));
        }
      }
      for (PartWriter& child : children) {
        MPPDB_RETURN_IF_ERROR(flush(child));
        work.push_back(Pending{pending.depth + 1, std::move(child)});
      }
      continue;
    }

    // Depth exhausted (e.g. all rows share one group key): stream the
    // partition with the oracle's own per-group mandatory charges — state
    // here is truly per-distinct-group, so a one-group partition needs O(1)
    // memory however large the file is. If even the distinct groups don't
    // fit, this surfaces the oracle's kResourceExhausted.
    {
      size_t charged_bytes = 0;
      auto stream_partition = [&]() -> Status {
        std::unordered_map<JoinKey, GroupState, JoinKeyHash> groups;
        std::vector<JoinKey> order;
        MPPDB_RETURN_IF_ERROR(part.file->Rewind());
        std::vector<Row> batch;
        size_t checks = 0;
        for (;;) {
          batch.clear();
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.read"));
          MPPDB_ASSIGN_OR_RETURN(size_t bytes, part.file->ReadBatch(&batch));
          if (bytes == 0) break;
          stats.spill_bytes_read += bytes;
          for (const Row& tagged_row : batch) {
            if (checks++ % TableStore::kChunkRows == 0) {
              MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
            }
            const size_t before = order.size();
            MPPDB_RETURN_IF_ERROR(
                accumulate(groups, order, tagged_row, /*charge_groups=*/true));
            if (order.size() > before) {
              charged_bytes +=
                  group_bytes + RowPayloadBytes(order.back().values);
            }
          }
        }
        finalize(groups, order);
        return Status::OK();
      };
      Status stream_status = stream_partition();
      ctx_->budget().Release(charged_bytes);
      MPPDB_RETURN_IF_ERROR(stream_status);
    }
  }

  std::sort(finished.begin(), finished.end(),
            [](const TaggedGroup& a, const TaggedGroup& b) {
              return a.first_index < b.first_index;
            });
  std::vector<Row> out;
  out.reserve(finished.size());
  for (TaggedGroup& g : finished) out.push_back(std::move(g.row));
  return out;
}

Result<std::vector<Row>> Executor::SpillSortRows(
    const SortNode& node, int segment, std::vector<Row> rows,
    const std::vector<int>& positions, const std::vector<bool>& ascending,
    size_t sort_bytes) {
  (void)node;
  ExecStats& stats = seg_stats_[static_cast<size_t>(segment)];
  const size_t n = rows.size();
  const size_t num_keys = positions.size();
  // No keys: every row compares equal, a stable sort is the identity.
  if (num_keys == 0 || n == 0) return rows;
  MPPDB_ASSIGN_OR_RETURN(SpillFileManager * manager, EnsureSpillManager());

  // One key encoding for the whole input, so run generation and every merge
  // level order rows alike: exactly the oracle's Datum::Compare order.
  const SortKeys keys(positions, ascending, rows);
  const size_t width = keys.width();

  // Budget-sized runs: halve from the full input until the run buffer fits,
  // flooring at kMinRunRows where the charge becomes mandatory.
  const size_t per_row = (sort_bytes + n - 1) / n;
  size_t run_rows = n;
  size_t run_charge = 0;
  for (;;) {
    run_charge = run_rows * per_row;
    MPPDB_ASSIGN_OR_RETURN(bool charged, TryChargeSpill(segment, run_charge));
    if (charged) break;
    if (run_rows <= kMinRunRows) {
      MPPDB_RETURN_IF_ERROR(ChargeBudget(segment, run_charge, "sort run buffer"));
      break;
    }
    run_rows /= 2;
  }

  // Read-back frame size for the merge: sized so one merge group's buffers
  // (kMergeFanIn frames) cost about half a run buffer — memory the merge
  // can charge because the run buffer has been released by then.
  const size_t frame_rows = std::max<size_t>(1, run_rows / (2 * kMergeFanIn));

  // Run generation: order contiguous slices as the oracle does and spill
  // each as one run file, framed for the merge's read-back. A frame is
  // encoded straight from the input rows through its slice's permutation,
  // and a run's rows are freed once it is written.
  struct RunState {
    std::unique_ptr<SpillFile> file;
    std::vector<Row> frame;       // the frame being merged; empty at the end
    std::vector<uint64_t> words;  // frame's key words, encoded on read-back
  };
  std::vector<RunState> runs;
  ++stats.spill_passes;
  {
    auto generate = [&]() -> Status {
      for (size_t base = 0; base < n; base += run_rows) {
        MPPDB_RETURN_IF_ERROR(CheckExec(segment, "exec.batch"));
        const size_t end = std::min(n, base + run_rows);
        const std::vector<uint32_t> order = keys.Order(rows, base, end);
        MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.open"));
        MPPDB_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> file, manager->Create());
        for (size_t f = 0; f < order.size(); f += frame_rows) {
          const size_t count = std::min(frame_rows, order.size() - f);
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.write"));
          MPPDB_ASSIGN_OR_RETURN(
              size_t bytes, file->WriteBatch(rows.data() + base, count, order.data() + f));
          stats.spill_bytes_written += bytes;
        }
        // Freed in input order, the order they were allocated in: the
        // allocator then coalesces neighbouring blocks instead of chasing
        // a permutation through the heap.
        for (size_t i = base; i < end; ++i) rows[i] = Row();
        runs.push_back(RunState{std::move(file)});
      }
      return Status::OK();
    };
    Status gen_status = generate();
    rows.clear();
    rows.shrink_to_fit();
    ctx_->budget().Release(run_charge);
    MPPDB_RETURN_IF_ERROR(gen_status);
  }
  stats.sort_runs += runs.size();

  // K-way merge, cascading when there are more runs than the fan-in so
  // read-back buffers stay bounded. Equal keys break toward the
  // lower-numbered (earlier-input) run at every level: a stable merge of
  // stable-sorted contiguous slices — exactly the oracle's global stable
  // sort. Each level's buffers are charged before use and released after.
  //
  // Reads `run`'s next frame and encodes its key words; the frame comes
  // back empty at the end of the run.
  auto refill = [&](RunState& run) -> Status {
    run.frame.clear();
    MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.read"));
    MPPDB_ASSIGN_OR_RETURN(size_t bytes, run.file->ReadBatch(&run.frame));
    stats.spill_bytes_read += bytes;
    run.words.resize(run.frame.size() * width);
    for (size_t i = 0; i < run.frame.size(); ++i) {
      keys.Encode(run.frame[i], run.words.data() + i * width);
    }
    return Status::OK();
  };
  // Merges runs[begin, end) in run order, moving each merged row into `out`
  // and calling `flush` whenever `out` holds `flush_rows` rows. A run is
  // refilled only when its frame is used up.
  auto merge_group = [&](size_t begin, size_t end, std::vector<Row>& out,
                         size_t flush_rows, const auto& flush) -> Status {
    // The head row of each run with rows left, in run order.
    struct Head {
      RunState* run;
      const uint64_t* words;
      Row* row;
      Row* frame_end;
    };
    auto head_of = [](RunState& run) {
      return Head{&run, run.words.data(), run.frame.data(),
                  run.frame.data() + run.frame.size()};
    };
    std::vector<Head> heads;
    for (size_t r = begin; r < end; ++r) {
      MPPDB_RETURN_IF_ERROR(runs[r].file->Rewind());
      MPPDB_RETURN_IF_ERROR(refill(runs[r]));
      if (!runs[r].frame.empty()) heads.push_back(head_of(runs[r]));
    }
    while (!heads.empty()) {
      size_t best = 0;
      for (size_t i = 1; i < heads.size(); ++i) {
        if (keys.Compare(heads[i].words, *heads[i].row, heads[best].words,
                         *heads[best].row) < 0) {
          best = i;
        }
      }
      Head& head = heads[best];
      out.push_back(std::move(*head.row));
      if (out.size() == flush_rows) MPPDB_RETURN_IF_ERROR(flush());
      head.words += width;
      if (++head.row == head.frame_end) {
        MPPDB_RETURN_IF_ERROR(refill(*head.run));
        if (head.run->frame.empty()) {
          heads.erase(heads.begin() + static_cast<ptrdiff_t>(best));
        } else {
          head = head_of(*head.run);
        }
      }
    }
    return Status::OK();
  };
  const size_t group_buffer_charge =
      (kMergeFanIn + 1) * frame_rows * per_row;
  while (runs.size() > kMergeFanIn) {
    ++stats.spill_passes;
    std::vector<RunState> next;
    for (size_t begin = 0; begin < runs.size(); begin += kMergeFanIn) {
      const size_t end = std::min(runs.size(), begin + kMergeFanIn);
      MPPDB_RETURN_IF_ERROR(ChargeBudget(segment, group_buffer_charge,
                                         "sort merge read buffers"));
      auto merge_to_file = [&]() -> Status {
        MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.open"));
        MPPDB_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> file,
                               manager->Create());
        std::vector<Row> buffer;
        auto flush_merged = [&]() -> Status {
          if (buffer.empty()) return Status::OK();
          MPPDB_RETURN_IF_ERROR(CheckExec(segment, "spill.write"));
          MPPDB_ASSIGN_OR_RETURN(size_t bytes,
                                 file->WriteBatch(buffer.data(), buffer.size()));
          stats.spill_bytes_written += bytes;
          buffer.clear();
          return Status::OK();
        };
        MPPDB_RETURN_IF_ERROR(merge_group(begin, end, buffer, frame_rows, flush_merged));
        MPPDB_RETURN_IF_ERROR(flush_merged());
        next.push_back(RunState{std::move(file)});
        return Status::OK();
      };
      Status merge_status = merge_to_file();
      ctx_->budget().Release(group_buffer_charge);
      MPPDB_RETURN_IF_ERROR(merge_status);
    }
    runs = std::move(next);
  }
  ++stats.spill_passes;
  const size_t final_buffer_charge = runs.size() * frame_rows * per_row;
  MPPDB_RETURN_IF_ERROR(
      ChargeBudget(segment, final_buffer_charge, "sort merge read buffers"));
  std::vector<Row> out;
  out.reserve(n);
  Status final_status = merge_group(0, runs.size(), out, SIZE_MAX,
                                    [] { return Status::OK(); });
  ctx_->budget().Release(final_buffer_charge);
  MPPDB_RETURN_IF_ERROR(final_status);
  return out;
}

}  // namespace mppdb
