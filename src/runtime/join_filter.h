#ifndef MPPDB_RUNTIME_JOIN_FILTER_H_
#define MPPDB_RUNTIME_JOIN_FILTER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "storage/synopsis.h"
#include "types/row.h"

namespace mppdb {

/// Partitioned (split-block) bloom filter over 64-bit join-key hashes: the
/// filter is an array of 256-bit blocks, each split into eight 32-bit lanes;
/// a key selects one block with its high hash bits and sets/tests one bit per
/// lane derived from its low hash bits through per-lane odd multipliers. One
/// cache line per probe, and insertion is a pure bit-OR — commutative, so a
/// filter built from the same key multiset is bit-identical regardless of
/// insertion order (1-worker and pool builds agree).
class BlockedBloomFilter {
 public:
  BlockedBloomFilter() = default;

  /// Sizes the filter for ~`expected_keys` distinct keys (block count is the
  /// next power of two of expected_keys / 8, i.e. ≥32 bits per key).
  explicit BlockedBloomFilter(size_t expected_keys);

  void Insert(uint64_t hash);
  bool MayContain(uint64_t hash) const;

  size_t num_blocks() const { return blocks_.size(); }

 private:
  static constexpr size_t kLanes = 8;
  using Block = std::array<uint32_t, kLanes>;

  size_t BlockIndex(uint64_t hash) const {
    // Multiply-shift range reduction on the high 32 bits; the low 32 bits
    // are reserved for the in-block lane masks.
    return static_cast<size_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(hash >> 32)) *
         static_cast<uint64_t>(blocks_.size())) >>
        32);
  }
  static Block MaskFor(uint64_t hash);

  std::vector<Block> blocks_;
};

/// Exact min/max of one build-key column over the rows folded into a
/// JoinFilterSummary. `valid` only when at least one row was folded and all
/// key values stayed in a single comparison family (mirrors the
/// ColumnSynopsis `comparable` contract, so the range can be probed against
/// zone maps without cross-family Datum::Compare).
struct JoinFilterKeyRange {
  Datum min;
  Datum max;
  bool valid = false;
};

/// Value-level summary of a hash join's build keys, published through the
/// PartitionPropagationHub and consumed by probe-side scans: exact per-column
/// min/max (composes with the zone-map synopses to skip whole chunks and
/// slices) plus a blocked bloom filter over the combined key hash (rejects
/// surviving rows before they reach the join hash table or a Motion).
///
/// Only rows whose key columns are all non-null are folded in — NULL keys
/// never match an equi join — so a probe row with any NULL key is always
/// rejected, and an empty build side rejects every probe row.
struct JoinFilterSummary {
  /// Build rows folded in (all key columns non-null).
  size_t build_rows = 0;
  std::vector<JoinFilterKeyRange> key_ranges;  ///< one per key column
  BlockedBloomFilter bloom;

  /// Row-level probe: false if the row provably cannot join (NULL key, a key
  /// outside the build min/max or its comparison family, or a bloom miss).
  /// `positions` index the key columns inside `row`.
  bool RowMayMatch(const Row& row, const std::vector<int>& positions) const;

  /// RowMayMatch with the combined key hash precomputed: the batch
  /// probe hashes a surviving selection vector in one batch pass, then tests
  /// each row here. `key_hash` must be the CombineKeyHash fold over the same
  /// positions (see exec/join_hash.h); verdicts are identical to
  /// RowMayMatch's.
  bool RowMayMatchHashed(const Row& row, const std::vector<int>& positions,
                         uint64_t key_hash) const;

  /// Chunk-level probe (the synopsis probe API): true if the chunk's zone
  /// maps prove no row in it can pass RowMayMatch — some key column's
  /// non-null values all fall outside the build range, or the column is
  /// all-NULL, or the build side is empty. Conservative on untrustworthy
  /// synopses (mixed families).
  bool ChunkProvablyDisjoint(const ChunkSynopsis& chunk,
                             const std::vector<int>& positions) const;
};

/// Incremental builder: fold rows (from the join's materialized build side,
/// or from every source batch of a build-side Motion), then Finish(). The
/// expected row count must be final before the first Add — it sizes the
/// bloom filter — which is always available here because both producers
/// materialize their input before folding.
class JoinFilterSummaryBuilder {
 public:
  JoinFilterSummaryBuilder(size_t num_keys, size_t expected_rows);

  void Add(const Row& row, const std::vector<int>& key_positions);

  JoinFilterSummary Finish() { return std::move(summary_); }

 private:
  JoinFilterSummary summary_;
};

}  // namespace mppdb

#endif  // MPPDB_RUNTIME_JOIN_FILTER_H_
