#include "runtime/join_filter.h"

#include "common/macros.h"
#include "exec/join_hash.h"
#include "expr/eval.h"

namespace mppdb {

namespace {

/// Per-lane odd multipliers (Arrow/impala-style split-block constants): each
/// lane derives its bit index from the same 32 low hash bits through a
/// distinct odd multiplicative hash, keeping the eight bits independent.
constexpr std::array<uint32_t, 8> kLaneSalts = {
    0x47b6137bu, 0x44974d91u, 0x8824ad5bu, 0xa2b7289du,
    0x705495c7u, 0x2df1424bu, 0x9efc4947u, 0x5c6bfb31u};

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Combined key hash of `positions` inside `row` — the exact CombineKeyHash
/// fold the join hash tables use, so the batch probe can reuse its
/// precomputed per-row key hashes against the bloom filter.
uint64_t KeyHash(const Row& row, const std::vector<int>& positions) {
  uint64_t h = kKeyHashSeed;
  for (int pos : positions) h = CombineKeyHash(h, row[static_cast<size_t>(pos)]);
  return h;
}

}  // namespace

BlockedBloomFilter::BlockedBloomFilter(size_t expected_keys) {
  const size_t blocks = NextPow2((expected_keys + kLanes - 1) / kLanes);
  blocks_.resize(blocks == 0 ? 1 : blocks, Block{});
}

BlockedBloomFilter::Block BlockedBloomFilter::MaskFor(uint64_t hash) {
  const uint32_t h = static_cast<uint32_t>(hash);
  Block mask;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    mask[lane] = uint32_t{1} << ((kLaneSalts[lane] * h) >> 27);
  }
  return mask;
}

void BlockedBloomFilter::Insert(uint64_t hash) {
  MPPDB_CHECK(!blocks_.empty());
  Block& block = blocks_[BlockIndex(hash)];
  const Block mask = MaskFor(hash);
  for (size_t lane = 0; lane < kLanes; ++lane) block[lane] |= mask[lane];
}

bool BlockedBloomFilter::MayContain(uint64_t hash) const {
  MPPDB_CHECK(!blocks_.empty());
  const Block& block = blocks_[BlockIndex(hash)];
  const Block mask = MaskFor(hash);
  for (size_t lane = 0; lane < kLanes; ++lane) {
    if ((block[lane] & mask[lane]) != mask[lane]) return false;
  }
  return true;
}

namespace {

/// Shared min/max + NULL gate of RowMayMatch/RowMayMatchHashed.
bool RangesAccept(const JoinFilterSummary& summary, const Row& row,
                  const std::vector<int>& positions) {
  MPPDB_CHECK(positions.size() == summary.key_ranges.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    const Datum& v = row[static_cast<size_t>(positions[i])];
    if (v.is_null()) return false;  // NULL keys never join
    const JoinFilterKeyRange& range = summary.key_ranges[i];
    if (!range.valid) continue;  // mixed-family build keys: bloom only
    // A probe value outside the build keys' comparison family can never
    // compare equal to any of them (and Datum::Compare would abort).
    if (!DatumsComparable(v, range.min)) return false;
    if (Datum::Compare(v, range.min) < 0 || Datum::Compare(v, range.max) > 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool JoinFilterSummary::RowMayMatch(const Row& row,
                                    const std::vector<int>& positions) const {
  if (build_rows == 0) return false;
  if (!RangesAccept(*this, row, positions)) return false;
  return bloom.MayContain(KeyHash(row, positions));
}

bool JoinFilterSummary::RowMayMatchHashed(const Row& row,
                                          const std::vector<int>& positions,
                                          uint64_t key_hash) const {
  if (build_rows == 0) return false;
  if (!RangesAccept(*this, row, positions)) return false;
  return bloom.MayContain(key_hash);
}

bool JoinFilterSummary::ChunkProvablyDisjoint(
    const ChunkSynopsis& chunk, const std::vector<int>& positions) const {
  if (build_rows == 0) return true;  // empty build side rejects every row
  MPPDB_CHECK(positions.size() == key_ranges.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    const size_t pos = static_cast<size_t>(positions[i]);
    if (pos >= chunk.columns.size()) return false;
    const JoinFilterKeyRange& range = key_ranges[i];
    const ColumnSynopsis& col = chunk.columns[pos];
    // All-NULL key columns are covered by ProvablyDisjointFrom even when the
    // build range is invalid; otherwise an invalid range proves nothing.
    if (!range.valid) {
      if (col.non_null_count == 0 && col.null_count > 0) return true;
      continue;
    }
    if (col.ProvablyDisjointFrom(range.min, range.max)) return true;
  }
  return false;
}

JoinFilterSummaryBuilder::JoinFilterSummaryBuilder(size_t num_keys,
                                                   size_t expected_rows) {
  summary_.key_ranges.resize(num_keys);
  summary_.bloom = BlockedBloomFilter(expected_rows);
}

void JoinFilterSummaryBuilder::Add(const Row& row,
                                   const std::vector<int>& key_positions) {
  MPPDB_CHECK(key_positions.size() == summary_.key_ranges.size());
  for (int pos : key_positions) {
    if (row[static_cast<size_t>(pos)].is_null()) return;  // never joins
  }
  ++summary_.build_rows;
  for (size_t i = 0; i < key_positions.size(); ++i) {
    const Datum& v = row[static_cast<size_t>(key_positions[i])];
    JoinFilterKeyRange& range = summary_.key_ranges[i];
    if (summary_.build_rows == 1) {
      range.min = v;
      range.max = v;
      range.valid = true;
      continue;
    }
    if (!range.valid) continue;
    if (!DatumsComparable(range.min, v)) {
      range.valid = false;  // mixed families: range untrustworthy
      continue;
    }
    if (Datum::Compare(v, range.min) < 0) range.min = v;
    if (Datum::Compare(v, range.max) > 0) range.max = v;
  }
  summary_.bloom.Insert(KeyHash(row, key_positions));
}

}  // namespace mppdb
