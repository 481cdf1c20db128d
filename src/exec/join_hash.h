#ifndef MPPDB_EXEC_JOIN_HASH_H_
#define MPPDB_EXEC_JOIN_HASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/eval.h"
#include "types/row.h"

namespace mppdb {

/// Folds one datum into a running 64-bit join-key hash (FNV offset basis +
/// boost-style combine). Both JoinKey hashing (spill partitions, grouping)
/// and the batch per-row key-hash precompute (the in-memory hash join) use
/// this exact formula, so both place identical hash codes into their hash
/// tables — a prerequisite for bit-identical equal-range iteration order
/// whether or not a join spills.
inline uint64_t CombineKeyHash(uint64_t h, const Datum& value) {
  return h ^ (value.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

inline constexpr uint64_t kKeyHashSeed = 0xcbf29ce484222325ull;

/// Hash-map key over a subset of row columns (hash join build keys, group-by
/// keys). Owns copies of the key datums.
struct JoinKey {
  std::vector<Datum> values;

  bool HasNull() const {
    for (const auto& v : values) {
      if (v.is_null()) return true;
    }
    return false;
  }

  bool operator==(const JoinKey& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (Datum::Compare(values[i], other.values[i]) != 0) return false;
    }
    return true;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& key) const {
    uint64_t h = kKeyHashSeed;
    for (const auto& v : key.values) h = CombineKeyHash(h, v);
    return static_cast<size_t>(h);
  }
};

inline JoinKey ExtractKey(const Row& row, const std::vector<int>& positions) {
  JoinKey key;
  key.values.reserve(positions.size());
  for (int pos : positions) key.values.push_back(row[static_cast<size_t>(pos)]);
  return key;
}

inline Result<std::vector<int>> ResolvePositions(const ColumnLayout& layout,
                                                 const std::vector<ColRefId>& ids) {
  std::vector<int> positions;
  positions.reserve(ids.size());
  for (ColRefId id : ids) {
    int pos = layout.PositionOf(id);
    if (pos < 0) {
      return Status::ExecutionError("column #" + std::to_string(id) +
                                    " not found in child layout");
    }
    positions.push_back(pos);
  }
  return positions;
}

/// A hash-join key viewed in place inside a materialized row, with its hash
/// precomputed by a batch pass. Unlike JoinKey, no datums are copied:
/// equality first compares the cached hashes (rejecting almost all bucket
/// collisions with one integer compare) and only then falls back to
/// positional datum comparison. Because Datum::Hash is equal for Equals()
/// datums, the hash shortcut never changes an equality verdict — so a hash
/// table keyed by RowKeyRef sees the same hash codes and the same equality
/// truth values as one keyed by JoinKey, and (given the same reserve and
/// insertion sequence) lays out its buckets identically.
struct RowKeyRef {
  uint64_t hash = 0;
  const Row* row = nullptr;
  const std::vector<int>* positions = nullptr;
};

struct RowKeyRefHash {
  size_t operator()(const RowKeyRef& key) const {
    return static_cast<size_t>(key.hash);
  }
};

struct RowKeyRefEq {
  bool operator()(const RowKeyRef& a, const RowKeyRef& b) const {
    if (a.hash != b.hash) return false;
    for (size_t i = 0; i < a.positions->size(); ++i) {
      const Datum& av = (*a.row)[static_cast<size_t>((*a.positions)[i])];
      const Datum& bv = (*b.row)[static_cast<size_t>((*b.positions)[i])];
      if (Datum::Compare(av, bv) != 0) return false;
    }
    return true;
  }
};

}  // namespace mppdb

#endif  // MPPDB_EXEC_JOIN_HASH_H_
