#ifndef MPPDB_STORAGE_SYNOPSIS_H_
#define MPPDB_STORAGE_SYNOPSIS_H_

#include <cstdint>
#include <vector>

#include "types/row.h"

namespace mppdb {

/// Rows per storage chunk. Chunks are logical: a slice stays one contiguous
/// row vector (row positions, rowids, and index entries are unchanged), and
/// chunk c covers positions [c * kStorageChunkRows, (c+1) * kStorageChunkRows).
/// Kept equal to KernelContext::kDefaultChunkRows so the fused
/// filter's batch boundaries coincide with synopsis chunk boundaries.
inline constexpr size_t kStorageChunkRows = 1024;

/// Zone-map summary of one column over one run of rows (a chunk, or a whole
/// (unit, segment) slice as the rollup): min/max over the non-null values,
/// null count, and whether all non-null values belong to a single comparison
/// family (see DatumsComparable) — the precondition for trusting min/max in
/// a skip decision, and for proving a comparison against the column cannot
/// raise a type-mismatch error.
struct ColumnSynopsis {
  /// Extremes of the non-null values; NULL Datums until the first non-null
  /// value arrives, frozen (and meaningless) once `comparable` drops.
  Datum min;
  Datum max;
  size_t null_count = 0;
  size_t non_null_count = 0;
  /// False as soon as non-null values of two different comparison families
  /// land in the column (rows are not type-checked on insert).
  bool comparable = true;

  void AddValue(const Datum& v);

  /// Range probe: true if no non-null value of the summarized run can lie in
  /// [lo, hi] — either the run is all-NULL, or its extremes are trustworthy
  /// and provably outside the (non-null, same-family) probe bounds.
  /// Conservative: returns false on mixed-family runs or when the probe
  /// bounds are in a different comparison family than the extremes (a
  /// cross-family Datum::Compare would abort). Used by predicate zone-map
  /// skipping's runtime extension: join-filter min/max ranges probe chunk and
  /// rollup synopses through this single entry point.
  bool ProvablyDisjointFrom(const Datum& lo, const Datum& hi) const;
};

/// Per-column synopses plus the row count of one chunk (or of a whole slice,
/// when used as a SliceSynopsis rollup).
struct ChunkSynopsis {
  size_t row_count = 0;
  std::vector<ColumnSynopsis> columns;

  ChunkSynopsis() = default;
  explicit ChunkSynopsis(size_t num_columns) : columns(num_columns) {}

  /// Folds one stored row in; `row` must have exactly columns.size() values.
  void AddRow(const Row& row);
};

/// All chunk synopses of one (unit, segment) slice plus a slice-wide rollup
/// (skipping the rollup skips every chunk at once). Maintained incrementally
/// on appends; invalidated by in-place DML through the slice's version
/// counter and rebuilt lazily on the next read (see TableStore).
struct SliceSynopsis {
  std::vector<ChunkSynopsis> chunks;
  ChunkSynopsis rollup;
  /// Slice version this synopsis reflects (TableStore version counter value;
  /// 0 = the never-mutated empty slice, which a fresh synopsis matches).
  uint64_t built_version = 0;

  SliceSynopsis() = default;
  explicit SliceSynopsis(size_t num_columns) : rollup(num_columns) {}

  /// Appends one row: extends the trailing chunk (allocating a new one at
  /// every kStorageChunkRows boundary) and the rollup.
  void Append(const Row& row);
};

}  // namespace mppdb

#endif  // MPPDB_STORAGE_SYNOPSIS_H_
