#ifndef MPPDB_STORAGE_COLUMN_STORE_H_
#define MPPDB_STORAGE_COLUMN_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/synopsis.h"
#include "types/data_type.h"
#include "types/row.h"

namespace mppdb {

/// Per-chunk physical encoding of one column (DESIGN.md §12). Chosen
/// adaptively per 1024-row chunk by EncodeColumnChunk; every encoding is
/// lossless (decode reproduces the exact Datum sequence, nulls included).
enum class ColumnEncoding : uint8_t {
  kPlain,       ///< Datum vector as-is (mixed families, high-NDV doubles/strings)
  kDictionary,  ///< sorted distinct values + per-row uint32 codes
  kRunLength,   ///< (value, run length) pairs
  kBitPacked,   ///< frame-of-reference bit-packed integers + null bitmap
};

const char* ColumnEncodingName(ColumnEncoding encoding);

/// Modelled plain footprint of a Datum: kModelledPlainDatumBytes plus a
/// string's characters. The unit of the bytes-scanned / bytes-saved accounting
/// in ExecStats and BENCH_storage.json; deliberately coarse but consistent
/// across call sites, and independent of sizeof(Datum).
size_t ApproxDatumBytes(const Datum& d);

/// One column over one 1024-row storage chunk, in its chosen encoding, plus
/// the chunk-level zone-map stats computed at encode time. `stats` is
/// bit-compatible with folding the same values through ColumnSynopsis::
/// AddValue in row order, so a slice synopsis can be assembled from encoded
/// chunks without decoding a single value (see SynopsisFromColumns).
struct EncodedColumnChunk {
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;
  /// Dictionary entries per chunk are capped so code tables stay L1-resident
  /// and per-dict-entry predicate work stays negligible next to the rows.
  static constexpr size_t kMaxDictSize = 256;

  ColumnEncoding encoding = ColumnEncoding::kPlain;
  size_t row_count = 0;
  ColumnSynopsis stats;

  /// kDictionary: sorted ascending (Datum::Compare), distinct, non-null.
  /// Sorted entries make codes order-preserving: a range predicate on values
  /// is a contiguous code range, and min/max are dict.front()/dict.back().
  std::vector<Datum> dict;
  /// kDictionary: one code per row; kNullCode marks NULL.
  std::vector<uint32_t> codes;

  /// kRunLength: maximal runs in row order; run values may be NULL.
  std::vector<Datum> run_values;
  std::vector<uint32_t> run_lengths;

  /// kBitPacked: all non-null values share this integral TypeId and are
  /// stored as (value - packed_base) in packed_bits-bit slots, little-endian
  /// within uint64 words. null_bitmap bit i set <=> row i is NULL (empty
  /// bitmap <=> no nulls).
  TypeId packed_type = TypeId::kInt64;
  int64_t packed_base = 0;
  uint8_t packed_bits = 0;
  std::vector<uint64_t> packed_words;
  std::vector<uint8_t> null_bitmap;

  /// kPlain.
  std::vector<Datum> plain;

  /// Approximate payload bytes of the chosen encoding / of the same values
  /// as raw Datums. encoded_bytes <= plain_bytes by the selection rule.
  size_t encoded_bytes = 0;
  size_t plain_bytes = 0;

  bool IsNullAt(size_t i) const;
  /// Random-access decode of row i (0 <= i < row_count).
  Datum ValueAt(size_t i) const;
  /// Full decode in row order, appended to *out.
  void AppendValuesTo(std::vector<Datum>* out) const;
  /// Bit-packed slot i as packed_base + raw slot value. Precondition:
  /// encoding == kBitPacked and row i is non-null.
  int64_t PackedValueAt(size_t i) const;
};

/// Encodes rows[begin, end) column `col` into the cheapest applicable
/// encoding (selection rules in DESIGN.md §12).
EncodedColumnChunk EncodeColumnChunk(const std::vector<Row>& rows, size_t begin,
                                     size_t end, size_t col);

/// The encoded image of one (unit, segment) slice: per column, one
/// EncodedColumnChunk per kStorageChunkRows-row chunk (same chunk boundaries
/// as SliceSynopsis). Built lazily by TableStore and staled by the slice
/// version counter, exactly like the synopsis.
struct SliceColumns {
  size_t row_count = 0;
  size_t num_columns = 0;
  /// columns[c][k] = chunk k of column c.
  std::vector<std::vector<EncodedColumnChunk>> columns;
  uint64_t built_version = 0;
  size_t encoded_bytes = 0;
  size_t plain_bytes = 0;

  size_t num_chunks() const {
    return (row_count + kStorageChunkRows - 1) / kStorageChunkRows;
  }
  /// Sum of encoded_bytes over one chunk's columns (bytes-scanned unit).
  size_t ChunkEncodedBytes(size_t chunk) const;
};

SliceColumns EncodeSlice(const std::vector<Row>& rows, size_t num_columns);

/// Assembles the slice synopsis from encoded chunk stats without decoding any
/// value: per-chunk columns are the stats captured at encode time (dictionary
/// min/max are dict.front()/back(), RLE extremes come from run values), and
/// the rollup merges the per-chunk summaries.
SliceSynopsis SynopsisFromColumns(const SliceColumns& cols);

/// Merges a per-chunk summary into a rollup, preserving AddValue's family
/// semantics for every field a skip decision may trust (min/max only while
/// `comparable`; counts always).
void MergeColumnSummary(ColumnSynopsis* into, const ColumnSynopsis& summary);

}  // namespace mppdb

#endif  // MPPDB_STORAGE_COLUMN_STORE_H_
