#include "storage/column_store.h"

#include <algorithm>

#include "common/macros.h"
#include "common/memory_budget.h"
#include "expr/eval.h"

namespace mppdb {

namespace {

/// Guarded equality for run detection: Datum::Compare aborts across
/// comparison families, so runs never compare across one.
bool SameRunValue(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (!DatumsComparable(a, b)) return false;
  return Datum::Compare(a, b) == 0;
}

bool IsPackableType(TypeId type) {
  return type == TypeId::kBool || IsIntegral(type);
}

uint64_t PackedSlot(const std::vector<uint64_t>& words, size_t i, uint8_t bits) {
  if (bits == 0) return 0;
  const size_t bit = i * static_cast<size_t>(bits);
  const size_t word = bit >> 6;
  const size_t off = bit & 63;
  uint64_t v = words[word] >> off;
  if (off + bits > 64) v |= words[word + 1] << (64 - off);
  if (bits < 64) v &= (uint64_t{1} << bits) - 1;
  return v;
}

void StorePackedSlot(std::vector<uint64_t>* words, size_t i, uint8_t bits,
                     uint64_t v) {
  if (bits == 0) return;
  const size_t bit = i * static_cast<size_t>(bits);
  const size_t word = bit >> 6;
  const size_t off = bit & 63;
  (*words)[word] |= v << off;
  if (off + bits > 64) (*words)[word + 1] |= v >> (64 - off);
}

uint8_t BitsFor(uint64_t range) {
  uint8_t bits = 0;
  while (range != 0) {
    ++bits;
    range >>= 1;
  }
  return bits;
}

Datum PackedDatum(TypeId type, int64_t v) {
  switch (type) {
    case TypeId::kBool:
      return Datum::Bool(v != 0);
    case TypeId::kInt32:
      return Datum::Int32(static_cast<int32_t>(v));
    case TypeId::kDate:
      return Datum::Date(static_cast<int32_t>(v));
    default:
      return Datum::Int64(v);
  }
}

size_t DatumVectorBytes(const std::vector<Datum>& values) {
  size_t bytes = 0;
  for (const Datum& v : values) bytes += ApproxDatumBytes(v);
  return bytes;
}

}  // namespace

const char* ColumnEncodingName(ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kPlain:
      return "plain";
    case ColumnEncoding::kDictionary:
      return "dict";
    case ColumnEncoding::kRunLength:
      return "rle";
    case ColumnEncoding::kBitPacked:
      return "bitpack";
  }
  return "?";
}

size_t ApproxDatumBytes(const Datum& d) {
  size_t bytes = kModelledPlainDatumBytes;
  if (!d.is_null() && d.type() == TypeId::kString) bytes += d.string_value().size();
  return bytes;
}

bool EncodedColumnChunk::IsNullAt(size_t i) const {
  switch (encoding) {
    case ColumnEncoding::kDictionary:
      return codes[i] == kNullCode;
    case ColumnEncoding::kRunLength: {
      size_t base = 0;
      for (size_t r = 0; r < run_values.size(); ++r) {
        base += run_lengths[r];
        if (i < base) return run_values[r].is_null();
      }
      return false;
    }
    case ColumnEncoding::kBitPacked:
      return !null_bitmap.empty() && (null_bitmap[i >> 3] >> (i & 7) & 1) != 0;
    case ColumnEncoding::kPlain:
      return plain[i].is_null();
  }
  return false;
}

Datum EncodedColumnChunk::ValueAt(size_t i) const {
  switch (encoding) {
    case ColumnEncoding::kDictionary:
      return codes[i] == kNullCode ? Datum::Null() : dict[codes[i]];
    case ColumnEncoding::kRunLength: {
      size_t base = 0;
      for (size_t r = 0; r < run_values.size(); ++r) {
        base += run_lengths[r];
        if (i < base) return run_values[r];
      }
      MPPDB_CHECK(false);
      return Datum::Null();
    }
    case ColumnEncoding::kBitPacked:
      if (IsNullAt(i)) return Datum::Null();
      return PackedDatum(packed_type, PackedValueAt(i));
    case ColumnEncoding::kPlain:
      return plain[i];
  }
  return Datum::Null();
}

int64_t EncodedColumnChunk::PackedValueAt(size_t i) const {
  return packed_base +
         static_cast<int64_t>(PackedSlot(packed_words, i, packed_bits));
}

void EncodedColumnChunk::AppendValuesTo(std::vector<Datum>* out) const {
  switch (encoding) {
    case ColumnEncoding::kDictionary:
      for (uint32_t code : codes) {
        out->push_back(code == kNullCode ? Datum::Null() : dict[code]);
      }
      return;
    case ColumnEncoding::kRunLength:
      for (size_t r = 0; r < run_values.size(); ++r) {
        for (uint32_t k = 0; k < run_lengths[r]; ++k) out->push_back(run_values[r]);
      }
      return;
    case ColumnEncoding::kBitPacked:
      for (size_t i = 0; i < row_count; ++i) {
        out->push_back(IsNullAt(i) ? Datum::Null()
                                   : PackedDatum(packed_type, PackedValueAt(i)));
      }
      return;
    case ColumnEncoding::kPlain:
      out->insert(out->end(), plain.begin(), plain.end());
      return;
  }
}

EncodedColumnChunk EncodeColumnChunk(const std::vector<Row>& rows, size_t begin,
                                     size_t end, size_t col) {
  EncodedColumnChunk chunk;
  const size_t n = end - begin;
  chunk.row_count = n;

  // Analysis pass, in row order so `stats` matches the row path's AddValue
  // fold bit for bit. Distinct values are tracked into a sorted candidate
  // dictionary until it overflows kMaxDictSize or a second comparison family
  // appears (cross-family Compare would abort; such chunks go plain).
  size_t runs = 0;
  bool dict_ok = true;
  std::vector<Datum> distinct;
  bool all_packable = true;
  TypeId packed_type = TypeId::kInt64;
  bool saw_non_null = false;
  int64_t min_i64 = 0, max_i64 = 0;
  for (size_t i = begin; i < end; ++i) {
    const Datum& v = rows[i][col];
    const bool was_comparable = chunk.stats.comparable;
    chunk.stats.AddValue(v);
    chunk.plain_bytes += ApproxDatumBytes(v);
    if (i == begin || !SameRunValue(rows[i - 1][col], v)) ++runs;
    if (was_comparable && !chunk.stats.comparable) dict_ok = false;
    if (!v.is_null()) {
      if (!saw_non_null) {
        saw_non_null = true;
        packed_type = v.type();
        if (IsPackableType(packed_type)) {
          min_i64 = max_i64 = v.AsInt64();
        } else {
          all_packable = false;
        }
      } else if (all_packable) {
        if (v.type() != packed_type) {
          all_packable = false;
        } else {
          const int64_t x = v.AsInt64();
          min_i64 = std::min(min_i64, x);
          max_i64 = std::max(max_i64, x);
        }
      }
      if (dict_ok) {
        auto it = std::lower_bound(distinct.begin(), distinct.end(), v);
        if (it == distinct.end() || !it->Equals(v)) {
          if (distinct.size() >= EncodedColumnChunk::kMaxDictSize) {
            dict_ok = false;
            distinct.clear();
          } else {
            distinct.insert(it, v);
          }
        }
      }
    }
  }
  if (!saw_non_null) all_packable = false;
  const bool mixed = !chunk.stats.comparable;

  // Selection (DESIGN.md §12): long runs beat everything; then a small
  // dictionary; then frame-of-reference packing for single-type integrals;
  // plain otherwise. Mixed-family chunks always go plain.
  ColumnEncoding choice = ColumnEncoding::kPlain;
  if (!mixed) {
    if (runs * 8 <= n) {
      choice = ColumnEncoding::kRunLength;
    } else if (dict_ok && distinct.size() <= n / 2) {
      choice = ColumnEncoding::kDictionary;
    } else if (all_packable) {
      choice = ColumnEncoding::kBitPacked;
    }
  }
  chunk.encoding = choice;

  switch (choice) {
    case ColumnEncoding::kRunLength: {
      for (size_t i = begin; i < end; ++i) {
        const Datum& v = rows[i][col];
        if (i == begin || !SameRunValue(rows[i - 1][col], v)) {
          chunk.run_values.push_back(v);
          chunk.run_lengths.push_back(1);
        } else {
          ++chunk.run_lengths.back();
        }
      }
      chunk.encoded_bytes = DatumVectorBytes(chunk.run_values) +
                            chunk.run_lengths.size() * sizeof(uint32_t) + 16;
      break;
    }
    case ColumnEncoding::kDictionary: {
      chunk.dict = std::move(distinct);
      chunk.codes.reserve(n);
      for (size_t i = begin; i < end; ++i) {
        const Datum& v = rows[i][col];
        if (v.is_null()) {
          chunk.codes.push_back(EncodedColumnChunk::kNullCode);
          continue;
        }
        auto it = std::lower_bound(chunk.dict.begin(), chunk.dict.end(), v);
        chunk.codes.push_back(
            static_cast<uint32_t>(std::distance(chunk.dict.begin(), it)));
      }
      chunk.encoded_bytes = DatumVectorBytes(chunk.dict) +
                            chunk.codes.size() * sizeof(uint32_t) + 16;
      break;
    }
    case ColumnEncoding::kBitPacked: {
      chunk.packed_type = packed_type;
      chunk.packed_base = min_i64;
      chunk.packed_bits = BitsFor(static_cast<uint64_t>(max_i64) -
                                  static_cast<uint64_t>(min_i64));
      const size_t total_bits = n * static_cast<size_t>(chunk.packed_bits);
      chunk.packed_words.assign((total_bits + 63) / 64 + 1, 0);
      bool any_null = false;
      for (size_t i = begin; i < end; ++i) {
        const Datum& v = rows[i][col];
        if (v.is_null()) {
          if (!any_null) {
            any_null = true;
            chunk.null_bitmap.assign((n + 7) / 8, 0);
          }
          const size_t r = i - begin;
          chunk.null_bitmap[r >> 3] |= static_cast<uint8_t>(1u << (r & 7));
          continue;
        }
        StorePackedSlot(&chunk.packed_words, i - begin, chunk.packed_bits,
                        static_cast<uint64_t>(v.AsInt64()) -
                            static_cast<uint64_t>(chunk.packed_base));
      }
      chunk.encoded_bytes = chunk.packed_words.size() * sizeof(uint64_t) +
                            chunk.null_bitmap.size() + 24;
      break;
    }
    case ColumnEncoding::kPlain: {
      chunk.plain.reserve(n);
      for (size_t i = begin; i < end; ++i) chunk.plain.push_back(rows[i][col]);
      chunk.encoded_bytes = chunk.plain_bytes;
      break;
    }
  }
  return chunk;
}

size_t SliceColumns::ChunkEncodedBytes(size_t chunk) const {
  size_t bytes = 0;
  for (const auto& column : columns) bytes += column[chunk].encoded_bytes;
  return bytes;
}

SliceColumns EncodeSlice(const std::vector<Row>& rows, size_t num_columns) {
  SliceColumns cols;
  cols.row_count = rows.size();
  cols.num_columns = num_columns;
  cols.columns.resize(num_columns);
  const size_t chunks = cols.num_chunks();
  for (size_t c = 0; c < num_columns; ++c) cols.columns[c].reserve(chunks);
  for (size_t k = 0; k < chunks; ++k) {
    const size_t begin = k * kStorageChunkRows;
    const size_t end = std::min(rows.size(), begin + kStorageChunkRows);
    for (size_t c = 0; c < num_columns; ++c) {
      cols.columns[c].push_back(EncodeColumnChunk(rows, begin, end, c));
      cols.encoded_bytes += cols.columns[c].back().encoded_bytes;
      cols.plain_bytes += cols.columns[c].back().plain_bytes;
    }
  }
  return cols;
}

void MergeColumnSummary(ColumnSynopsis* into, const ColumnSynopsis& summary) {
  into->null_count += summary.null_count;
  if (summary.non_null_count == 0) return;
  const bool had_values = into->non_null_count > 0;
  into->non_null_count += summary.non_null_count;
  if (!summary.comparable) {
    // The source run itself mixes families; the merged run does too. min/max
    // stay frozen (and untrusted), matching AddValue's behavior.
    into->comparable = false;
    return;
  }
  if (!had_values) {
    into->min = summary.min;
    into->max = summary.max;
    return;
  }
  if (!into->comparable) return;
  if (!DatumsComparable(into->min, summary.min)) {
    into->comparable = false;
    return;
  }
  if (Datum::Compare(summary.min, into->min) < 0) into->min = summary.min;
  if (Datum::Compare(summary.max, into->max) > 0) into->max = summary.max;
}

SliceSynopsis SynopsisFromColumns(const SliceColumns& cols) {
  SliceSynopsis synopsis(cols.num_columns);
  const size_t chunks = cols.num_chunks();
  synopsis.chunks.reserve(chunks);
  for (size_t k = 0; k < chunks; ++k) {
    ChunkSynopsis chunk(cols.num_columns);
    for (size_t c = 0; c < cols.num_columns; ++c) {
      const EncodedColumnChunk& encoded = cols.columns[c][k];
      chunk.row_count = encoded.row_count;
      chunk.columns[c] = encoded.stats;
      MergeColumnSummary(&synopsis.rollup.columns[c], encoded.stats);
    }
    synopsis.rollup.row_count += chunk.row_count;
    synopsis.chunks.push_back(std::move(chunk));
  }
  return synopsis;
}

}  // namespace mppdb
