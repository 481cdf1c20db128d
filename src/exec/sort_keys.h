#ifndef MPPDB_EXEC_SORT_KEYS_H_
#define MPPDB_EXEC_SORT_KEYS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "types/row.h"

namespace mppdb {

/// Normalized sort keys, shared by Sort, the external sort's runs and merge,
/// and TopN (DESIGN.md §6). Built once per operator from every row it will
/// order, a SortKeys encodes each key column of a row into one fixed-width,
/// order-preserving uint64 word, so rows are ordered by integer compares
/// instead of Datum::Compare calls.
///
/// The order is exactly the lexicographic Datum::Compare order over the key
/// columns, each reversed when descending (NULL first ascending, last
/// descending). Each column takes one encoding, chosen from the values it
/// holds:
///  - INT / BIGINT / DATE: the sign-flipped int64.
///  - DOUBLE, or integers and doubles mixed when every integer satisfies
///    |v| <= 2^53 (exact in a double, so Compare's AsDouble path agrees):
///    the IEEE bits mapped to unsigned order, -0.0 canonicalised to +0.0.
///  - BOOL: 1 / 2.
///  - VARCHAR: the first 8 bytes big-endian, zero-padded. Inexact: equal
///    words fall back to Datum::Compare on that column.
///  - Anything else (a NaN, integers beyond 2^53 mixed with doubles, a
///    column mixing type families, or INT64_MIN beside a NULL): word 0 and
///    Datum::Compare on every comparison, which is today's ordering.
/// NULL encodes as 0, below every exact value word; a descending column
/// complements its words.
class SortKeys {
 public:
  /// Plans the encoding of the key columns `positions` (with their
  /// directions) from the values `rows` holds there.
  SortKeys(const std::vector<int>& positions, const std::vector<bool>& ascending,
           const std::vector<Row>& rows);

  /// Words per encoded row: one per key column.
  size_t width() const { return cols_.size(); }

  /// Writes `row`'s width() key words to `out`.
  void Encode(const Row& row, uint64_t* out) const;

  /// Three-way comparison of two rows given their encoded words: negative
  /// when `a` sorts first. Equal to the lexicographic Datum::Compare order
  /// with each column's direction applied.
  int Compare(const uint64_t* a_words, const Row& a, const uint64_t* b_words,
              const Row& b) const {
    for (size_t i = 0; i < cols_.size(); ++i) {
      if (a_words[i] != b_words[i]) return a_words[i] < b_words[i] ? -1 : 1;
      const Column& col = cols_[i];
      if (col.kind < Kind::kPrefix) continue;  // exact: equal words, equal keys
      const int c = Datum::Compare(a[static_cast<size_t>(col.pos)],
                                   b[static_cast<size_t>(col.pos)]);
      if (c != 0) return (c < 0) == col.ascending ? -1 : 1;
    }
    return 0;
  }

  /// The stable sort order of rows[begin, end): indexes relative to `begin`,
  /// equal keys in input order.
  std::vector<uint32_t> Order(const std::vector<Row>& rows, size_t begin,
                              size_t end) const;

 private:
  /// Exact kinds come first: Compare falls back to Datum::Compare from
  /// kPrefix on.
  enum class Kind : uint8_t { kInt, kDouble, kBool, kPrefix, kCompare };
  struct Column {
    int pos;
    bool ascending;
    Kind kind;
  };

  std::vector<Column> cols_;
};

}  // namespace mppdb

#endif  // MPPDB_EXEC_SORT_KEYS_H_
