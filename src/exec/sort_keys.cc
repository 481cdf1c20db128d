#include "exec/sort_keys.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

namespace mppdb {
namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
// Integers of at most this magnitude are exact in a double.
constexpr int64_t kMaxExactInt = int64_t{1} << 53;

// An int-family value (INT, BIGINT, DATE) widened to int64.
int64_t IntOf(const Datum& v) {
  return v.type() == TypeId::kInt64 ? v.int64_value() : v.int32_value();
}

uint64_t DoubleWord(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 compares equal to +0.0
  const uint64_t bits = std::bit_cast<uint64_t>(d);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

uint64_t PrefixWord(const std::string& s) {
  unsigned char bytes[8] = {};
  std::memcpy(bytes, s.data(), std::min<size_t>(8, s.size()));
  uint64_t word = 0;
  for (unsigned char b : bytes) word = (word << 8) | b;
  return word;
}

// Stable LSD radix sort of (word, index) pairs on 8-bit digits, skipping
// digits every word shares; `scratch` is resized to match.
struct Item {
  uint64_t word;
  uint32_t index;
};

void RadixSort(std::vector<Item>* items, std::vector<Item>* scratch) {
  const size_t n = items->size();
  size_t counts[8][256] = {};
  for (const Item& item : *items) {
    for (int d = 0; d < 8; ++d) ++counts[d][(item.word >> (8 * d)) & 0xFF];
  }
  scratch->resize(n);
  for (int d = 0; d < 8; ++d) {
    size_t* count = counts[d];
    if (count[((*items)[0].word >> (8 * d)) & 0xFF] == n) continue;
    size_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const size_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (const Item& item : *items) {
      (*scratch)[count[(item.word >> (8 * d)) & 0xFF]++] = item;
    }
    items->swap(*scratch);
  }
}

}  // namespace

SortKeys::SortKeys(const std::vector<int>& positions,
                   const std::vector<bool>& ascending, const std::vector<Row>& rows) {
  cols_.reserve(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    const size_t pos = static_cast<size_t>(positions[i]);
    bool has_null = false, has_int = false, has_double = false, has_bool = false;
    bool has_string = false, has_nan = false, has_big_int = false, has_int_min = false;
    for (const Row& row : rows) {
      const Datum& v = row[pos];
      if (v.is_null()) {
        has_null = true;
        continue;
      }
      switch (v.type()) {
        case TypeId::kDouble:
          has_double = true;
          has_nan |= std::isnan(v.double_value());
          break;
        case TypeId::kString:
          has_string = true;
          break;
        case TypeId::kBool:
          has_bool = true;
          break;
        default: {
          has_int = true;
          const int64_t x = IntOf(v);
          has_big_int |= x > kMaxExactInt || x < -kMaxExactInt;
          has_int_min |= x == INT64_MIN;
        }
      }
    }
    Kind kind;
    if (has_string) {
      kind = has_int || has_double || has_bool ? Kind::kCompare : Kind::kPrefix;
    } else if (has_bool) {
      kind = has_int || has_double ? Kind::kCompare : Kind::kBool;
    } else if (has_double) {
      kind = has_nan || (has_int && has_big_int) ? Kind::kCompare : Kind::kDouble;
    } else {
      // INT64_MIN encodes as 0, NULL's word.
      kind = has_int_min && has_null ? Kind::kCompare : Kind::kInt;
    }
    cols_.push_back(Column{positions[i], ascending[i], kind});
  }
}

void SortKeys::Encode(const Row& row, uint64_t* out) const {
  for (size_t i = 0; i < cols_.size(); ++i) {
    const Column& col = cols_[i];
    const Datum& v = row[static_cast<size_t>(col.pos)];
    uint64_t word = 0;
    if (!v.is_null()) {
      switch (col.kind) {
        case Kind::kInt:
          word = static_cast<uint64_t>(IntOf(v)) ^ kSignBit;
          break;
        case Kind::kDouble:
          word = DoubleWord(v.type() == TypeId::kDouble
                                ? v.double_value()
                                : static_cast<double>(IntOf(v)));
          break;
        case Kind::kBool:
          word = v.bool_value() ? 2 : 1;
          break;
        case Kind::kPrefix:
          word = PrefixWord(v.string_value());
          break;
        case Kind::kCompare:
          break;
      }
    }
    out[i] = col.ascending ? word : ~word;
  }
}

std::vector<uint32_t> SortKeys::Order(const std::vector<Row>& rows, size_t begin,
                                      size_t end) const {
  const size_t n = end - begin;
  const size_t w = width();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), uint32_t{0});
  if (w == 0 || n < 2) return order;  // no keys: a stable sort is the identity
  std::vector<uint64_t> words(n * w);
  for (size_t i = 0; i < n; ++i) Encode(rows[begin + i], words.data() + i * w);
  auto less = [&](uint32_t a, uint32_t b) {
    return Compare(words.data() + a * w, rows[begin + a], words.data() + b * w,
                   rows[begin + b]) < 0;
  };
  // A kCompare column takes a stable comparison sort: with a NaN, Compare is
  // no strict weak order, and only std::stable_sort under the same comparison
  // outcomes gives the oracle's output.
  const bool fallback = std::any_of(cols_.begin(), cols_.end(), [](const Column& c) {
    return c.kind == Kind::kCompare;
  });
  if (fallback) {
    std::stable_sort(order.begin(), order.end(), less);
    return order;
  }
  // LSD over whole columns, last first, through the first inexact column:
  // up to there, different words mean different keys in the same order.
  size_t lead = 0;
  while (lead < w && cols_[lead++].kind != Kind::kPrefix) {
  }
  std::vector<Item> items(n), scratch;
  for (size_t c = lead; c-- > 0;) {
    for (size_t i = 0; i < n; ++i) items[i] = Item{words[order[i] * w + c], order[i]};
    RadixSort(&items, &scratch);
    for (size_t i = 0; i < n; ++i) order[i] = items[i].index;
  }
  if (cols_[lead - 1].kind != Kind::kPrefix) return order;
  // Rows whose leading words tie (equal string prefixes) are ordered by the
  // full comparison, group by group.
  auto same_lead = [&](uint32_t a, uint32_t b) {
    return std::equal(words.data() + a * w, words.data() + a * w + lead,
                      words.data() + b * w);
  };
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && same_lead(order[i], order[j])) ++j;
    if (j - i > 1) {
      std::stable_sort(order.begin() + static_cast<ptrdiff_t>(i),
                       order.begin() + static_cast<ptrdiff_t>(j), less);
    }
    i = j;
  }
  return order;
}

}  // namespace mppdb
