#include "runtime/spill/row_codec.h"

#include <cstddef>
#include <cstring>

namespace mppdb {

namespace {

// One-byte datum tags. kNull carries no payload: a NULL Datum is always the
// default-constructed monostate (TypeId::kInt64), so no type needs recording.
enum DatumTag : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt32 = 2,
  kTagInt64 = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagDate = 6,
};

template <typename T>
char* Put(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

template <typename T>
T Get(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// Encoded size of one datum: its tag plus its payload.
size_t EncodedBytes(const Datum& value) {
  if (value.is_null()) return 1;
  switch (value.type()) {
    case TypeId::kBool:
      return 1 + 1;
    case TypeId::kInt32:
    case TypeId::kDate:
      return 1 + sizeof(int32_t);
    case TypeId::kInt64:
    case TypeId::kDouble:
      return 1 + sizeof(int64_t);
    case TypeId::kString:
      return 1 + sizeof(uint32_t) + value.string_value().size();
  }
  return 1;
}

// Writes one datum at `p`; returns the byte past it.
char* PutDatum(const Datum& value, char* p) {
  if (value.is_null()) {
    *p = static_cast<char>(kTagNull);
    return p + 1;
  }
  switch (value.type()) {
    case TypeId::kBool:
      p[0] = static_cast<char>(kTagBool);
      p[1] = value.bool_value() ? 1 : 0;
      return p + 2;
    case TypeId::kInt32:
      *p = static_cast<char>(kTagInt32);
      return Put<int32_t>(p + 1, value.int32_value());
    case TypeId::kInt64:
      *p = static_cast<char>(kTagInt64);
      return Put<int64_t>(p + 1, value.int64_value());
    case TypeId::kDouble:
      *p = static_cast<char>(kTagDouble);
      return Put<double>(p + 1, value.double_value());
    case TypeId::kString: {
      const std::string& s = value.string_value();
      *p = static_cast<char>(kTagString);
      p = Put<uint32_t>(p + 1, static_cast<uint32_t>(s.size()));
      std::memcpy(p, s.data(), s.size());
      return p + s.size();
    }
    case TypeId::kDate:
      *p = static_cast<char>(kTagDate);
      return Put<int32_t>(p + 1, value.date_value());
  }
  return p;
}

// One pass sizes the body, a second writes it through a cursor.
template <typename RowAt>
void EncodeRows(size_t count, RowAt row_at, std::string* out) {
  size_t bytes = 0;
  for (size_t i = 0; i < count; ++i) {
    bytes += sizeof(uint32_t);
    for (const Datum& v : row_at(i)) bytes += EncodedBytes(v);
  }
  out->resize(bytes);
  char* p = out->data();
  for (size_t i = 0; i < count; ++i) {
    const Row& row = row_at(i);
    p = Put<uint32_t>(p, static_cast<uint32_t>(row.size()));
    for (const Datum& v : row) p = PutDatum(v, p);
  }
}

Status Truncated() {
  return Status::Internal("spill batch truncated: datum extends past buffer");
}

}  // namespace

void EncodeBatchBody(const Row* rows, size_t count, const uint32_t* order,
                     std::string* out) {
  if (order != nullptr) {
    EncodeRows(count, [&](size_t i) -> const Row& { return rows[order[i]]; }, out);
  } else {
    EncodeRows(count, [&](size_t i) -> const Row& { return rows[i]; }, out);
  }
}

Status DecodeBatchBody(const char* data, size_t size, uint32_t num_rows,
                       std::vector<Row>* rows) {
  const size_t start = rows->size();
  auto fail = [&](Status status) {
    rows->erase(rows->begin() + static_cast<std::ptrdiff_t>(start), rows->end());
    return status;
  };
  const char* p = data;
  const char* const end = data + size;
  for (uint32_t r = 0; r < num_rows; ++r) {
    if (end - p < static_cast<std::ptrdiff_t>(sizeof(uint32_t))) return fail(Truncated());
    const uint32_t count = Get<uint32_t>(p);
    p += sizeof(uint32_t);
    // Every datum takes at least its tag byte, so a count beyond the bytes
    // left is a truncation (and never sizes a huge reserve).
    if (count > static_cast<size_t>(end - p)) return fail(Truncated());
    Row& row = rows->emplace_back();
    row.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (p == end) return fail(Truncated());
      const uint8_t tag = static_cast<uint8_t>(*p++);
      const std::ptrdiff_t left = end - p;
      switch (tag) {
        case kTagNull:
          row.emplace_back();
          break;
        case kTagBool:
          if (left < 1) return fail(Truncated());
          row.push_back(Datum::Bool(*p != 0));
          p += 1;
          break;
        case kTagInt32:
        case kTagDate: {
          if (left < static_cast<std::ptrdiff_t>(sizeof(int32_t))) return fail(Truncated());
          const int32_t v = Get<int32_t>(p);
          row.push_back(tag == kTagInt32 ? Datum::Int32(v) : Datum::Date(v));
          p += sizeof(int32_t);
          break;
        }
        case kTagInt64:
          if (left < static_cast<std::ptrdiff_t>(sizeof(int64_t))) return fail(Truncated());
          row.push_back(Datum::Int64(Get<int64_t>(p)));
          p += sizeof(int64_t);
          break;
        case kTagDouble:
          if (left < static_cast<std::ptrdiff_t>(sizeof(double))) return fail(Truncated());
          row.push_back(Datum::Double(Get<double>(p)));
          p += sizeof(double);
          break;
        case kTagString: {
          if (left < static_cast<std::ptrdiff_t>(sizeof(uint32_t)) ||
              Get<uint32_t>(p) > static_cast<size_t>(left) - sizeof(uint32_t)) {
            return fail(Truncated());
          }
          const uint32_t len = Get<uint32_t>(p);
          p += sizeof(uint32_t);
          row.push_back(Datum::String(std::string(p, len)));
          p += len;
          break;
        }
        default:
          return fail(Status::Internal("spill batch corrupt: unknown datum tag " +
                                       std::to_string(static_cast<int>(tag))));
      }
    }
  }
  if (p != end) {
    return fail(Status::Internal("spill batch corrupt: trailing bytes after rows"));
  }
  return Status::OK();
}

size_t DatumPayloadBytes(const Datum& value) {
  if (!value.is_null() && value.type() == TypeId::kString) {
    return value.string_value().size();
  }
  return 0;
}

size_t RowPayloadBytes(const Row& row) {
  size_t bytes = 0;
  for (const Datum& v : row) bytes += DatumPayloadBytes(v);
  return bytes;
}

size_t RowsPayloadBytes(const std::vector<Row>& rows, size_t begin,
                        size_t end) {
  size_t bytes = 0;
  for (size_t i = begin; i < end; ++i) bytes += RowPayloadBytes(rows[i]);
  return bytes;
}

size_t RowsPayloadBytes(const std::vector<Row>& rows) {
  return RowsPayloadBytes(rows, 0, rows.size());
}

}  // namespace mppdb
