#include "runtime/spill/row_codec.h"

#include <cstring>

#include "common/macros.h"

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
void AppendLE(T v, std::string* out) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool ReadLE(const std::string& data, size_t* offset, T* v) {
  if (data.size() - *offset < sizeof(T)) return false;
  std::memcpy(v, data.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

Status Truncated() {
  return Status::Internal("spill batch truncated: datum extends past buffer");
}

}  // namespace

void EncodeDatum(const Datum& value, std::string* out) {
  if (value.is_null()) {
    out->push_back(static_cast<char>(kTagNull));
    return;
  }
  switch (value.type()) {
    case TypeId::kBool:
      out->push_back(static_cast<char>(kTagBool));
      out->push_back(value.bool_value() ? 1 : 0);
      return;
    case TypeId::kInt32:
      out->push_back(static_cast<char>(kTagInt32));
      AppendLE<int32_t>(value.int32_value(), out);
      return;
    case TypeId::kInt64:
      out->push_back(static_cast<char>(kTagInt64));
      AppendLE<int64_t>(value.int64_value(), out);
      return;
    case TypeId::kDouble:
      out->push_back(static_cast<char>(kTagDouble));
      AppendLE<double>(value.double_value(), out);
      return;
    case TypeId::kString: {
      const std::string& s = value.string_value();
      out->push_back(static_cast<char>(kTagString));
      AppendLE<uint32_t>(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      return;
    }
    case TypeId::kDate:
      out->push_back(static_cast<char>(kTagDate));
      AppendLE<int32_t>(value.date_value(), out);
      return;
  }
}

void EncodeRow(const Row& row, std::string* out) {
  AppendLE<uint32_t>(static_cast<uint32_t>(row.size()), out);
  for (const Datum& v : row) EncodeDatum(v, out);
}

void EncodeBatchBody(const std::vector<Row>& rows, size_t begin, size_t end,
                     std::string* out) {
  out->clear();
  for (size_t i = begin; i < end; ++i) EncodeRow(rows[i], out);
}

Result<Datum> DecodeDatum(const std::string& data, size_t* offset) {
  if (*offset >= data.size()) return Truncated();
  const uint8_t tag = static_cast<uint8_t>(data[*offset]);
  ++*offset;
  switch (tag) {
    case kTagNull:
      return Datum::Null();
    case kTagBool: {
      if (*offset >= data.size()) return Truncated();
      const bool v = data[*offset] != 0;
      ++*offset;
      return Datum::Bool(v);
    }
    case kTagInt32: {
      int32_t v = 0;
      if (!ReadLE(data, offset, &v)) return Truncated();
      return Datum::Int32(v);
    }
    case kTagInt64: {
      int64_t v = 0;
      if (!ReadLE(data, offset, &v)) return Truncated();
      return Datum::Int64(v);
    }
    case kTagDouble: {
      double v = 0;
      if (!ReadLE(data, offset, &v)) return Truncated();
      return Datum::Double(v);
    }
    case kTagString: {
      uint32_t len = 0;
      if (!ReadLE(data, offset, &len)) return Truncated();
      if (data.size() - *offset < len) return Truncated();
      Datum v = Datum::String(data.substr(*offset, len));
      *offset += len;
      return v;
    }
    case kTagDate: {
      int32_t v = 0;
      if (!ReadLE(data, offset, &v)) return Truncated();
      return Datum::Date(v);
    }
    default:
      return Status::Internal("spill batch corrupt: unknown datum tag " +
                              std::to_string(static_cast<int>(tag)));
  }
}

Result<Row> DecodeRow(const std::string& data, size_t* offset) {
  uint32_t count = 0;
  if (!ReadLE(data, offset, &count)) return Truncated();
  Row row;
  row.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MPPDB_ASSIGN_OR_RETURN(Datum v, DecodeDatum(data, offset));
    row.push_back(std::move(v));
  }
  return row;
}

Status DecodeBatchBody(const std::string& data, uint32_t num_rows,
                       std::vector<Row>* rows) {
  size_t offset = 0;
  for (uint32_t i = 0; i < num_rows; ++i) {
    MPPDB_ASSIGN_OR_RETURN(Row row, DecodeRow(data, &offset));
    rows->push_back(std::move(row));
  }
  if (offset != data.size()) {
    return Status::Internal("spill batch corrupt: trailing bytes after rows");
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
