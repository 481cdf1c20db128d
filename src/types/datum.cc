#include "types/datum.h"

#include <functional>
#include <variant>

#include "common/macros.h"
#include "types/date.h"

namespace mppdb {

void Datum::ThrowBadAccess() { throw std::bad_variant_access(); }

Datum Datum::DateFromString(const std::string& ymd) {
  int32_t days = 0;
  MPPDB_CHECK(date::Parse(ymd, &days));
  return Date(days);
}

int64_t Datum::AsInt64() const {
  switch (type_) {
    case TypeId::kBool:
      return bool_value() ? 1 : 0;
    case TypeId::kInt32:
      return int32_value();
    case TypeId::kInt64:
      return int64_value();
    case TypeId::kDate:
      return date_value();
    default:
      MPPDB_CHECK(false);
      return 0;
  }
}

double Datum::AsDouble() const {
  if (type_ == TypeId::kDouble) return double_value();
  return static_cast<double>(AsInt64());
}

int Datum::Compare(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? -1 : 1;
  }
  if (a.type_ == TypeId::kString || b.type_ == TypeId::kString) {
    MPPDB_CHECK(a.type_ == TypeId::kString && b.type_ == TypeId::kString);
    if (a.payload_.str == b.payload_.str) return 0;  // copies share a body
    return a.string_value().compare(b.string_value());
  }
  if (a.type_ == TypeId::kBool || b.type_ == TypeId::kBool) {
    MPPDB_CHECK(a.type_ == b.type_);
    return (a.bool_value() ? 1 : 0) - (b.bool_value() ? 1 : 0);
  }
  if (a.type_ == TypeId::kDouble || b.type_ == TypeId::kDouble) {
    double x = a.AsDouble(), y = b.AsDouble();
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  int64_t x = a.AsInt64(), y = b.AsInt64();
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

uint64_t Datum::Hash() const {
  if (is_null()) return 0x3F2A9B1C5D7E0811ull;
  switch (type_) {
    case TypeId::kString: {
      // FNV-1a over the bytes.
      uint64_t h = 1469598103934665603ull;
      for (char c : string_value()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      return h;
    }
    case TypeId::kDouble: {
      double d = double_value();
      // Hash integral doubles like the equivalent int64 so that numeric
      // cross-type equality implies hash equality.
      int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        return std::hash<int64_t>()(as_int) * 0x9E3779B97F4A7C15ull;
      }
      return std::hash<double>()(d) * 0x9E3779B97F4A7C15ull;
    }
    default:
      return std::hash<int64_t>()(AsInt64()) * 0x9E3779B97F4A7C15ull;
  }
}

std::string Datum::ToString() const {
  if (is_null()) return "NULL";
  switch (type_) {
    case TypeId::kBool:
      return bool_value() ? "true" : "false";
    case TypeId::kInt32:
      return std::to_string(int32_value());
    case TypeId::kInt64:
      return std::to_string(int64_value());
    case TypeId::kDouble: {
      std::string s = std::to_string(double_value());
      return s;
    }
    case TypeId::kString:
      return "'" + string_value() + "'";
    case TypeId::kDate:
      return date::ToString(date_value());
  }
  return "?";
}

const char* TypeIdToString(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return "BOOL";
    case TypeId::kInt32:
      return "INT";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "VARCHAR";
    case TypeId::kDate:
      return "DATE";
  }
  return "?";
}

}  // namespace mppdb
