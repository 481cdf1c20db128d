#ifndef MPPDB_TYPES_DATA_TYPE_H_
#define MPPDB_TYPES_DATA_TYPE_H_

#include <cstdint>
#include <string>

namespace mppdb {

/// Scalar SQL types supported by the engine. kDate is stored as days since
/// 1970-01-01 (see types/date.h). One byte wide so it packs into Datum's tag.
enum class TypeId : uint8_t {
  kBool,
  kInt32,
  kInt64,
  kDouble,
  kString,
  kDate,
};

/// Returns the SQL-ish name of a type ("INT", "BIGINT", ...).
const char* TypeIdToString(TypeId type);

/// True if the type is orderable and usable as a range-partitioning key.
inline bool IsOrderable(TypeId type) {
  (void)type;  // All currently supported types have a total order.
  return true;
}

/// True for integer-like types where a range [a, b) over consecutive values
/// can be enumerated.
inline bool IsIntegral(TypeId type) {
  return type == TypeId::kInt32 || type == TypeId::kInt64 ||
         type == TypeId::kDate;
}

inline bool IsNumeric(TypeId type) {
  return IsIntegral(type) || type == TypeId::kDouble;
}

/// True if values of the two types compare with each other (Datum::Compare
/// orders them): strings with strings, bools with bools, and the numeric
/// types, date included, with each other.
inline bool TypesComparable(TypeId a, TypeId b) {
  if (a == TypeId::kString || b == TypeId::kString || a == TypeId::kBool ||
      b == TypeId::kBool) {
    return a == b;
  }
  return true;
}

}  // namespace mppdb

#endif  // MPPDB_TYPES_DATA_TYPE_H_
