#ifndef MPPDB_TYPES_DATUM_H_
#define MPPDB_TYPES_DATUM_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "types/data_type.h"

namespace mppdb {

/// A single scalar value: one of the supported SQL types or NULL.
///
/// Layout (16 bytes): an 8-byte payload union (bool / int32 / int64 / double
/// / StringBox*), a one-byte TypeId tag and a null flag. A string's bytes
/// live in an immutable, reference-counted StringBox shared by every copy of
/// the Datum: copying adds a reference, the last copy frees the box. The count
/// is atomic, so segment tasks may copy and drop the same stored string
/// concurrently. A moved-from string Datum is NULL; a moved-from numeric Datum
/// keeps its value.
///
/// The typed accessors are checked: reading NULL or a different type throws
/// std::bad_variant_access. int32_value() and date_value() both accept
/// kInt32 and kDate (a date is stored as an int32 day number).
///
/// Numeric comparison follows SQL-ish promotion: if either side is a double
/// the comparison is in double, otherwise in int64. NULL ordering/semantics
/// are the responsibility of the expression evaluator; Compare() sorts NULL
/// before all non-NULL values so that Datum is usable as a sort key.
class Datum {
 public:
  /// Constructs NULL.
  Datum() noexcept : payload_{.i64 = 0}, type_(TypeId::kInt64), null_(true) {}

  Datum(const Datum& other) noexcept
      : payload_(other.payload_), type_(other.type_), null_(other.null_) {
    if (holds_box()) payload_.str->Ref();
  }
  Datum(Datum&& other) noexcept
      : payload_(other.payload_), type_(other.type_), null_(other.null_) {
    if (holds_box()) other.ResetToNull();
  }
  /// Copy and move assignment in one: `other` is a copy or the moved-in
  /// value, and it takes the old value away, so self-assignment is safe.
  Datum& operator=(Datum other) noexcept {
    std::swap(payload_, other.payload_);
    std::swap(type_, other.type_);
    std::swap(null_, other.null_);
    return *this;
  }
  ~Datum() {
    if (holds_box()) payload_.str->Unref();
  }

  static Datum Null() { return Datum(); }
  static Datum Bool(bool v) { return Datum(TypeId::kBool, Payload{.b = v}); }
  static Datum Int32(int32_t v) { return Datum(TypeId::kInt32, Payload{.i32 = v}); }
  static Datum Int64(int64_t v) { return Datum(TypeId::kInt64, Payload{.i64 = v}); }
  static Datum Double(double v) { return Datum(TypeId::kDouble, Payload{.f64 = v}); }
  static Datum String(std::string v) {
    return Datum(TypeId::kString, Payload{.str = new StringBox(std::move(v))});
  }
  /// Days since 1970-01-01.
  static Datum Date(int32_t days) { return Datum(TypeId::kDate, Payload{.i32 = days}); }
  /// Parses 'YYYY-MM-DD'; aborts on malformed input (test/workload helper).
  static Datum DateFromString(const std::string& ymd);

  bool is_null() const { return null_; }
  TypeId type() const { return type_; }

  bool bool_value() const {
    CheckHolds(TypeId::kBool);
    return payload_.b;
  }
  int32_t int32_value() const {
    CheckHolds(TypeId::kInt32, TypeId::kDate);
    return payload_.i32;
  }
  int64_t int64_value() const {
    CheckHolds(TypeId::kInt64);
    return payload_.i64;
  }
  double double_value() const {
    CheckHolds(TypeId::kDouble);
    return payload_.f64;
  }
  const std::string& string_value() const {
    CheckHolds(TypeId::kString);
    return payload_.str->value;
  }
  int32_t date_value() const {
    CheckHolds(TypeId::kInt32, TypeId::kDate);
    return payload_.i32;
  }

  /// Numeric value widened to int64 (bool/int32/int64/date). Precondition:
  /// integral type, non-null.
  int64_t AsInt64() const;

  /// Numeric value widened to double. Precondition: numeric type, non-null.
  double AsDouble() const;

  /// Three-way comparison: negative / zero / positive. NULL compares before
  /// all non-NULL values; NULL == NULL here (sort semantics, not SQL).
  static int Compare(const Datum& a, const Datum& b);

  bool Equals(const Datum& other) const { return Compare(*this, other) == 0; }

  /// Stable 64-bit hash, equal for Equals() datums across numeric widths.
  uint64_t Hash() const;

  /// Human-readable rendering ("NULL", "42", "'abc'", "1997-03-01").
  std::string ToString() const;

  friend bool operator==(const Datum& a, const Datum& b) { return a.Equals(b); }
  friend bool operator<(const Datum& a, const Datum& b) { return Compare(a, b) < 0; }

 private:
  /// An immutable string body with an atomic reference count; created with
  /// one reference and never mutated after construction.
  struct StringBox {
    explicit StringBox(std::string v) : value(std::move(v)) {}
    void Ref() { refs.fetch_add(1, std::memory_order_relaxed); }
    /// Drops one reference; the last one deletes the box.
    void Unref() {
      if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
    }

    std::atomic<uint32_t> refs{1};
    const std::string value;
  };

  union Payload {
    bool b;
    int32_t i32;
    int64_t i64;
    double f64;
    StringBox* str;
  };

  Datum(TypeId type, Payload payload) : payload_(payload), type_(type), null_(false) {}

  bool holds_box() const { return type_ == TypeId::kString && !null_; }
  /// Makes this Datum NULL without touching its reference (used after the
  /// reference was handed to another Datum).
  void ResetToNull() {
    payload_.i64 = 0;
    type_ = TypeId::kInt64;
    null_ = true;
  }
  void CheckHolds(TypeId type) const {
    if (null_ || type_ != type) ThrowBadAccess();
  }
  void CheckHolds(TypeId type, TypeId alias) const {
    if (null_ || (type_ != type && type_ != alias)) ThrowBadAccess();
  }
  /// Throws std::bad_variant_access, the failure of a checked read.
  [[noreturn]] static void ThrowBadAccess();

  Payload payload_;
  TypeId type_;
  bool null_;
};

}  // namespace mppdb

#endif  // MPPDB_TYPES_DATUM_H_
