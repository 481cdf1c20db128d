#include <gtest/gtest.h>

#include <utility>
#include <variant>
#include <vector>

#include "types/date.h"
#include "types/datum.h"
#include "types/row.h"
#include "types/schema.h"

namespace mppdb {
namespace {

TEST(DatumTest, NullBasics) {
  Datum null = Datum::Null();
  EXPECT_TRUE(null.is_null());
  EXPECT_FALSE(Datum::Int64(1).is_null());
  EXPECT_EQ(Datum::Compare(null, Datum::Null()), 0);
  EXPECT_LT(Datum::Compare(null, Datum::Int64(-100)), 0);
  EXPECT_GT(Datum::Compare(Datum::Int64(-100), null), 0);
}

TEST(DatumTest, IntegerComparison) {
  EXPECT_LT(Datum::Compare(Datum::Int64(1), Datum::Int64(2)), 0);
  EXPECT_EQ(Datum::Compare(Datum::Int64(5), Datum::Int64(5)), 0);
  EXPECT_GT(Datum::Compare(Datum::Int64(9), Datum::Int64(2)), 0);
}

TEST(DatumTest, CrossWidthNumericComparison) {
  EXPECT_EQ(Datum::Compare(Datum::Int32(7), Datum::Int64(7)), 0);
  EXPECT_EQ(Datum::Compare(Datum::Int64(7), Datum::Double(7.0)), 0);
  EXPECT_LT(Datum::Compare(Datum::Int32(7), Datum::Double(7.5)), 0);
}

TEST(DatumTest, CrossWidthEqualImpliesEqualHash) {
  EXPECT_EQ(Datum::Int32(42).Hash(), Datum::Int64(42).Hash());
  EXPECT_EQ(Datum::Int64(42).Hash(), Datum::Double(42.0).Hash());
}

TEST(DatumTest, StringComparison) {
  EXPECT_LT(Datum::Compare(Datum::String("abc"), Datum::String("abd")), 0);
  EXPECT_EQ(Datum::Compare(Datum::String("x"), Datum::String("x")), 0);
  EXPECT_NE(Datum::String("a").Hash(), Datum::String("b").Hash());
}

TEST(DatumTest, BoolComparison) {
  EXPECT_LT(Datum::Compare(Datum::Bool(false), Datum::Bool(true)), 0);
  EXPECT_EQ(Datum::Compare(Datum::Bool(true), Datum::Bool(true)), 0);
}

TEST(DatumTest, ToStringRendering) {
  EXPECT_EQ(Datum::Null().ToString(), "NULL");
  EXPECT_EQ(Datum::Int64(12).ToString(), "12");
  EXPECT_EQ(Datum::String("hi").ToString(), "'hi'");
  EXPECT_EQ(Datum::Bool(true).ToString(), "true");
  EXPECT_EQ(Datum::DateFromString("2013-10-01").ToString(), "2013-10-01");
}

static_assert(sizeof(Datum) == 16, "Datum is a tag, a null flag and an 8-byte payload");

// One value of every type plus NULL, with the string long enough to live
// outside any small-string buffer.
std::vector<Datum> EveryKind() {
  return {Datum::Null(),     Datum::Bool(true),
          Datum::Int32(-7),  Datum::Int64(int64_t{1} << 40),
          Datum::Double(2.5), Datum::String("a string well past the SSO size"),
          Datum::Date(15000)};
}

void ExpectSame(const Datum& a, const Datum& b) {
  EXPECT_EQ(a.is_null(), b.is_null());
  EXPECT_EQ(a.type(), b.type());
  EXPECT_EQ(Datum::Compare(a, b), 0) << a.ToString() << " vs " << b.ToString();
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(DatumTest, CopyAndMoveKeepTheValue) {
  for (const Datum& original : EveryKind()) {
    SCOPED_TRACE(original.ToString());
    Datum copy(original);
    ExpectSame(copy, original);

    Datum assigned = Datum::Int64(99);
    assigned = original;
    ExpectSame(assigned, original);

    Datum moved(std::move(copy));
    ExpectSame(moved, original);
    // A moved-from string is NULL; a moved-from numeric keeps its value.
    if (original.type() == TypeId::kString) {
      EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
    } else {
      ExpectSame(copy, original);  // NOLINT(bugprone-use-after-move)
    }

    Datum move_assigned = Datum::String("to be replaced");
    move_assigned = std::move(moved);
    ExpectSame(move_assigned, original);

    Datum self = original;
    Datum& alias = self;
    self = alias;
    ExpectSame(self, original);
    self = std::move(alias);
    ExpectSame(self, original);
  }
}

TEST(DatumTest, CheckedAccessorsThrowOnWrongTypeOrNull) {
  EXPECT_THROW(Datum::Null().int64_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Null().string_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Null().bool_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Int64(1).int32_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Int32(1).int64_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Int64(1).double_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Double(1).int64_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Int64(1).string_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::String("x").int64_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Bool(true).int32_value(), std::bad_variant_access);
  EXPECT_THROW(Datum::Date(3).bool_value(), std::bad_variant_access);
  // int32 and date share their storage, so each reads as the other.
  EXPECT_EQ(Datum::Date(123).int32_value(), 123);
  EXPECT_EQ(Datum::Int32(-5).date_value(), -5);
}

TEST(DatumTest, StringCopiesShareOneBody) {
  Datum copy;
  const char* body = nullptr;
  {
    Datum original = Datum::String("shared body, not copied bytes");
    Datum second = original;
    body = original.string_value().data();
    EXPECT_EQ(second.string_value().data(), body);
    copy = second;
  }
  // The last copy keeps the body alive after the original is gone.
  EXPECT_EQ(copy.string_value().data(), body);
  EXPECT_EQ(copy.string_value(), "shared body, not copied bytes");
  // Equal strings in different bodies still compare and hash equal.
  EXPECT_EQ(copy, Datum::String("shared body, not copied bytes"));
  EXPECT_EQ(copy.Hash(), Datum::String("shared body, not copied bytes").Hash());
}

TEST(DateTest, RoundTrip) {
  for (int year : {1970, 2000, 2012, 2013, 2024}) {
    for (int month = 1; month <= 12; ++month) {
      int32_t days = date::FromYMD(year, month, 15);
      int y, m, d;
      date::ToYMD(days, &y, &m, &d);
      EXPECT_EQ(y, year);
      EXPECT_EQ(m, month);
      EXPECT_EQ(d, 15);
    }
  }
}

TEST(DateTest, EpochIsZero) { EXPECT_EQ(date::FromYMD(1970, 1, 1), 0); }

TEST(DateTest, LeapYears) {
  EXPECT_TRUE(date::IsLeapYear(2012));
  EXPECT_FALSE(date::IsLeapYear(2013));
  EXPECT_FALSE(date::IsLeapYear(1900));
  EXPECT_TRUE(date::IsLeapYear(2000));
  EXPECT_EQ(date::DaysInMonth(2012, 2), 29);
  EXPECT_EQ(date::DaysInMonth(2013, 2), 28);
}

TEST(DateTest, ParseValidAndInvalid) {
  int32_t days = 0;
  EXPECT_TRUE(date::Parse("2013-10-01", &days));
  EXPECT_EQ(date::ToString(days), "2013-10-01");
  EXPECT_FALSE(date::Parse("not-a-date", &days));
  EXPECT_FALSE(date::Parse("2013-13-01", &days));
  EXPECT_FALSE(date::Parse("2013-02-30", &days));
}

TEST(DateTest, MonthArithmeticOrdering) {
  EXPECT_LT(date::FromYMD(2013, 9, 30), date::FromYMD(2013, 10, 1));
  EXPECT_LT(date::FromYMD(2013, 10, 31), date::FromYMD(2013, 11, 1));
}

TEST(SchemaTest, FindColumn) {
  Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  EXPECT_EQ(schema.FindColumn("a"), 0);
  EXPECT_EQ(schema.FindColumn("b"), 1);
  EXPECT_EQ(schema.FindColumn("c"), -1);
}

TEST(SchemaTest, Concat) {
  Schema left({{"a", TypeId::kInt64}});
  Schema right({{"b", TypeId::kString}, {"c", TypeId::kDouble}});
  Schema joined = Schema::Concat(left, right);
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined.column(2).name, "c");
}

TEST(RowTest, HashRowColumnsIsOrderSensitiveOverColumns) {
  Row row = {Datum::Int64(1), Datum::Int64(2)};
  EXPECT_NE(HashRowColumns(row, {0, 1}), HashRowColumns(row, {1, 0}));
  EXPECT_EQ(HashRowColumns(row, {0}), HashRowColumns({Datum::Int64(1)}, {0}));
}

}  // namespace
}  // namespace mppdb
