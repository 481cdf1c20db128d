#ifndef MPPDB_TESTS_TEST_UTIL_H_
#define MPPDB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/macros.h"
#include "exec/executor.h"
#include "storage/storage.h"
#include "types/date.h"

namespace mppdb {
namespace testutil {

/// Catalog + storage + executor wired together for tests.
struct TestDb {
  explicit TestDb(int num_segments = 4)
      : storage(num_segments), executor(&catalog, &storage) {}

  Catalog catalog;
  StorageEngine storage;
  Executor executor;

  const TableDescriptor* CreateOrdersTable(int months = 24,
                                           const std::string& name = "orders") {
    Schema schema({{"date", TypeId::kDate},
                   {"amount", TypeId::kDouble},
                   {"region", TypeId::kString}});
    auto oid = catalog.CreatePartitionedTable(
        name, schema, TableDistribution::kHashed, {1},
        {{0, PartitionMethod::kRange}}, {partition_bounds::Monthly(2012, 1, months)});
    MPPDB_CHECK(oid.ok());
    const TableDescriptor* table = catalog.FindTable(*oid);
    MPPDB_CHECK(storage.CreateStorage(table).ok());
    return table;
  }

  /// R(a BIGINT, b BIGINT) partitioned on b into `parts` ranges of width
  /// `step` starting at 0, hash-distributed on a.
  const TableDescriptor* CreateIntPartitionedTable(const std::string& name, int parts,
                                                   int64_t step = 10) {
    Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
    auto oid = catalog.CreatePartitionedTable(
        name, schema, TableDistribution::kHashed, {0},
        {{1, PartitionMethod::kRange}}, {partition_bounds::IntRanges(0, step, parts)});
    MPPDB_CHECK(oid.ok());
    const TableDescriptor* table = catalog.FindTable(*oid);
    MPPDB_CHECK(storage.CreateStorage(table).ok());
    return table;
  }

  const TableDescriptor* CreatePlainTable(const std::string& name, Schema schema,
                                          std::vector<int> dist_cols = {0}) {
    auto oid = catalog.CreateTable(name, std::move(schema), TableDistribution::kHashed,
                                   std::move(dist_cols));
    MPPDB_CHECK(oid.ok());
    const TableDescriptor* table = catalog.FindTable(*oid);
    MPPDB_CHECK(storage.CreateStorage(table).ok());
    return table;
  }

  void Insert(const TableDescriptor* table, const std::vector<Row>& rows) {
    Status st = storage.GetStore(table->oid)->InsertBatch(rows);
    MPPDB_CHECK(st.ok());
  }
};

/// Sorted copies for order-insensitive result comparison.
inline std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      int c = Datum::Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

/// Datum equality with a relative tolerance for doubles: plans that
/// aggregate in a different order (e.g. two-phase aggregation) legitimately
/// produce last-bit differences in floating-point sums.
inline bool DatumApproxEqual(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == TypeId::kDouble || b.type() == TypeId::kDouble) {
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return Datum::Compare(a, b) == 0;
}

inline bool SameRows(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  a = Sorted(std::move(a));
  b = Sorted(std::move(b));
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!DatumApproxEqual(a[i][j], b[i][j])) return false;
    }
  }
  return true;
}

inline Datum D(const char* ymd) { return Datum::DateFromString(ymd); }

/// True when some line of the EXPLAIN-style rendering `plan` that starts
/// with `parent` (after its indentation) has a direct child line starting
/// with `child`.
inline bool PlanHasEdge(const std::string& plan, const std::string& parent,
                        const std::string& child) {
  std::vector<std::pair<size_t, std::string>> lines;
  std::istringstream in(plan);
  for (std::string line; std::getline(in, line);) {
    const size_t indent = line.find_first_not_of(' ');
    if (indent != std::string::npos) lines.emplace_back(indent, line.substr(indent));
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].second.rfind(parent, 0) != 0) continue;
    for (size_t j = i + 1; j < lines.size() && lines[j].first > lines[i].first; ++j) {
      if (lines[j].first == lines[i].first + 2 && lines[j].second.rfind(child, 0) == 0) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace testutil
}  // namespace mppdb

#endif  // MPPDB_TESTS_TEST_UTIL_H_
