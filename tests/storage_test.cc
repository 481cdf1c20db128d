#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "storage/storage.h"
#include "test_util.h"

namespace mppdb {
namespace {

using testutil::D;
using testutil::TestDb;

TEST(StorageTest, InsertRoutesToPartitionAndSegment) {
  TestDb db(4);
  const TableDescriptor* orders = db.CreateOrdersTable(24);
  TableStore* store = db.storage.GetStore(orders->oid);
  ASSERT_NE(store, nullptr);

  std::vector<Row> rows;
  for (int day = 1; day <= 28; ++day) {
    rows.push_back({D(("2013-05-" + std::string(day < 10 ? "0" : "") +
                       std::to_string(day)).c_str()),
                    Datum::Double(day * 1.5), Datum::String("west")});
  }
  ASSERT_TRUE(store->InsertBatch(rows).ok());
  EXPECT_EQ(store->TotalRows(), 28u);

  // All rows are in the May-2013 leaf.
  Oid may = orders->partition_scheme->RouteValues({D("2013-05-01")});
  EXPECT_EQ(store->UnitTotalRows(may), 28u);

  // Hash distribution spread rows over more than one segment.
  int nonempty_segments = 0;
  for (int s = 0; s < 4; ++s) {
    if (!store->UnitRows(may, s).empty()) ++nonempty_segments;
  }
  EXPECT_GT(nonempty_segments, 1);
}

TEST(StorageTest, InsertOutOfRangeFails) {
  TestDb db(2);
  const TableDescriptor* orders = db.CreateOrdersTable(24);
  TableStore* store = db.storage.GetStore(orders->oid);
  Status st = store->Insert({D("2030-01-01"), Datum::Double(1), Datum::String("x")});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(StorageTest, ArityMismatchFails) {
  TestDb db(2);
  const TableDescriptor* orders = db.CreateOrdersTable(24);
  EXPECT_FALSE(db.storage.GetStore(orders->oid)->Insert({Datum::Int64(1)}).ok());
}

TEST(StorageTest, ReplicatedTableCopiesToAllSegments) {
  TestDb db(3);
  Schema schema({{"id", TypeId::kInt64}, {"name", TypeId::kString}});
  auto oid = db.catalog.CreateTable("dim", schema, TableDistribution::kReplicated, {});
  ASSERT_TRUE(oid.ok());
  const TableDescriptor* dim = db.catalog.FindTable(*oid);
  ASSERT_TRUE(db.storage.CreateStorage(dim).ok());
  TableStore* store = db.storage.GetStore(dim->oid);
  ASSERT_TRUE(store->Insert({Datum::Int64(1), Datum::String("a")}).ok());
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(store->UnitRows(dim->oid, s).size(), 1u);
  }
}

TEST(StorageTest, RandomDistributionRoundRobins) {
  TestDb db(2);
  Schema schema({{"x", TypeId::kInt64}});
  auto oid = db.catalog.CreateTable("rr", schema, TableDistribution::kRandom, {});
  ASSERT_TRUE(oid.ok());
  const TableDescriptor* table = db.catalog.FindTable(*oid);
  ASSERT_TRUE(db.storage.CreateStorage(table).ok());
  TableStore* store = db.storage.GetStore(table->oid);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->Insert({Datum::Int64(i)}).ok());
  }
  EXPECT_EQ(store->UnitRows(table->oid, 0).size(), 5u);
  EXPECT_EQ(store->UnitRows(table->oid, 1).size(), 5u);
}

TEST(StorageTest, UnpartitionedUnitIsTableOid) {
  TestDb db(2);
  const TableDescriptor* t =
      db.CreatePlainTable("plain", Schema({{"x", TypeId::kInt64}}));
  EXPECT_EQ(db.storage.GetStore(t->oid)->UnitOids(), std::vector<Oid>{t->oid});
}

TEST(StorageTest, DuplicateStorageRejected) {
  TestDb db(2);
  const TableDescriptor* t =
      db.CreatePlainTable("plain", Schema({{"x", TypeId::kInt64}}));
  EXPECT_FALSE(db.storage.CreateStorage(t).ok());
}

TEST(StorageTest, MutableUnitRowsAllowsInPlaceEdits) {
  TestDb db(1);
  const TableDescriptor* t =
      db.CreatePlainTable("plain", Schema({{"x", TypeId::kInt64}}));
  TableStore* store = db.storage.GetStore(t->oid);
  ASSERT_TRUE(store->Insert({Datum::Int64(5)}).ok());
  std::vector<Row>* rows = store->MutableUnitRows(t->oid, 0);
  (*rows)[0][0] = Datum::Int64(6);
  EXPECT_EQ(store->UnitRows(t->oid, 0)[0][0].int64_value(), 6);
}

// ---- Slice-at-a-time appends ----------------------------------------------

using SliceMap = std::map<std::pair<Oid, int>, std::vector<Row>>;

/// Where each row should land, worked out row by row from the partition
/// scheme and the distribution, independently of TableStore's grouping. For a
/// replicated table every segment gets the row.
void RouteExpected(const TableDescriptor& desc, int segments,
                   const std::vector<Row>& rows, SliceMap* out) {
  for (const Row& row : rows) {
    Oid unit = desc.IsPartitioned() ? desc.partition_scheme->RouteTuple(row) : desc.oid;
    ASSERT_NE(unit, kInvalidOid);
    if (desc.distribution == TableDistribution::kReplicated) {
      for (int s = 0; s < segments; ++s) (*out)[{unit, s}].push_back(row);
    } else {
      ASSERT_EQ(desc.distribution, TableDistribution::kHashed);
      const int s = static_cast<int>(HashRowColumns(row, desc.distribution_columns) %
                                     static_cast<uint64_t>(segments));
      (*out)[{unit, s}].push_back(row);
    }
  }
}

void ExpectSlices(const TableStore& store, const SliceMap& expected) {
  size_t total = 0;
  for (Oid unit : store.UnitOids()) {
    for (int s = 0; s < store.num_segments(); ++s) {
      auto it = expected.find({unit, s});
      const std::vector<Row> want =
          it == expected.end() ? std::vector<Row>{} : it->second;
      EXPECT_EQ(store.UnitRows(unit, s), want) << "unit " << unit << " segment " << s;
      total += want.size();
    }
  }
  EXPECT_EQ(store.TotalRows(), total);
}

/// Every figure of a slice synopsis, rendered; equal strings mean equal
/// synopses.
std::string SynopsisString(const SliceSynopsis& synopsis) {
  auto chunk = [](const ChunkSynopsis& c) {
    std::string out = std::to_string(c.row_count);
    for (const ColumnSynopsis& col : c.columns) {
      out += " [" + col.min.ToString() + "," + col.max.ToString() + "," +
             std::to_string(col.null_count) + "," + std::to_string(col.non_null_count) +
             (col.comparable ? "]" : ",mixed]");
    }
    return out;
  };
  std::string out = "rollup " + chunk(synopsis.rollup);
  for (const ChunkSynopsis& c : synopsis.chunks) out += "\nchunk " + chunk(c);
  return out;
}

/// Rows (a, b) for the 361-part table R(a, b): consecutive rows land in far
/// apart partitions (b steps by 977 over [0, 3610)), and every 13th a is NULL
/// so the synopses count nulls.
std::vector<Row> InterleavedRows(int first, int count) {
  std::vector<Row> rows;
  for (int i = first; i < first + count; ++i) {
    rows.push_back({i % 13 == 0 ? Datum::Null() : Datum::Int64(i),
                    Datum::Int64(static_cast<int64_t>(i) * 977 % 3610)});
  }
  return rows;
}

TEST(SliceAppendTest, EachSliceHoldsItsRowsInInputOrder) {
  TestDb db(4);
  const TableDescriptor* t = db.CreateIntPartitionedTable("t", 361, 10);
  TableStore* store = db.storage.GetStore(t->oid);
  const std::vector<Row> rows = InterleavedRows(0, 6000);
  ASSERT_TRUE(store->InsertBatch(rows).ok());
  SliceMap expected;
  RouteExpected(*t, 4, rows, &expected);
  ExpectSlices(*store, expected);
}

TEST(SliceAppendTest, BatchAppendsAfterPopulatedSlices) {
  TestDb db(4);
  const TableDescriptor* t = db.CreateIntPartitionedTable("t", 361, 10);
  TableStore* store = db.storage.GetStore(t->oid);
  const std::vector<Row> first = InterleavedRows(0, 3000);
  const std::vector<Row> second = InterleavedRows(3000, 3000);
  ASSERT_TRUE(store->InsertBatch(first).ok());
  ASSERT_TRUE(store->InsertBatch(second).ok());
  SliceMap expected;
  RouteExpected(*t, 4, first, &expected);
  RouteExpected(*t, 4, second, &expected);
  ExpectSlices(*store, expected);
}

TEST(SliceAppendTest, RandomDistributionMatchesSingleInserts) {
  constexpr int kSegments = 3;
  TestDb db(kSegments);
  Schema schema({{"x", TypeId::kInt64}});
  const TableDescriptor* tables[2];
  for (int k = 0; k < 2; ++k) {
    auto oid = db.catalog.CreateTable("rr" + std::to_string(k), schema,
                                      TableDistribution::kRandom, {});
    ASSERT_TRUE(oid.ok());
    tables[k] = db.catalog.FindTable(*oid);
    ASSERT_TRUE(db.storage.CreateStorage(tables[k]).ok());
  }
  TableStore* batched = db.storage.GetStore(tables[0]->oid);
  TableStore* single = db.storage.GetStore(tables[1]->oid);
  // Two batches, so the second starts mid-rotation (10 % 3 != 0).
  for (auto [lo, hi] : {std::pair{0, 10}, std::pair{10, 30}}) {
    std::vector<Row> rows;
    for (int i = lo; i < hi; ++i) rows.push_back({Datum::Int64(i)});
    ASSERT_TRUE(batched->InsertBatch(rows).ok());
    for (const Row& row : rows) ASSERT_TRUE(single->Insert(row).ok());
  }
  for (int s = 0; s < kSegments; ++s) {
    const std::vector<Row>& got = batched->UnitRows(tables[0]->oid, s);
    EXPECT_EQ(got, single->UnitRows(tables[1]->oid, s)) << "segment " << s;
    // Row i went to segment i % kSegments, in input order.
    std::vector<Row> want;
    for (int i = s; i < 30; i += kSegments) want.push_back({Datum::Int64(i)});
    EXPECT_EQ(got, want) << "segment " << s;
  }
}

TEST(SliceAppendTest, ReplicatedTableCopiesEachUnitInOrder) {
  constexpr int kSegments = 3;
  TestDb db(kSegments);
  auto oid = db.catalog.CreatePartitionedTable(
      "dim", Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}),
      TableDistribution::kReplicated, {}, {{1, PartitionMethod::kRange}},
      {partition_bounds::IntRanges(0, 10, 361)});
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  const TableDescriptor* dim = db.catalog.FindTable(*oid);
  ASSERT_TRUE(db.storage.CreateStorage(dim).ok());
  TableStore* store = db.storage.GetStore(dim->oid);
  const std::vector<Row> first = InterleavedRows(0, 2000);
  const std::vector<Row> second = InterleavedRows(2000, 500);
  ASSERT_TRUE(store->InsertBatch(first).ok());
  ASSERT_TRUE(store->InsertBatch(second).ok());
  SliceMap expected;
  RouteExpected(*dim, kSegments, first, &expected);
  RouteExpected(*dim, kSegments, second, &expected);
  ExpectSlices(*store, expected);
}

TEST(SliceAppendTest, SynopsesMatchRowByRowFill) {
  constexpr int kSegments = 4;
  TestDb db(kSegments);
  // Partitioned (few rows per slice) and plain (slices cross the 1024-row
  // chunk boundary), each filled by two batches and, as the oracle, row by
  // row.
  const TableDescriptor* parts[2] = {db.CreateIntPartitionedTable("p0", 361, 10),
                                     db.CreateIntPartitionedTable("p1", 361, 10)};
  Schema plain_schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
  const TableDescriptor* plains[2] = {db.CreatePlainTable("q0", plain_schema),
                                      db.CreatePlainTable("q1", plain_schema)};
  for (const auto& pair : {parts, plains}) {
    TableStore* batched = db.storage.GetStore(pair[0]->oid);
    TableStore* single = db.storage.GetStore(pair[1]->oid);
    for (int start : {0, 5000}) {
      const std::vector<Row> rows = InterleavedRows(start, 5000);
      ASSERT_TRUE(batched->InsertBatch(rows).ok());
      for (const Row& row : rows) ASSERT_TRUE(single->Insert(row).ok());
    }
    const std::vector<Oid>& units = batched->UnitOids();
    const std::vector<Oid>& oracle_units = single->UnitOids();
    ASSERT_EQ(units.size(), oracle_units.size());
    for (size_t u = 0; u < units.size(); ++u) {
      for (int s = 0; s < kSegments; ++s) {
        EXPECT_TRUE(batched->SynopsisFresh(units[u], s));
        EXPECT_EQ(batched->UnitRows(units[u], s), single->UnitRows(oracle_units[u], s));
        EXPECT_EQ(SynopsisString(batched->UnitSynopsis(units[u], s)),
                  SynopsisString(single->UnitSynopsis(oracle_units[u], s)))
            << pair[0]->name << " unit " << u << " segment " << s;
      }
    }
  }
}

TEST(SliceAppendTest, FailedBatchChangesNothing) {
  constexpr int kSegments = 4;
  TestDb db(kSegments);
  const TableDescriptor* t = db.CreateIntPartitionedTable("t", 361, 10);
  TableStore* store = db.storage.GetStore(t->oid);
  ASSERT_TRUE(store->InsertBatch(InterleavedRows(0, 3000)).ok());
  auto snapshot = [&]() {
    std::vector<std::pair<std::vector<Row>, std::string>> slices;
    for (Oid unit : store->UnitOids()) {
      for (int s = 0; s < kSegments; ++s) {
        // Every synopsis is fresh: a version bump without an append would
        // stale it.
        EXPECT_TRUE(store->SynopsisFresh(unit, s));
        slices.emplace_back(store->UnitRows(unit, s),
                            SynopsisString(store->UnitSynopsis(unit, s)));
      }
    }
    return slices;
  };
  const auto before = snapshot();

  // The bad row comes last, after rows for hundreds of slices.
  std::vector<Row> unroutable = InterleavedRows(3000, 2000);
  unroutable.push_back({Datum::Int64(1), Datum::Int64(99999)});
  EXPECT_EQ(store->InsertBatch(unroutable).code(), StatusCode::kOutOfRange);
  std::vector<Row> short_row = InterleavedRows(3000, 2000);
  short_row.push_back({Datum::Int64(1)});
  EXPECT_EQ(store->InsertBatch(short_row).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store->Insert({Datum::Int64(1), Datum::Int64(-1)}).code(),
            StatusCode::kOutOfRange);

  EXPECT_EQ(snapshot(), before);
  EXPECT_EQ(store->TotalRows(), 3000u);
}

TEST(SliceAppendTest, FailedBatchKeepsRoundRobinPosition) {
  TestDb db(2);
  auto oid = db.catalog.CreateTable("rr", Schema({{"x", TypeId::kInt64}}),
                                    TableDistribution::kRandom, {});
  ASSERT_TRUE(oid.ok());
  const TableDescriptor* table = db.catalog.FindTable(*oid);
  ASSERT_TRUE(db.storage.CreateStorage(table).ok());
  TableStore* store = db.storage.GetStore(table->oid);
  ASSERT_TRUE(store->Insert({Datum::Int64(0)}).ok());  // -> segment 0
  EXPECT_EQ(store->InsertBatch({{Datum::Int64(1)}, {Datum::Int64(2), Datum::Int64(3)}})
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(store->Insert({Datum::Int64(1)}).ok());  // -> segment 1
  EXPECT_EQ(store->UnitRows(table->oid, 0), (std::vector<Row>{{Datum::Int64(0)}}));
  EXPECT_EQ(store->UnitRows(table->oid, 1), (std::vector<Row>{{Datum::Int64(1)}}));
}

}  // namespace
}  // namespace mppdb
