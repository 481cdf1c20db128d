#ifndef MPPDB_CATALOG_CATALOG_H_
#define MPPDB_CATALOG_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/partition_scheme.h"
#include "common/status.h"
#include "types/schema.h"

namespace mppdb {

/// How a table's rows are spread across MPP segments (paper §3.1). Data
/// distribution is orthogonal to partitioning: a distributed table can also
/// be partitioned on each host.
enum class TableDistribution {
  kHashed,      ///< rows hashed on distribution columns
  kReplicated,  ///< full copy on every segment
  kRandom,      ///< round-robin
};

/// Physical layout of a storage unit's slices (DESIGN.md §12). kRow keeps
/// only the canonical row vectors; kColumn additionally maintains encoded
/// column chunks (dictionary/RLE/bit-packed/plain) as the scan fast path.
/// Orientation is chosen per table with a per-leaf-partition override, so
/// row- and column-oriented partitions coexist under one table.
enum class StorageOrientation : uint8_t { kRow, kColumn };

const char* StorageOrientationName(StorageOrientation orientation);

/// Catalog entry for a table: schema, MPP distribution, and (optionally) the
/// logical partition scheme.
struct TableDescriptor {
  Oid oid = kInvalidOid;
  std::string name;
  Schema schema;
  TableDistribution distribution = TableDistribution::kRandom;
  std::vector<int> distribution_columns;  ///< for kHashed
  std::unique_ptr<PartitionScheme> partition_scheme;  ///< null if unpartitioned
  /// Schema positions of columns with a secondary index.
  std::vector<int> indexed_columns;
  /// Default physical layout of every storage unit, overridable per leaf.
  StorageOrientation default_orientation = StorageOrientation::kRow;
  /// Leaf-partition orientation overrides (keyed by leaf OID). Units absent
  /// here use default_orientation.
  std::unordered_map<Oid, StorageOrientation> unit_orientations;

  bool IsPartitioned() const { return partition_scheme != nullptr; }

  /// Effective orientation of one storage unit (a leaf OID, or the table OID
  /// itself when unpartitioned).
  StorageOrientation UnitOrientation(Oid unit_oid) const {
    auto it = unit_orientations.find(unit_oid);
    return it == unit_orientations.end() ? default_orientation : it->second;
  }
  bool HasIndexOn(int column) const {
    for (int c : indexed_columns) {
      if (c == column) return true;
    }
    return false;
  }

  /// Key column indexes per partitioning level (empty if unpartitioned).
  std::vector<int> PartitionKeyColumns() const;
};

/// In-memory metadata catalog. Owns all TableDescriptors; OIDs for tables and
/// their partitions are issued from one shared counter so that partition OIDs
/// are globally unique (as in GPDB, where partitions are physical tables).
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an unpartitioned table.
  Result<Oid> CreateTable(const std::string& name, Schema schema,
                          TableDistribution distribution,
                          std::vector<int> distribution_columns);

  /// Creates a partitioned table. `bounds_per_level[i]` are the bounds of
  /// level i (uniform hierarchy); `level_descs[i].key_column` indexes into
  /// `schema`. Fails with kInvalidArgument, creating nothing, when a level's
  /// bounds fail ValidateSiblingBounds (overlapping siblings, a bound value
  /// not comparable with the key column, or two defaults).
  Result<Oid> CreatePartitionedTable(
      const std::string& name, Schema schema, TableDistribution distribution,
      std::vector<int> distribution_columns,
      std::vector<PartitionLevelDesc> level_descs,
      const std::vector<std::vector<PartitionBound>>& bounds_per_level);

  const TableDescriptor* FindTable(const std::string& name) const;
  const TableDescriptor* FindTable(Oid oid) const;

  /// Removes a table (and its partition metadata). Fails if absent.
  Status DropTable(const std::string& name);

  /// Registers a secondary index on `column_name` of `table_name`.
  Status CreateIndex(const std::string& table_name, const std::string& column_name);

  /// Sets the table-wide storage orientation and clears per-leaf overrides
  /// (ALTER TABLE ... SET WITH (orientation=...)).
  Status SetTableOrientation(const std::string& table_name,
                             StorageOrientation orientation);

  /// Overrides the orientation of leaf partitions addressed by name: an exact
  /// qualified name ("p3/us") pins one leaf; a bare bound name ("p3", "us")
  /// covers every leaf whose path contains that component. Fails if the table
  /// is unpartitioned or no leaf matches.
  Status SetPartitionOrientation(const std::string& table_name,
                                 const std::string& partition_name,
                                 StorageOrientation orientation);

  /// Reserves a fresh OID (used by components that create ad-hoc objects).
  Oid NextOid() { return next_oid_++; }

  std::vector<const TableDescriptor*> AllTables() const;

 private:
  Result<TableDescriptor*> CreateTableEntry(const std::string& name, Schema schema,
                                            TableDistribution distribution,
                                            std::vector<int> distribution_columns);

  Oid next_oid_ = 1000;
  std::vector<std::unique_ptr<TableDescriptor>> tables_;
  std::unordered_map<std::string, TableDescriptor*> by_name_;
  std::unordered_map<Oid, TableDescriptor*> by_oid_;
};

}  // namespace mppdb

#endif  // MPPDB_CATALOG_CATALOG_H_
