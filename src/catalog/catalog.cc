#include "catalog/catalog.h"

#include "common/macros.h"

namespace mppdb {

const char* StorageOrientationName(StorageOrientation orientation) {
  return orientation == StorageOrientation::kColumn ? "column" : "row";
}

std::vector<int> TableDescriptor::PartitionKeyColumns() const {
  std::vector<int> keys;
  if (partition_scheme == nullptr) return keys;
  keys.reserve(partition_scheme->num_levels());
  for (const auto& level : partition_scheme->levels()) {
    keys.push_back(level.key_column);
  }
  return keys;
}

Result<TableDescriptor*> Catalog::CreateTableEntry(
    const std::string& name, Schema schema, TableDistribution distribution,
    std::vector<int> distribution_columns) {
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  if (distribution == TableDistribution::kHashed && distribution_columns.empty()) {
    return Status::InvalidArgument("hash-distributed table '" + name +
                                   "' needs distribution columns");
  }
  for (int col : distribution_columns) {
    if (col < 0 || static_cast<size_t>(col) >= schema.size()) {
      return Status::InvalidArgument("distribution column index out of range");
    }
  }
  auto table = std::make_unique<TableDescriptor>();
  table->oid = next_oid_++;
  table->name = name;
  table->schema = std::move(schema);
  table->distribution = distribution;
  table->distribution_columns = std::move(distribution_columns);
  TableDescriptor* raw = table.get();
  tables_.push_back(std::move(table));
  by_name_.emplace(name, raw);
  by_oid_.emplace(raw->oid, raw);
  return raw;
}

Result<Oid> Catalog::CreateTable(const std::string& name, Schema schema,
                                 TableDistribution distribution,
                                 std::vector<int> distribution_columns) {
  MPPDB_ASSIGN_OR_RETURN(
      TableDescriptor * table,
      CreateTableEntry(name, std::move(schema), distribution,
                       std::move(distribution_columns)));
  return table->oid;
}

Result<Oid> Catalog::CreatePartitionedTable(
    const std::string& name, Schema schema, TableDistribution distribution,
    std::vector<int> distribution_columns,
    std::vector<PartitionLevelDesc> level_descs,
    const std::vector<std::vector<PartitionBound>>& bounds_per_level) {
  if (level_descs.empty() || level_descs.size() != bounds_per_level.size()) {
    return Status::InvalidArgument(
        "partition level descriptors and bounds must be non-empty and aligned");
  }
  for (const auto& level : level_descs) {
    if (level.key_column < 0 || static_cast<size_t>(level.key_column) >= schema.size()) {
      return Status::InvalidArgument("partition key column index out of range");
    }
  }
  // Validated before the entry exists, so a rejected table leaves no trace
  // and consumes no OIDs.
  for (size_t i = 0; i < level_descs.size(); ++i) {
    MPPDB_RETURN_IF_ERROR(ValidateSiblingBounds(
        bounds_per_level[i],
        schema.column(static_cast<size_t>(level_descs[i].key_column)).type));
  }
  MPPDB_ASSIGN_OR_RETURN(
      TableDescriptor * table,
      CreateTableEntry(name, std::move(schema), distribution,
                       std::move(distribution_columns)));
  std::unique_ptr<PartitionNode> root = BuildUniformHierarchy(bounds_per_level, &next_oid_);
  table->partition_scheme =
      std::make_unique<PartitionScheme>(std::move(level_descs), std::move(root));
  return table->oid;
}

const TableDescriptor* Catalog::FindTable(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const TableDescriptor* Catalog::FindTable(Oid oid) const {
  auto it = by_oid_.find(oid);
  return it == by_oid_.end() ? nullptr : it->second;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("table '" + name + "' does not exist");
  }
  TableDescriptor* table = it->second;
  by_oid_.erase(table->oid);
  by_name_.erase(it);
  for (auto iter = tables_.begin(); iter != tables_.end(); ++iter) {
    if (iter->get() == table) {
      tables_.erase(iter);
      break;
    }
  }
  return Status::OK();
}

Status Catalog::CreateIndex(const std::string& table_name,
                            const std::string& column_name) {
  auto it = by_name_.find(table_name);
  if (it == by_name_.end()) {
    return Status::NotFound("table '" + table_name + "' does not exist");
  }
  int column = it->second->schema.FindColumn(column_name);
  if (column < 0) {
    return Status::NotFound("column '" + column_name + "' not in table " + table_name);
  }
  if (it->second->HasIndexOn(column)) {
    return Status::AlreadyExists("index on " + table_name + "." + column_name +
                                 " already exists");
  }
  it->second->indexed_columns.push_back(column);
  return Status::OK();
}

Status Catalog::SetTableOrientation(const std::string& table_name,
                                    StorageOrientation orientation) {
  auto it = by_name_.find(table_name);
  if (it == by_name_.end()) {
    return Status::NotFound("table '" + table_name + "' does not exist");
  }
  it->second->default_orientation = orientation;
  it->second->unit_orientations.clear();
  return Status::OK();
}

Status Catalog::SetPartitionOrientation(const std::string& table_name,
                                        const std::string& partition_name,
                                        StorageOrientation orientation) {
  auto it = by_name_.find(table_name);
  if (it == by_name_.end()) {
    return Status::NotFound("table '" + table_name + "' does not exist");
  }
  TableDescriptor* table = it->second;
  if (!table->IsPartitioned()) {
    return Status::InvalidArgument("table '" + table_name +
                                   "' is not partitioned");
  }
  size_t matched = 0;
  for (const LeafPartitionInfo& leaf : table->partition_scheme->Leaves()) {
    bool match = leaf.qualified_name == partition_name;
    if (!match) {
      // Bare bound name: match it as a path component at any level.
      const std::string& path = leaf.qualified_name;
      size_t pos = 0;
      while (!match && pos <= path.size()) {
        size_t next = path.find('/', pos);
        if (next == std::string::npos) next = path.size();
        match = path.compare(pos, next - pos, partition_name) == 0;
        pos = next + 1;
      }
    }
    if (match) {
      table->unit_orientations[leaf.oid] = orientation;
      ++matched;
    }
  }
  if (matched == 0) {
    return Status::NotFound("no partition of '" + table_name + "' matches '" +
                            partition_name + "'");
  }
  return Status::OK();
}

std::vector<const TableDescriptor*> Catalog::AllTables() const {
  std::vector<const TableDescriptor*> out;
  out.reserve(tables_.size());
  for (const auto& t : tables_) out.push_back(t.get());
  return out;
}

}  // namespace mppdb
