#include "storage/storage.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "expr/eval.h"

namespace mppdb {

TableStore::TableStore(const TableDescriptor* desc, int num_segments)
    : desc_(desc), num_segments_(num_segments) {
  MPPDB_CHECK(desc != nullptr);
  MPPDB_CHECK(num_segments > 0);
  if (desc->IsPartitioned()) {
    unit_oids_ = desc->partition_scheme->AllLeafOids();
    std::sort(unit_oids_.begin(), unit_oids_.end());
    for (const LeafPartitionInfo& leaf : desc->partition_scheme->Leaves()) {
      leaf_units_.push_back(static_cast<uint32_t>(UnitOrdinal(leaf.oid)));
    }
  } else {
    unit_oids_.push_back(desc->oid);
  }
  // Every slice gets an (empty, version-0) encoded-image slot: orientation
  // can change per leaf at runtime (ALTER TABLE), so eligibility is checked
  // at read time, not at construction.
  slices_.resize(unit_oids_.size() * static_cast<size_t>(num_segments));
  for (Slice& slice : slices_) slice.synopsis = SliceSynopsis(desc->schema.size());
}

size_t TableStore::UnitOrdinal(Oid unit_oid) const {
  auto it = std::lower_bound(unit_oids_.begin(), unit_oids_.end(), unit_oid);
  MPPDB_CHECK(it != unit_oids_.end() && *it == unit_oid);
  return static_cast<size_t>(it - unit_oids_.begin());
}

const TableStore::Slice& TableStore::SliceAt(Oid unit_oid, int segment) const {
  MPPDB_CHECK(segment >= 0 && segment < num_segments_);
  return slices_[UnitOrdinal(unit_oid) * static_cast<size_t>(num_segments_) +
                 static_cast<size_t>(segment)];
}

TableStore::Slice& TableStore::SliceAt(Oid unit_oid, int segment) {
  return const_cast<Slice&>(std::as_const(*this).SliceAt(unit_oid, segment));
}

int TableStore::SegmentForRow(const Row& row) {
  switch (desc_->distribution) {
    case TableDistribution::kHashed:
      return static_cast<int>(HashRowColumns(row, desc_->distribution_columns) %
                              static_cast<uint64_t>(num_segments_));
    case TableDistribution::kRandom:
      return static_cast<int>(round_robin_++ % static_cast<uint64_t>(num_segments_));
    case TableDistribution::kReplicated:
      return -1;  // handled by caller: insert everywhere
  }
  return 0;
}

Result<std::vector<uint32_t>> TableStore::RouteUnits(
    const std::vector<Row>& rows) const {
  MPPDB_CHECK(rows.size() < UINT32_MAX);
  std::vector<uint32_t> unit_of(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (row.size() != desc_->schema.size()) {
      return Status::InvalidArgument("row arity mismatch for table " + desc_->name);
    }
    // A value of another type family (a string into an INT key, say) would
    // abort f_T's comparisons or corrupt every later one on its column.
    for (size_t c = 0; c < row.size(); ++c) {
      const Column& column = desc_->schema.column(c);
      if (!row[c].is_null() && !TypesComparable(row[c].type(), column.type)) {
        return Status::InvalidArgument(
            "cannot write " + std::string(TypeIdToString(row[c].type())) + " value " +
            row[c].ToString() + " into " + TypeIdToString(column.type) + " column " +
            column.name + " of " + desc_->name);
      }
    }
    uint32_t unit = 0;  // an unpartitioned table's one unit
    if (desc_->IsPartitioned()) {
      const size_t leaf = desc_->partition_scheme->RouteTupleLeaf(row);
      if (leaf == PartitionScheme::kNoLeaf) {
        return Status::OutOfRange("row " + RowToString(row) +
                                  " does not map to any partition of " + desc_->name);
      }
      unit = leaf_units_[leaf];
    }
    unit_of[i] = unit;
  }
  return unit_of;
}

Status TableStore::InsertBatch(const std::vector<Row>& rows) {
  // Pass 1: validate and route every row before touching storage, so a bad
  // row leaves the store unchanged (all-or-nothing). slice_of[i] holds row
  // i's unit ordinal for now.
  MPPDB_ASSIGN_OR_RETURN(std::vector<uint32_t> slice_of, RouteUnits(rows));

  // Pass 2: turn unit ordinals into slice ids, picking segments in row order
  // so round-robin placement matches a sequence of single Inserts. A
  // replicated row goes to every segment of its unit, so it keeps the unit
  // ordinal as its group id.
  const bool replicated = desc_->distribution == TableDistribution::kReplicated;
  const size_t segments = static_cast<size_t>(num_segments_);
  if (!replicated) {
    for (size_t i = 0; i < rows.size(); ++i) {
      slice_of[i] = static_cast<uint32_t>(slice_of[i] * segments +
                                          static_cast<size_t>(SegmentForRow(rows[i])));
    }
  }

  // Pass 3: stable counting sort of the row positions by group id, so each
  // group's run in `order` keeps input order. ends[g] starts as the count of
  // rows in groups before g (g's start in `order`) and advances as g's rows
  // are placed, ending at g's end, which is where g + 1's run starts.
  const size_t groups = replicated ? unit_oids_.size() : slices_.size();
  std::vector<uint32_t> ends(groups + 1, 0);
  for (uint32_t g : slice_of) ++ends[g + 1];
  for (size_t g = 1; g <= groups; ++g) ends[g] += ends[g - 1];
  std::vector<uint32_t> order(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    order[ends[slice_of[i]]++] = static_cast<uint32_t>(i);
  }

  // Pass 4: append slice by slice.
  size_t begin = 0;
  for (size_t g = 0; g < groups; ++g) {
    std::span<const uint32_t> members(order.data() + begin, ends[g] - begin);
    begin = ends[g];
    if (members.empty()) continue;
    if (!replicated) {
      AppendToSlice(slices_[g], rows, members);
      continue;
    }
    for (size_t segment = 0; segment < segments; ++segment) {
      AppendToSlice(slices_[g * segments + segment], rows, members);
    }
  }
  return Status::OK();
}

void TableStore::AppendToSlice(Slice& slice, const std::vector<Row>& rows,
                               std::span<const uint32_t> members) {
  // Exact sizing only for a slice this call fills from empty; appends to a
  // populated slice keep geometric growth (an exact reserve per insert would
  // copy the whole slice every time).
  if (slice.rows.empty()) slice.rows.reserve(members.size());
  const size_t first_new = slice.rows.size();
  for (uint32_t i : members) slice.rows.push_back(rows[i]);
  std::lock_guard<std::mutex> lock(synopsis_mu_);
  const bool was_fresh = slice.synopsis.built_version == slice.version;
  ++slice.version;
  if (!was_fresh) return;
  for (size_t i = first_new; i < slice.rows.size(); ++i) {
    slice.synopsis.Append(slice.rows[i]);
  }
  slice.synopsis.built_version = slice.version;
}

const std::vector<Row>& TableStore::UnitRows(Oid unit_oid, int segment) const {
  return SliceAt(unit_oid, segment).rows;
}

std::vector<Row>* TableStore::MutableUnitRows(Oid unit_oid, int segment) {
  Slice& slice = SliceAt(unit_oid, segment);
  ++slice.version;
  return &slice.rows;
}

bool TableStore::SynopsisFresh(Oid unit_oid, int segment) const {
  const Slice& slice = SliceAt(unit_oid, segment);
  std::lock_guard<std::mutex> lock(synopsis_mu_);
  return slice.synopsis.built_version == slice.version;
}

const SliceSynopsis& TableStore::UnitSynopsis(Oid unit_oid, int segment) const {
  // Serialized against other queries' freshness checks and rebuilds of the
  // same slice; the reference returned is stable until the next DML, which
  // the Database writer lock keeps out of any concurrent read's lifetime.
  const Slice& slice = SliceAt(unit_oid, segment);
  std::lock_guard<std::mutex> lock(synopsis_mu_);
  SliceSynopsis& synopsis = slice.synopsis;
  if (synopsis.built_version != slice.version) {
    // Column-oriented slice with a fresh encoded image: assemble the synopsis
    // from the per-chunk stats captured at encode time (dictionary extremes,
    // RLE run values) instead of walking — and thereby decoding — every row.
    bool from_columns = false;
    if (desc_->UnitOrientation(unit_oid) == StorageOrientation::kColumn) {
      std::lock_guard<std::mutex> col_lock(colstore_mu_);
      if (slice.columns.built_version == slice.version) {
        synopsis = SynopsisFromColumns(slice.columns);
        from_columns = true;
      }
    }
    if (!from_columns) {
      synopsis.chunks.clear();
      synopsis.rollup = ChunkSynopsis(desc_->schema.size());
      for (const Row& row : slice.rows) synopsis.Append(row);
    }
    synopsis.built_version = slice.version;
  }
  return synopsis;
}

const SliceColumns* TableStore::UnitColumns(Oid unit_oid, int segment) const {
  if (desc_->UnitOrientation(unit_oid) != StorageOrientation::kColumn) {
    return nullptr;
  }
  // Same serialization contract as UnitSynopsis: concurrent queries may race
  // to re-encode a slice staled by earlier DML; the reference is stable until
  // the next DML (kept out of read lifetimes by the Database writer lock).
  const Slice& slice = SliceAt(unit_oid, segment);
  std::lock_guard<std::mutex> lock(colstore_mu_);
  if (slice.columns.built_version != slice.version) {
    slice.columns = EncodeSlice(slice.rows, desc_->schema.size());
    slice.columns.built_version = slice.version;
  }
  return &slice.columns;
}

bool TableStore::ColumnsFresh(Oid unit_oid, int segment) const {
  if (desc_->UnitOrientation(unit_oid) != StorageOrientation::kColumn) {
    return true;
  }
  const Slice& slice = SliceAt(unit_oid, segment);
  std::lock_guard<std::mutex> lock(colstore_mu_);
  return slice.columns.built_version == slice.version;
}

std::optional<size_t> TableStore::ExactDistinctFromDictionaries(int column) const {
  if (column < 0 || static_cast<size_t>(column) >= desc_->schema.size()) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(colstore_mu_);
  // Sorted union of every slice's dictionary (and RLE value) sets. Exact only
  // if every non-empty slice is a fresh column-oriented image whose chunks
  // all enumerate their values.
  std::vector<Datum> merged;
  auto merge_value = [&merged](const Datum& v) -> bool {
    if (v.is_null()) return true;
    // The union spans slices that never met in one chunk; a cross-family
    // Datum::Compare would abort, so bail out to the estimate instead.
    if (!merged.empty() && !DatumsComparable(merged.front(), v)) return false;
    auto it = std::lower_bound(merged.begin(), merged.end(), v);
    if (it == merged.end() || !it->Equals(v)) merged.insert(it, v);
    return true;
  };
  for (size_t i = 0; i < slices_.size(); ++i) {
    const Slice& slice = slices_[i];
    if (slice.rows.empty()) continue;
    const Oid oid = unit_oids_[i / static_cast<size_t>(num_segments_)];
    if (desc_->UnitOrientation(oid) != StorageOrientation::kColumn) {
      return std::nullopt;
    }
    const SliceColumns& cols = slice.columns;
    if (cols.built_version != slice.version) return std::nullopt;
    for (const EncodedColumnChunk& chunk : cols.columns[static_cast<size_t>(column)]) {
      switch (chunk.encoding) {
        case ColumnEncoding::kDictionary:
          for (const Datum& v : chunk.dict) {
            if (!merge_value(v)) return std::nullopt;
          }
          break;
        case ColumnEncoding::kRunLength:
          for (const Datum& v : chunk.run_values) {
            if (!merge_value(v)) return std::nullopt;
          }
          break;
        default:
          return std::nullopt;
      }
    }
  }
  return merged.size();
}

namespace {

// Heterogeneous key comparator for binary searches over UnitIndex entries.
// Datum::Compare places NULL before every non-null value, so NULL keys form a
// prefix of the entry array.
struct IndexKeyOrder {
  bool operator()(const std::pair<Datum, size_t>& entry, const Datum& probe) const {
    return Datum::Compare(entry.first, probe) < 0;
  }
  bool operator()(const Datum& probe, const std::pair<Datum, size_t>& entry) const {
    return Datum::Compare(probe, entry.first) < 0;
  }
};

}  // namespace

Status TableStore::CreateIndex(int column) {
  if (column < 0 || static_cast<size_t>(column) >= desc_->schema.size()) {
    return Status::InvalidArgument("index column out of range for " + desc_->name);
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  indexes_[column];  // default-construct per-unit maps lazily
  return Status::OK();
}

bool TableStore::HasIndex(int column) const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return indexes_.count(column) > 0;
}

UnitIndex& TableStore::EnsureUnitIndex(Oid unit_oid, int segment, int column) {
  auto index_it = indexes_.find(column);
  MPPDB_CHECK(index_it != indexes_.end());
  auto& per_unit = index_it->second;
  auto unit_it = per_unit.find(unit_oid);
  if (unit_it == per_unit.end()) {
    unit_it = per_unit
                  .emplace(unit_oid, std::vector<UnitIndex>(
                                         static_cast<size_t>(num_segments_)))
                  .first;
  }
  UnitIndex& index = unit_it->second[static_cast<size_t>(segment)];

  // Offset by one so a default-constructed index (built_version 0) is stale
  // even for a never-mutated slice.
  const uint64_t current_version = SliceAt(unit_oid, segment).version + 1;
  if (index.built_version != current_version) {
    // (Re)build: the slice changed since the index was last built. The
    // position tie-break keeps equal keys in storage order, which ordered
    // walks rely on (see UnitIndex).
    const std::vector<Row>& rows = UnitRows(unit_oid, segment);
    index.entries.clear();
    index.entries.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      index.entries.emplace_back(rows[i][static_cast<size_t>(column)], i);
    }
    std::sort(index.entries.begin(), index.entries.end(),
              [](const auto& a, const auto& b) {
                int c = Datum::Compare(a.first, b.first);
                if (c != 0) return c < 0;
                return a.second < b.second;
              });
    index.built_version = current_version;
  }
  return index;
}

std::vector<size_t> TableStore::IndexLookup(Oid unit_oid, int segment, int column,
                                            const Datum& key) {
  std::lock_guard<std::mutex> lock(index_mu_);
  UnitIndex& index = EnsureUnitIndex(unit_oid, segment, column);

  std::vector<size_t> positions;
  if (key.is_null()) return positions;  // NULL keys never match
  // equal_range bounds the match run up front so positions can be sized
  // exactly, instead of growing through push_back reallocations on wide runs.
  auto [lower, upper] = std::equal_range(index.entries.begin(), index.entries.end(),
                                         key, IndexKeyOrder{});
  positions.reserve(static_cast<size_t>(upper - lower));
  for (auto it = lower; it != upper; ++it) positions.push_back(it->second);
  return positions;
}

std::vector<size_t> TableStore::IndexRangeSeek(Oid unit_oid, int segment, int column,
                                               const IndexBound& lo,
                                               const IndexBound& hi) {
  std::vector<size_t> positions;
  if ((!lo.unbounded && lo.value.is_null()) || (!hi.unbounded && hi.value.is_null())) {
    return positions;  // a NULL bound compares to nothing
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  UnitIndex& index = EnsureUnitIndex(unit_oid, segment, column);
  const auto& entries = index.entries;
  // NULL column values never satisfy a range predicate; they sort first, so
  // the walk over [first_non_null, end) covers every candidate.
  auto begin = std::partition_point(
      entries.begin(), entries.end(),
      [](const std::pair<Datum, size_t>& e) { return e.first.is_null(); });
  auto end = entries.end();
  if (!lo.unbounded) {
    begin = lo.inclusive
                ? std::lower_bound(begin, end, lo.value, IndexKeyOrder{})
                : std::upper_bound(begin, end, lo.value, IndexKeyOrder{});
  }
  if (!hi.unbounded) {
    end = hi.inclusive ? std::upper_bound(begin, end, hi.value, IndexKeyOrder{})
                       : std::lower_bound(begin, end, hi.value, IndexKeyOrder{});
  }
  positions.reserve(static_cast<size_t>(end - begin));
  for (auto it = begin; it != end; ++it) positions.push_back(it->second);
  // Ascending storage order: the caller's residual filter then visits rows in
  // exactly the order a full scan would, keeping output order bit-identical.
  std::sort(positions.begin(), positions.end());
  return positions;
}

std::vector<size_t> TableStore::IndexOrderedWalk(Oid unit_oid, int segment,
                                                 int column, bool ascending_order,
                                                 size_t limit) {
  std::lock_guard<std::mutex> lock(index_mu_);
  UnitIndex& index = EnsureUnitIndex(unit_oid, segment, column);
  const auto& entries = index.entries;
  const size_t cap = limit == 0 ? entries.size() : std::min(limit, entries.size());
  std::vector<size_t> positions;
  positions.reserve(cap);
  if (ascending_order) {
    // Entry order is already (key asc, position asc): NULLs first, ties in
    // storage order — the stable ascending sort order.
    for (size_t i = 0; i < cap; ++i) positions.push_back(entries[i].second);
    return positions;
  }
  // Descending: iterate equal-key runs from the back, but emit each run
  // forward so ties stay in storage order (the stable descending sort keeps
  // input order within equal keys). NULLs — the lowest run — come out last.
  size_t run_end = entries.size();
  while (run_end > 0 && positions.size() < cap) {
    size_t run_begin = run_end;
    while (run_begin > 0 &&
           Datum::Compare(entries[run_begin - 1].first, entries[run_end - 1].first) ==
               0) {
      --run_begin;
    }
    for (size_t i = run_begin; i < run_end && positions.size() < cap; ++i) {
      positions.push_back(entries[i].second);
    }
    run_end = run_begin;
  }
  return positions;
}

std::optional<size_t> TableStore::IndexMinMax(Oid unit_oid, int segment, int column,
                                              bool minimum) {
  std::lock_guard<std::mutex> lock(index_mu_);
  UnitIndex& index = EnsureUnitIndex(unit_oid, segment, column);
  const auto& entries = index.entries;
  auto first_non_null = std::partition_point(
      entries.begin(), entries.end(),
      [](const std::pair<Datum, size_t>& e) { return e.first.is_null(); });
  if (first_non_null == entries.end()) return std::nullopt;
  if (minimum) return first_non_null->second;
  // Maximum: first entry of the highest-key run, for a deterministic pick.
  auto last = entries.end() - 1;
  auto run_begin = std::lower_bound(first_non_null, entries.end(), last->first,
                                    IndexKeyOrder{});
  return run_begin->second;
}

size_t TableStore::TotalRows() const {
  size_t total = 0;
  for (const Slice& slice : slices_) total += slice.rows.size();
  return total;
}

size_t TableStore::UnitTotalRows(Oid unit_oid) const {
  const size_t first = UnitOrdinal(unit_oid) * static_cast<size_t>(num_segments_);
  size_t total = 0;
  for (size_t segment = 0; segment < static_cast<size_t>(num_segments_); ++segment) {
    total += slices_[first + segment].rows.size();
  }
  return total;
}

Status StorageEngine::CreateStorage(const TableDescriptor* desc) {
  if (desc == nullptr) return Status::InvalidArgument("null table descriptor");
  if (stores_.count(desc->oid) > 0) {
    return Status::AlreadyExists("storage for table already exists: " + desc->name);
  }
  stores_.emplace(desc->oid, std::make_unique<TableStore>(desc, num_segments_));
  return Status::OK();
}

Status StorageEngine::DropStorage(Oid table_oid) {
  if (stores_.erase(table_oid) == 0) {
    return Status::NotFound("no storage for table oid " + std::to_string(table_oid));
  }
  return Status::OK();
}

TableStore* StorageEngine::GetStore(Oid table_oid) {
  auto it = stores_.find(table_oid);
  return it == stores_.end() ? nullptr : it->second.get();
}

const TableStore* StorageEngine::GetStore(Oid table_oid) const {
  auto it = stores_.find(table_oid);
  return it == stores_.end() ? nullptr : it->second.get();
}

}  // namespace mppdb
