#ifndef MPPDB_STORAGE_STORAGE_H_
#define MPPDB_STORAGE_STORAGE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "storage/column_store.h"
#include "storage/synopsis.h"
#include "types/row.h"

namespace mppdb {

/// An ordered secondary index over one column of one storage unit's slice on
/// one segment: sorted (key, row position) pairs supporting equality seeks,
/// range seeks, and ordered walks. Rebuilt lazily when the underlying slice
/// changed (see TableStore).
struct UnitIndex {
  /// Sorted by (key, position) — Datum::Compare on the key (NULLs first),
  /// storage position as the tie-break, so ordered walks yield equal-key rows
  /// in storage order (the same relative order a stable sort of the slice
  /// produces). Positions index into the unit's rows.
  std::vector<std::pair<Datum, size_t>> entries;
  uint64_t built_version = 0;
};

/// One end of a key range for TableStore::IndexRangeSeek. Mirrors the
/// expression layer's IntervalBound (expr/interval.h) without depending on
/// it — the executor/optimizer converts sargable intervals into these.
struct IndexBound {
  Datum value;
  bool inclusive = false;
  bool unbounded = true;

  static IndexBound Unbounded() { return IndexBound{}; }
  static IndexBound Inclusive(Datum v) { return IndexBound{std::move(v), true, false}; }
  static IndexBound Exclusive(Datum v) { return IndexBound{std::move(v), false, false}; }
};

/// Physical storage of one table across the simulated MPP cluster.
///
/// Mirrors GPDB's layout (paper §3.2): each leaf partition is its own
/// physical storage unit, sliced across segments by the table's distribution.
/// Unpartitioned tables have a single unit keyed by the table OID itself.
///
/// Each slice is summarized by chunk-level zone maps (see synopsis.h): every
/// kChunkRows-row logical chunk carries per-column min/max/null-count
/// synopses plus a slice-wide rollup, maintained incrementally on inserts and
/// invalidated (then lazily rebuilt) when in-place DML bumps the slice's
/// version counter. Scans consult them through UnitSynopsis to skip chunks a
/// predicate provably cannot match.
///
/// Writes append one slice at a time: InsertBatch routes the whole batch,
/// groups its rows by (unit, segment) slice and copies each slice's rows
/// together in input order, so a slice's row bodies sit next to each other on
/// the heap however the load interleaves partitions. Only addresses depend on
/// this: every slice holds the same rows in the same order as a sequence of
/// single-row appends would leave.
///
/// Thread safety (audited for the parallel executor): the const read paths —
/// UnitRows, HasUnit, UnitOids, TotalRows, UnitTotalRows, descriptor — touch
/// only the slices_ vector and unit_oids_, whose shapes are fixed at
/// construction, so any number of threads may read concurrently as long as no
/// writer is active. Writers (Insert, InsertBatch, MutableUnitRows) follow the
/// executor's single-writer DML rule: all reads complete at the Gather barrier
/// before DML applies, and only one thread applies it. The index path
/// (CreateIndex, HasIndex, IndexLookup, IndexRangeSeek, IndexOrderedWalk,
/// IndexMinMax) builds lazily and therefore mutates under concurrent readers;
/// it is internally serialized by index_mu_. UnitSynopsis likewise rebuilds
/// lazily under concurrent readers: within one query the executor's
/// segment-ownership contract confines each slice to one thread, but
/// concurrent queries scan the same slice from different threads, so the
/// freshness check and rebuild are serialized by synopsis_mu_ (the returned
/// reference is then stable until the next DML, which the Database-level
/// writer lock keeps out of any read's lifetime).
class TableStore {
 public:
  /// Rows per logical chunk (matches the executor's kernel batch size).
  static constexpr size_t kChunkRows = kStorageChunkRows;

  TableStore(const TableDescriptor* desc, int num_segments);

  const TableDescriptor& descriptor() const { return *desc_; }
  int num_segments() const { return num_segments_; }

  /// Routes each row to its leaf partition (f_T) and segment (distribution)
  /// and appends it, slice by slice. All-or-nothing: fails with
  /// InvalidArgument on an arity mismatch or a non-NULL value whose type
  /// family differs from its column's (TypesComparable), or OutOfRange if the
  /// partition scheme maps a row to the invalid partition ⊥, and then changes
  /// nothing.
  Status InsertBatch(const std::vector<Row>& rows);
  /// The error InsertBatch(rows) would return, without writing anything.
  Status CheckBatch(const std::vector<Row>& rows) const {
    return RouteUnits(rows).status();
  }
  /// InsertBatch of one row.
  Status Insert(const Row& row) { return InsertBatch(std::vector<Row>{row}); }

  /// Rows of one storage unit on one segment. `unit_oid` must be a leaf
  /// partition OID (partitioned) or the table OID (unpartitioned).
  /// Safe for concurrent readers (no writer active).
  const std::vector<Row>& UnitRows(Oid unit_oid, int segment) const;
  std::vector<Row>* MutableUnitRows(Oid unit_oid, int segment);

  /// Chunk synopses of one slice, rebuilt here if in-place DML staled them.
  /// Caller must be the thread owning the segment's slices (the UnitRows
  /// contract); the returned reference is valid until the slice next mutates.
  const SliceSynopsis& UnitSynopsis(Oid unit_oid, int segment) const;

  /// All storage-unit OIDs (leaf partitions, or the table itself), in
  /// ascending OID order.
  const std::vector<Oid>& UnitOids() const { return unit_oids_; }

  bool HasUnit(Oid unit_oid) const {
    return std::binary_search(unit_oids_.begin(), unit_oids_.end(), unit_oid);
  }

  size_t TotalRows() const;
  size_t UnitTotalRows(Oid unit_oid) const;

  /// Declares an index on a schema column. Indexes build lazily per
  /// (unit, segment) at first lookup and rebuild automatically after the
  /// slice mutates (inserts or in-place DML edits bump a version counter).
  /// Safe to call concurrently (idempotent, serialized on index_mu_).
  Status CreateIndex(int column);
  bool HasIndex(int column) const;

  /// Equality seek: positions (into UnitRows(unit_oid, segment)) of rows
  /// whose `column` value equals `key`. The index must exist. Safe for
  /// concurrent callers: lazy (re)builds are serialized on index_mu_ and the
  /// result is returned by value.
  std::vector<size_t> IndexLookup(Oid unit_oid, int segment, int column,
                                  const Datum& key);

  /// Range seek: positions of rows whose `column` value falls in [lo, hi]
  /// (each end optionally exclusive or unbounded), returned in ascending
  /// storage order — the same order a full scan plus filter visits them.
  /// NULL column values never match (SQL comparison semantics), and a NULL
  /// bound value on a non-unbounded end matches nothing. Same concurrency
  /// contract as IndexLookup.
  std::vector<size_t> IndexRangeSeek(Oid unit_oid, int segment, int column,
                                     const IndexBound& lo, const IndexBound& hi);

  /// Ordered walk: positions of the first `limit` rows of the slice in
  /// index-key order — ascending (NULLs first) or descending (NULLs last),
  /// matching the executor's Sort comparator — with equal keys in storage
  /// order either way, so the walk's prefix is exactly the stable-sorted
  /// slice's prefix. `limit` == 0 means the whole slice. Same concurrency
  /// contract as IndexLookup.
  std::vector<size_t> IndexOrderedWalk(Oid unit_oid, int segment, int column,
                                       bool ascending_order, size_t limit);

  /// Position of the row holding the minimum (or maximum) non-null value of
  /// `column` in the slice — the first entry of the run in key order, so the
  /// result is deterministic. nullopt when the slice is empty or all-NULL.
  /// Same concurrency contract as IndexLookup.
  std::optional<size_t> IndexMinMax(Oid unit_oid, int segment, int column,
                                    bool minimum);

  /// True if the slice's synopsis reflects its current version — i.e. the
  /// next UnitSynopsis read returns it without a rebuild. The executor's
  /// memory accountant uses this to charge (or shed) rebuild scratch before
  /// asking for the synopsis.
  bool SynopsisFresh(Oid unit_oid, int segment) const;

  /// Effective storage orientation of one unit (catalog default plus per-leaf
  /// overrides; see TableDescriptor::UnitOrientation).
  StorageOrientation UnitOrientation(Oid unit_oid) const {
    return desc_->UnitOrientation(unit_oid);
  }

  /// Encoded column image of one slice, or nullptr for row-oriented units.
  /// Same lazy contract as UnitSynopsis: (re)encoded here when the slice
  /// version moved (serialized on colstore_mu_); the returned pointer is
  /// stable until the slice next mutates, which the Database-level writer
  /// lock keeps out of any concurrent read's lifetime.
  const SliceColumns* UnitColumns(Oid unit_oid, int segment) const;

  /// True if the slice's encoded image reflects its current version (always
  /// true for row-oriented units, which keep none). The executor charges or
  /// sheds the encode scratch before asking, like SynopsisFresh.
  bool ColumnsFresh(Oid unit_oid, int segment) const;

  /// Exact distinct count of `column`'s non-null values, provable from the
  /// encoded images alone: every non-empty slice must be column-oriented,
  /// fresh, and hold the column purely dictionary- or run-length-encoded;
  /// the result is the size of the merged value set. nullopt when not
  /// provable (the CardinalityEstimator then falls back to its rollup
  /// estimate).
  std::optional<size_t> ExactDistinctFromDictionaries(int column) const;

 private:
  /// One (unit, segment) slice: its rows and what is derived from them.
  struct Slice {
    std::vector<Row> rows;
    /// Mutation counter: every append and in-place DML bumps it (0 = never
    /// mutated).
    uint64_t version = 0;
    /// Chunk synopses; mutable for the lazy rebuild in UnitSynopsis
    /// (serialized by synopsis_mu_, see class comment).
    mutable SliceSynopsis synopsis;
    /// Encoded column image, only built for column-oriented units; mutable
    /// for the lazy (re)encode in UnitColumns (serialized by colstore_mu_).
    mutable SliceColumns columns;
  };

  /// Position of `unit_oid` in unit_oids_ (it must be a unit of this table).
  size_t UnitOrdinal(Oid unit_oid) const;
  const Slice& SliceAt(Oid unit_oid, int segment) const;
  Slice& SliceAt(Oid unit_oid, int segment);

  /// Locates (building or rebuilding if stale) the per-slice index for
  /// `column`. Caller must hold index_mu_; the returned reference is valid
  /// while the lock is held.
  UnitIndex& EnsureUnitIndex(Oid unit_oid, int segment, int column);

  /// Validates every row and returns each one's unit ordinal (f_T), in row
  /// order; the first bad row's error otherwise.
  Result<std::vector<uint32_t>> RouteUnits(const std::vector<Row>& rows) const;
  int SegmentForRow(const Row& row);
  /// Copies rows[i] for each i in `members` (ascending) onto the end of
  /// `slice`, bumps its version once and extends its synopsis — unless
  /// in-place DML already staled it, in which case it stays stale until the
  /// next UnitSynopsis read rebuilds it from the rows.
  void AppendToSlice(Slice& slice, const std::vector<Row>& rows,
                     std::span<const uint32_t> members);

  const TableDescriptor* desc_;
  int num_segments_;
  uint64_t round_robin_ = 0;
  /// Storage-unit OIDs, ascending.
  std::vector<Oid> unit_oids_;
  /// Unit ordinal of each leaf, by the scheme's dense leaf index (empty for
  /// an unpartitioned table).
  std::vector<uint32_t> leaf_units_;
  /// Slice (unit_oids_[u], segment) at u * num_segments_ + segment. Shape
  /// fixed at construction.
  std::vector<Slice> slices_;
  /// Serializes the lazy synopsis rebuild and freshness checks: within one
  /// query the segment-ownership contract already confines a slice to one
  /// thread, but concurrent *queries* scan the same slice from different
  /// threads and must not both rebuild a synopsis staled by earlier DML.
  mutable std::mutex synopsis_mu_;
  /// Serializes the lazy column-image (re)encode (same pattern as the
  /// synopses).
  mutable std::mutex colstore_mu_;
  /// Serializes the lazily-built index structures below, which concurrent
  /// read-only queries mutate as a side effect.
  mutable std::mutex index_mu_;
  /// column -> unit oid -> per-segment index.
  std::map<int, std::unordered_map<Oid, std::vector<UnitIndex>>> indexes_;
};

/// Owns the TableStores of all tables in a catalog-backed database instance.
class StorageEngine {
 public:
  explicit StorageEngine(int num_segments) : num_segments_(num_segments) {}
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  int num_segments() const { return num_segments_; }

  /// Allocates (empty) storage for the table; call once after catalog DDL.
  Status CreateStorage(const TableDescriptor* desc);

  TableStore* GetStore(Oid table_oid);
  const TableStore* GetStore(Oid table_oid) const;

  /// Releases a table's storage. Fails if absent.
  Status DropStorage(Oid table_oid);

 private:
  int num_segments_;
  std::unordered_map<Oid, std::unique_ptr<TableStore>> stores_;
};

}  // namespace mppdb

#endif  // MPPDB_STORAGE_STORAGE_H_
