#ifndef MPPDB_DB_PLAN_CACHE_H_
#define MPPDB_DB_PLAN_CACHE_H_

#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/plan.h"
#include "optimizer/param_analysis.h"

namespace mppdb {

/// One cached statement: the optimized physical plan with $n placeholders
/// intact, everything needed to rebind and execute it without touching the
/// parser, binder, or optimizer, and the table names that invalidate it.
/// Immutable once published — concurrent executions share it by shared_ptr
/// and each rebinds its own copy of the expressions (BindPlanParams clones).
struct CachedPlan {
  /// Optimized plan with ParamExpr placeholders (never executed directly).
  PhysPtr plan;
  /// Output column names of the statement.
  std::vector<std::string> columns;
  /// Per-$n expectations for rebind-time validation/coercion.
  PlanParamAnalysis params;
  /// Tables the plan reads: any DDL touching one of these names evicts the
  /// entry (DROP/CREATE TABLE change oids and storage, CREATE INDEX changes
  /// the best plan).
  std::vector<std::string> table_names;
};

/// A bounded LRU cache of optimized plans keyed on normalized SQL text (plus
/// the planning-relevant option fingerprint the Database appends to the key).
///
/// Thread safety: every method takes the internal mutex; lookups and
/// insertions from concurrent queries and invalidations from DDL threads are
/// safe. Entries are returned as shared_ptr<const CachedPlan>, so an entry
/// evicted or invalidated mid-execution stays alive for the executions that
/// already hold it.
class PlanCache {
 public:
  /// `capacity` = max resident entries (>= 1); least-recently-used beyond
  /// that are evicted.
  explicit PlanCache(size_t capacity = 128);

  /// Held by the one caller compiling a key that missed. Destroying it —
  /// after Insert, or when the compile failed or was not cacheable — wakes
  /// the lookups waiting on that key.
  class CompileClaim {
   public:
    ~CompileClaim();
    CompileClaim(const CompileClaim&) = delete;
    CompileClaim& operator=(const CompileClaim&) = delete;

   private:
    friend class PlanCache;
    CompileClaim(PlanCache* cache, std::string key)
        : cache_(cache), key_(std::move(key)) {}
    PlanCache* cache_;
    std::string key_;
  };

  /// Returns the entry for `key` (bumping it to most-recently-used), or null.
  ///
  /// With `claim` set, concurrent misses on one key compile it once: while
  /// another caller holds the key's claim this waits for it to be released,
  /// then returns what it published (a hit). A caller that misses gets the
  /// claim in `*claim` and must compile.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key,
                                           std::unique_ptr<CompileClaim>* claim = nullptr);

  /// Publishes an entry under `key`, replacing any previous entry and
  /// evicting the LRU tail beyond capacity.
  void Insert(const std::string& key, std::shared_ptr<const CachedPlan> entry);

  /// Drops every entry whose plan reads `table_name` (DDL invalidation).
  /// Returns the number of entries dropped.
  size_t InvalidateTable(const std::string& table_name);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Monotonic counters since construction.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;      ///< capacity-driven LRU drops
    uint64_t invalidations = 0;  ///< DDL-driven drops
  };
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedPlan> plan;
  };

  /// Front = most recently used. The map points into the list.
  using LruList = std::list<Entry>;

  mutable std::mutex mu_;
  size_t capacity_;
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> by_key_;
  Stats stats_;
  /// Keys whose CompileClaim is alive, and the signal of one being released.
  std::unordered_set<std::string> compiling_;
  std::condition_variable claim_released_;
};

}  // namespace mppdb

#endif  // MPPDB_DB_PLAN_CACHE_H_
