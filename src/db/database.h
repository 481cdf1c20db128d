#ifndef MPPDB_DB_DATABASE_H_
#define MPPDB_DB_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "db/plan_cache.h"
#include "exec/executor.h"
#include "optimizer/cascades/cascades_optimizer.h"
#include "optimizer/planner/legacy_planner.h"
#include "sql/binder.h"
#include "sql/normalizer.h"
#include "storage/storage.h"

namespace mppdb {

/// Which optimizer compiles a statement: the paper's Orca-style Cascades
/// optimizer or the legacy Planner baseline.
enum class OptimizerKind { kCascades, kLegacyPlanner };

/// Per-statement execution options.
struct QueryOptions {
  OptimizerKind optimizer = OptimizerKind::kCascades;
  /// Fig. 17 switch: disable partition selection (selectors select all).
  bool enable_partition_selection = true;
  /// Disable only join-induced dynamic elimination.
  bool enable_dynamic_elimination = true;
  /// Disable the two-phase (local/global) aggregation alternative.
  bool enable_two_phase_agg = true;
  /// Disable the index nested-loop join alternative.
  bool enable_index_join = true;
  /// Disable the optimizer's runtime join-filter placement pass (the
  /// executor side has its own Executor::Options::join_filters switch).
  /// Results and all pre-existing ExecStats are identical either way; only
  /// the joinfilter_* counters (and the work saved) differ.
  bool enable_join_filters = true;
  /// Disable the index access-path alternatives (DynamicIndexScan range
  /// seeks, ORDER BY + LIMIT ordered walks, ungrouped MIN/MAX probes) and
  /// the fused bounded top-N operator. Results are bit-identical either way;
  /// only the index_seeks / index_rows_read / topn_rows_cut counters (and
  /// the work saved) differ.
  bool enable_index_paths = true;
  /// Values for $1, $2, ... parameters, substituted before optimization.
  std::vector<Datum> params;

  /// --- Serving layer (DESIGN.md §11) --------------------------------------
  /// Consult the database's shared parameterized plan cache. The statement
  /// is normalized at lexer level (literals lifted into $n slots, case and
  /// whitespace canonicalized) and looked up by normalized text + the
  /// planning-relevant option fingerprint. On a hit, the cached optimized
  /// plan is rebound to this call's parameter values (string-to-date
  /// coercion applied where the plan expects dates) and executed — parse,
  /// bind, and the Cascades search are all skipped; dynamic partition
  /// elimination happens at run time through the PartitionSelector exactly
  /// as for a prepared statement. On a miss, the *normalized* text is
  /// planned (so the published plan carries $n placeholders and stays valid
  /// across values) and cached iff it is a non-EXPLAIN SELECT whose plan
  /// passes the parameter-invariance check (optimizer/param_analysis.h).
  /// DDL, DML, and EXPLAIN always take the fresh path; DDL on a table
  /// invalidates every cached plan reading it.
  bool use_plan_cache = false;

  /// --- Resilience (DESIGN.md "Failure model") -----------------------------
  /// Registers the statement under this id while it executes, so another
  /// thread can terminate it with Database::Cancel(query_id). 0 = not
  /// registered (still cancellable via a caller-owned QueryContext at the
  /// Executor layer).
  uint64_t query_id = 0;
  /// Wall-clock budget for the whole statement, retries included; expiry
  /// surfaces as kDeadlineExceeded. 0 = no deadline.
  int64_t timeout_ms = 0;
  /// Per-query memory budget charged by build tables, sort buffers, motion
  /// buffers, and join-filter summaries; exhaustion surfaces as
  /// kResourceExhausted after advisory allocations shed. 0 = unlimited.
  /// The serving layer (server/session_manager.h) sets this to the query's
  /// parcel of its resource group's budget.
  size_t memory_limit_bytes = 0;
  /// Query-level retries for retriable failures (Status::IsRetriable, i.e.
  /// kTransientIO): the executor's idempotent teardown resets hub channels,
  /// exchanges, and join filters between attempts. DML plans never retry —
  /// an attempt that failed after applying writes must not apply them twice.
  int max_transient_retries = 2;
  /// Base backoff between attempts, doubling per retry. 0 = immediate.
  int retry_backoff_ms = 1;
  /// Deterministic fault injector threaded through execution (tests and
  /// resilience benchmarks). Not owned; null = no injection.
  FaultInjector* fault_injector = nullptr;
  /// Directory for out-of-core spill files (hash join/agg partitions, sort
  /// runs) written when the memory budget refuses mandatory state. Empty =
  /// the system temp directory. Files live in a per-query subdirectory
  /// removed on completion, cancellation, deadline expiry, and retry
  /// teardown.
  std::string spill_dir;
};

/// Result of one statement: rows, column names, the executed plan, and the
/// execution statistics that back the paper's experiments.
struct QueryResult {
  std::vector<Row> rows;
  std::vector<std::string> columns;
  PhysPtr plan;
  ExecStats stats;
  /// True when the plan came from the plan cache (parse+bind+optimize
  /// skipped; only parameter rebinding ran).
  bool plan_cache_hit = false;
};

/// The top-level embedded-database facade: catalog + storage + SQL front end
/// + both optimizers + the simulated MPP executor. This is the public entry
/// point used by the examples, benchmarks, and the serving layer
/// (server/session_manager.h).
///
///   Database db(/*num_segments=*/4);
///   db.CreatePartitionedTable(...);
///   auto result = db.Run("SELECT avg(amount) FROM orders WHERE ...");
///
/// By default (Executor::Options::workers = 1) every statement runs its
/// segment tasks on the calling thread, and no scheduler exists. Pass
/// Executor::Options{.workers = N} with N > 1 (or 0 for
/// hardware_concurrency) to run every statement's plan on a shared morsel
/// scheduler instead (identical results, see Executor): one work-stealing
/// pool of that size is created up front and shared by every statement —
/// and by every concurrent statement.
///
/// Concurrency contract (audited for the serving layer):
///  * Run/Execute/ExecutePlan/PlanSql/Explain are safe to call from any
///    number of threads concurrently. Each call executes on its own
///    Executor instance (cheap: two pointers and a per-segment hub) that
///    shares the scheduler pool, so no per-run state is shared between
///    statements.
///  * Statements serialize on a reader/writer lock over the catalog and
///    storage: SELECT/EXPLAIN hold it shared for their full execution and
///    run fully concurrently with each other; DDL (CREATE/DROP TABLE,
///    CREATE INDEX), DML (INSERT/UPDATE/DELETE), and Load hold it exclusive
///    — a writer waits for in-flight readers and blocks new ones, which
///    also upholds the executor's single-writer DML rule across queries.
///  * Cancel(query_id) takes only the registry lock and may be called at
///    any time, including against a statement blocked on the state lock.
///  * TableStore lazy structures reached by concurrent readers (secondary
///    indexes, chunk synopses staled by earlier DML) serialize their
///    rebuilds internally (storage/storage.h).
///  * The plan cache is internally locked; DDL invalidates affected entries
///    while holding the state lock exclusively, so a reader that looked up
///    an entry under the shared lock can never execute a plan against a
///    catalog the entry predates.
class Database {
 public:
  explicit Database(int num_segments, Executor::Options exec_options = {})
      : storage_(num_segments), exec_options_(exec_options) {
    const int workers = Executor::ResolveWorkerCount(exec_options.workers);
    if (workers > 1) scheduler_ = std::make_unique<MorselScheduler>(workers);
  }
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Direct component access for tests and benchmarks. Not synchronized:
  /// callers touching these while other threads execute statements are on
  /// their own (the statement entry points below are the concurrent API).
  Catalog& catalog() { return catalog_; }
  StorageEngine& storage() { return storage_; }
  int num_segments() const { return storage_.num_segments(); }
  PlanCache& plan_cache() { return plan_cache_; }
  /// The execution options every per-statement executor is built from.
  const Executor::Options& exec_options() const { return exec_options_; }

  /// DDL: creates the table in the catalog and allocates storage.
  Result<Oid> CreateTable(const std::string& name, Schema schema,
                          TableDistribution distribution,
                          std::vector<int> distribution_columns);
  Result<Oid> CreatePartitionedTable(
      const std::string& name, Schema schema, TableDistribution distribution,
      std::vector<int> distribution_columns,
      std::vector<PartitionLevelDesc> level_descs,
      const std::vector<std::vector<PartitionBound>>& bounds_per_level);

  /// Bulk load (bypasses SQL; rows routed by f_T and the distribution).
  Status Load(const std::string& table, const std::vector<Row>& rows);

  /// Parses, binds, optimizes, and executes a statement — or, with
  /// QueryOptions::use_plan_cache, skips straight to rebind+execute on a
  /// cache hit. Thread-safe (see the class contract); `Run` is a synonym
  /// kept for the original single-user API.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryOptions& options = {});
  Result<QueryResult> Run(const std::string& sql, const QueryOptions& options = {}) {
    return Execute(sql, options);
  }

  /// Parses, binds, and optimizes only — for plan-shape and plan-size
  /// experiments (§4.4).
  Result<PhysPtr> PlanSql(const std::string& sql, const QueryOptions& options = {});

  /// EXPLAIN-style rendering of the chosen plan.
  Result<std::string> Explain(const std::string& sql, const QueryOptions& options = {});

  /// Executes a pre-built physical plan (read plans only: DML plans must go
  /// through Run/Execute, which serialize writers).
  Result<QueryResult> ExecutePlan(const PhysPtr& plan);
  /// Same, under the options' resilience controls (query_id registration,
  /// deadline, memory budget, fault injection, transient retries). The
  /// optimizer-selection fields are ignored — the plan is already built.
  Result<QueryResult> ExecutePlan(const PhysPtr& plan, const QueryOptions& options);

  /// Requests cooperative cancellation of the running statement registered
  /// under `query_id` (QueryOptions::query_id). Returns false if no such
  /// statement is active. The cancelled statement terminates within one
  /// batch with kCancelled, all workers joined and storage untouched.
  bool Cancel(uint64_t query_id);

 private:
  /// Fresh path: parse, route DDL/DML to the exclusive lock, SELECT to the
  /// shared lock, then plan + execute.
  Result<QueryResult> ExecuteFresh(const std::string& sql, const QueryOptions& options);
  /// Cache path (state lock held shared by the caller): look up or plan the
  /// normalized text, rebind parameter values, execute.
  Result<QueryResult> ExecuteCacheable(const NormalizedSql& normalized,
                                       const QueryOptions& options);
  /// Runs the plan under a QueryContext built from the options, with the
  /// query-id registry bookkeeping and the transient-retry loop, on a
  /// per-call executor wired to the shared scheduler.
  Result<QueryResult> ExecuteWithContext(const PhysPtr& plan,
                                         const QueryOptions& options);
  Result<PhysPtr> PlanStatement(const BoundStatement& stmt,
                                const QueryOptions& options);
  /// Executes CREATE TABLE / DROP TABLE statements (paper §3.2's DDL: range
  /// or categorical constraints per partition, GPDB-flavored syntax).
  /// Caller holds the state lock exclusively.
  Result<QueryResult> RunDdl(const sql_ast::Statement& parsed);

  /// DDL bodies without locking, shared by the public wrappers (which take
  /// the state lock) and RunDdl (which already holds it).
  Result<Oid> CreateTableLocked(const std::string& name, Schema schema,
                                TableDistribution distribution,
                                std::vector<int> distribution_columns);
  Result<Oid> CreatePartitionedTableLocked(
      const std::string& name, Schema schema, TableDistribution distribution,
      std::vector<int> distribution_columns,
      std::vector<PartitionLevelDesc> level_descs,
      const std::vector<std::vector<PartitionBound>>& bounds_per_level);

  Catalog catalog_;
  StorageEngine storage_;
  /// Shared work-stealing pool, created once per Database when
  /// exec_options_.workers resolves above 1 and shared by every (concurrent)
  /// statement's executor; null otherwise.
  std::unique_ptr<MorselScheduler> scheduler_;
  /// Template for each statement's per-call executor.
  Executor::Options exec_options_;
  /// Reader/writer lock backing the concurrency contract above.
  mutable std::shared_mutex state_mu_;
  /// Optimized-plan cache keyed on normalized SQL + option fingerprint.
  PlanCache plan_cache_;
  /// Live statements by QueryOptions::query_id, for Cancel(). shared_ptr so
  /// a cancel thread can safely poke a context the query thread is about to
  /// unregister.
  std::mutex query_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<QueryContext>> active_queries_;
};

/// Substitutes $N parameters throughout a physical plan's expressions
/// (prepared-statement execution: the plan is compiled once with parameter
/// placeholders and bound at run time — the paper's second dynamic-
/// elimination use case).
Result<PhysPtr> BindPlanParams(const PhysPtr& plan, const std::vector<Datum>& params);

}  // namespace mppdb

#endif  // MPPDB_DB_DATABASE_H_
