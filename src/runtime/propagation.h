#ifndef MPPDB_RUNTIME_PROPAGATION_H_
#define MPPDB_RUNTIME_PROPAGATION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/partition_scheme.h"
#include "runtime/join_filter.h"

namespace mppdb {

/// The shared-memory channel between PartitionSelector (producer) and
/// DynamicScan (consumer) with the same scan id (paper §2.2, and the
/// partition_propagation built-in of Table 1). In a real MPP system this is
/// segment-process shared memory, which is why the optimizer forbids Motion
/// between the pair; here it is scoped per simulated segment.
///
/// Thread safety: channels are segment-scoped and lock-free. The outer
/// per-segment vector is sized once at construction, and the contract — which
/// makes concurrent slice execution safe without locks — is that all accesses
/// for a given segment come from the one thread currently executing that
/// segment's slices. The executor registers that thread via BindOwner
/// at every segment task start, and every access checks it (a violated contract
/// is a data race, so it aborts rather than limping on). Reset and BindOwner
/// are the only cross-segment calls; both happen while no slices run.
class PartitionPropagationHub {
 public:
  explicit PartitionPropagationHub(int num_segments)
      : segments_(static_cast<size_t>(num_segments)) {}

  /// Declares `this_thread` the unique owner of `segment`'s channels until
  /// the next Reset/BindOwner. Must not be called while the segment's slices
  /// are executing on another thread.
  void BindOwner(int segment);

  /// Pushes one selected partition OID for (segment, scan_id). Duplicate
  /// pushes (e.g. one per joining tuple) are deduplicated; first-push order
  /// is preserved so scans are deterministic.
  void Push(int segment, int scan_id, Oid oid);

  /// Marks the channel opened even if no OIDs were selected, so that a
  /// DynamicScan can distinguish "selector selected nothing" (scan nothing)
  /// from "selector never ran" (execution-order bug).
  void OpenChannel(int segment, int scan_id);

  bool HasChannel(int segment, int scan_id) const;

  /// Selected OIDs in first-push order. Channel must exist.
  const std::vector<Oid>& Selected(int segment, int scan_id) const;

  /// Join-filter channels: the hub generalization that carries value-level
  /// build-key summaries (runtime/join_filter.h) alongside the OID channels.
  ///
  /// Segment-local channels follow the exact ownership contract of the OID
  /// channels above: a hash join publishes its own segment's build-key
  /// summary before executing its probe child, and probe-side scans of the
  /// same segment consume it — producer and consumer share the segment's
  /// slice thread, so no lock is needed. Publish aborts on duplicate ids
  /// (each join publishes once per segment per execution).
  void PublishJoinFilter(int segment, int filter_id, JoinFilterSummary summary);

  /// Segment-local lookup; nullptr if nothing was published (e.g. runtime
  /// join filters disabled). The pointer stays valid until Reset.
  const JoinFilterSummary* FindJoinFilter(int segment, int filter_id) const;

  /// Cross-segment (global) channel, used when the consumer sits below a
  /// probe-side Motion: its rows are exchanged to other segments before
  /// joining, so only a summary merged across every build source is sound.
  /// Published exactly once per filter — by whichever thread builds the
  /// build-side Motion's exchange buffers, while every consuming slice is
  /// still blocked on (or has not yet reached) that Motion's rendezvous —
  /// and mutex-protected so late readers see a fully published summary.
  void PublishGlobalJoinFilter(int filter_id, JoinFilterSummary summary);

  /// Global lookup; nullptr if nothing was published. Safe from any slice
  /// thread; the pointer stays valid until Reset (node-based map, no
  /// rehash invalidation).
  const JoinFilterSummary* FindGlobalJoinFilter(int filter_id) const;

  /// Clears all channels and owner bindings. Single-threaded: callers must
  /// ensure no slice is executing.
  void Reset();

 private:
  struct Channel {
    std::vector<Oid> ordered;
    /// Dedup bitmap indexed by OID (OIDs are small dense integers — the
    /// catalog allocates them sequentially), one bit per OID word-packed.
    /// Replaces a per-push unordered_set probe: Push is on the selector's
    /// per-joining-tuple hot path, and the bit test is branch-predictable
    /// and allocation-free once the bitmap has grown to the table's OID
    /// range (see bench_micro_operators.cc, BM_HubPush*).
    std::vector<uint64_t> seen_bits;
  };
  struct SegmentChannels {
    std::unordered_map<int, Channel> map;
    /// Segment-local join-filter summaries by filter id. std::map for
    /// reference stability: consumers hold FindJoinFilter pointers across
    /// later publishes.
    std::map<int, JoinFilterSummary> filters;
    /// Owning thread; default (no thread) means unbound — any thread may
    /// access (the executor binds every segment at each task start).
    std::atomic<std::thread::id> owner{std::thread::id()};
  };

  SegmentChannels& CheckedSegment(int segment);
  const SegmentChannels& CheckedSegment(int segment) const;

  std::vector<SegmentChannels> segments_;

  /// Cross-segment join-filter summaries. Guarded by global_filter_mu_;
  /// values are immutable once published.
  mutable std::mutex global_filter_mu_;
  std::map<int, JoinFilterSummary> global_filters_;
};

}  // namespace mppdb

#endif  // MPPDB_RUNTIME_PROPAGATION_H_
