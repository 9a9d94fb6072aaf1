// The project lock-rank registry — THE single table every RankedMutex in
// src/ must draw its (name, rank) from. tools/ss_lint.py rule
// `lock-rank-registry` parses exactly this file: each entry must match
//
//   inline constexpr LockRank k<Name>{"<dotted.name>", <rank>};
//
// and duplicate names or ranks are lint errors, as is constructing a
// RankedMutex in src/ from anything but `lock_rank::k<Name>`.
//
// Rank = allowed acquisition order. A thread may only acquire a mutex
// whose rank is STRICTLY GREATER than the rank of every lock it already
// holds; in particular two mutexes of the same rank never nest. The
// runtime analyzer (ranked_mutex.hpp) additionally records the observed
// acquisition graph and aborts on any cycle, so an inversion is caught
// the first time both orders have ever been seen — even on schedules
// where no deadlock manifests. The rationale for each ordering edge is
// documented in docs/STATIC_ANALYSIS.md ("the lock-rank table").
//
// Gaps between ranks are deliberate: new locks slot in without renumber-
// ing. Leaf facilities (telemetry, logging) rank highest because nearly
// every subsystem calls them while holding its own lock.
#pragma once

namespace ss::support {

/// A (name, static rank) pair identifying one lock order class. Multiple
/// RankedMutex instances may share a LockRank (e.g. per-node ready locks)
/// but then must never be held together by one thread.
struct LockRank {
  const char* name;
  int rank;
};

namespace lock_rank {

// -- Outermost: driver-side orchestration ----------------------------------
/// NodeBase::ready_mutex_ — held across a wide node's whole map stage.
inline constexpr LockRank kNodeReady{"engine.node.ready", 10};
/// ThreadPool queue+shutdown state; Submit runs under kNodeReady.
inline constexpr LockRank kThreadPool{"support.thread_pool", 20};
/// Stage task channel (channel-based RunTasks dispatch): the driver
/// pushes partition indices — possibly under kNodeReady for a shuffle
/// map stage — and pool workers pop with no other lock held.
inline constexpr LockRank kExecChannel{"engine.exec.channel", 22};
/// Async-executor stage coordination (completion counts, prefetch pump
/// hand-off); nests inside kExecChannel pops never (pop releases first).
inline constexpr LockRank kExecState{"engine.exec.state", 24};
/// ParallelFor first-error aggregation (taken in a worker catch block).
inline constexpr LockRank kParallelForError{"support.parallel_for_error", 30};
/// Shuffle map-side staging (worker tasks publish their buckets).
inline constexpr LockRank kShufflePerMap{"engine.shuffle.per_map", 32};
/// Shuffle reduce buckets (driver concatenation, reduce-task reads).
inline constexpr LockRank kShuffleBuckets{"engine.shuffle.buckets", 34};

// -- Cluster services ------------------------------------------------------
inline constexpr LockRank kResourceManager{"cluster.resource_manager", 40};
/// Holds its lock only over arming/polling; callbacks fire unlocked.
inline constexpr LockRank kFaultInjector{"cluster.fault_injector", 42};

// -- Storage: cache above spill above the block store ----------------------
/// CacheManager — calls the spill tier, tracer, and log while locked.
inline constexpr LockRank kCache{"engine.cache", 50};
/// SpillTier — calls its backing BlockStore and the log while locked.
inline constexpr LockRank kSpill{"engine.spill", 52};
/// The I/O lane's bounded job queue (engine/executor.hpp). Ranked above
/// kCache/kSpill defensively: producers enqueue spill-write jobs only
/// AFTER releasing the cache lock (blocking on the bound while holding
/// kCache could deadlock against a completion that needs it), but a
/// future push-under-cache-lock must still be rank-legal.
inline constexpr LockRank kExecQueue{"engine.exec.queue", 54};
inline constexpr LockRank kNameNode{"dfs.namenode", 60};
/// One per simulated DataNode and one backing each SpillTier.
inline constexpr LockRank kBlockStore{"dfs.block_store", 62};

// -- Driver-side bookkeeping ----------------------------------------------
inline constexpr LockRank kMetrics{"engine.metrics", 70};

// -- Leaves: telemetry and logging (called from under most other locks) ----
/// Tracer thread-log registry; nests directly into kTraceThreadLog.
inline constexpr LockRank kTraceRegistry{"engine.trace.registry", 80};
/// One per traced thread.
inline constexpr LockRank kTraceThreadLog{"engine.trace.thread_log", 82};
inline constexpr LockRank kCounters{"engine.counters", 84};
/// stderr log line serialization — the outermost leaf; everything may
/// log while locked, the logger calls nothing.
inline constexpr LockRank kLog{"support.log", 90};

}  // namespace lock_rank
}  // namespace ss::support
