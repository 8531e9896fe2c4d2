#ifndef BTRIM_TESTING_TORTURE_H_
#define BTRIM_TESTING_TORTURE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_plan.h"
#include "common/status.h"

namespace btrim {
namespace testing {

/// Configuration for one torture workload (see RunCrashPoint).
struct TortureConfig {
  /// Working directory for the file-backed database. Wiped and re-created
  /// at the start of every run, removed by the caller.
  std::string dir;

  /// Seeds the workload script. The same seed always produces the same
  /// transaction sequence and therefore the same storage-operation trace.
  uint64_t workload_seed = 1;

  /// Transactions the scripted workload attempts.
  int num_txns = 80;

  /// Background pool size handed to DatabaseOptions::pack_workers. 1 keeps
  /// the pipeline serial and the storage-op trace exactly reproducible;
  /// > 1 lets crash points land inside concurrent pack worker tasks (the
  /// per-tick fan-out is still a barrier, so the workload script itself
  /// stays deterministic even though op interleaving within a tick is not).
  int pack_workers = 1;

  /// When true, periodic checkpoints run on a spawned thread while the
  /// writer keeps committing (joined at the next checkpoint step), so crash
  /// points land *inside* an overlapped checkpoint: after the begin barrier
  /// became durable, mid-snapshot-walk, or with the end record torn. The
  /// workload script stays deterministic; only op interleaving (and hence
  /// which phase a given crash index hits) varies run to run — the recovery
  /// contract being verified is interleaving-independent.
  bool overlapped_checkpoints = false;

  /// When true, Pack relocates cold rows into the columnar cold store
  /// (DatabaseOptions::cold_columnar), so crash points land inside cold
  /// placements, segment seals, and the erase journal; recovery must then
  /// replay kColdPlace/kColdErase on top of the loaded segment file.
  bool cold_columnar = false;
};

/// Facts about one crash-point run, for sweep summaries: where the crash
/// landed, what the workload saw before it and what recovery verified.
/// These are harness observations, not engine counters — the engine's own
/// counters are read through the metrics registry.
struct TortureStats {
  uint64_t crash_op = 0;      ///< op index the crash was scripted at
  bool crash_fired = false;   ///< false when the workload ended first
  int64_t txns_acked = 0;     ///< commits acknowledged before the crash
  int64_t txns_aborted = 0;   ///< deliberate aborts before the crash
  bool txn_indeterminate = false;  ///< a commit errored at the crash point
  int64_t keys_verified = 0;  ///< point reads checked after recovery
  int64_t rows_recovered = 0; ///< rows the post-recovery full scan returned
  int64_t checkpoints_completed = 0;  ///< Checkpoint() calls that returned OK
};

/// Runs the scripted workload against a fault-free (but traced) plan and
/// returns the total number of storage operations it issues. The trace of
/// operation kinds is returned through `*trace` when non-null; index i of
/// the trace is the global op index a later RunCrashPoint can crash at.
Result<uint64_t> CountStorageOps(const TortureConfig& config,
                                 std::vector<TraceEntry>* trace = nullptr);

/// Runs one complete crash-point experiment:
///
///   1. wipe `config.dir` and open a file-backed database whose storage is
///      wrapped in fault-injecting decorators sharing one FaultPlan with
///      `CrashAtOp(crash_op)` scripted;
///   2. run the deterministic workload (inserts / updates / deletes /
///      deliberate aborts across both stores, periodic checkpoints, pack
///      and GC ticks), recording for every transaction whether its commit
///      was acknowledged, aborted, or errored (indeterminate);
///   3. destroy the database — un-synced writes are discarded by the
///      decorators, modeling power loss at the crash point;
///   4. reopen the directory without fault injection, Recover(), and verify:
///      every acknowledged transaction's effects are present exactly, the
///      at-most-one indeterminate transaction is atomically all-old or
///      all-new, no aborted or never-committed row resurfaces (full-scan
///      cross-check), and Database::ValidateInvariants passes.
///
/// Returns OK when every check holds; otherwise a Corruption status naming
/// the first violation (the caller logs seed + crash_op for replay).
Status RunCrashPoint(const TortureConfig& config, uint64_t crash_op,
                     TortureStats* stats = nullptr);

}  // namespace testing
}  // namespace btrim

#endif  // BTRIM_TESTING_TORTURE_H_
