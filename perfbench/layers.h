// Per-layer measurements the drill hides inside StreamingJob: a replay
// that drives the router and task runtimes directly over a workload's own
// topology and inputs, and a harness that times a backend's scheduling
// and dispatch of no-op callbacks.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>

#include "backend/execution_backend.h"
#include "common/status_or.h"
#include "drills.h"
#include "inputs.h"

namespace perfbench {

struct LayerReplay {
  // Router::RouteBatchTo.
  double route_s = 0.0;
  int64_t route_calls = 0;
  /// Tuples RouteBatchTo scanned (each producer batch once per consumer).
  int64_t tuples_scanned = 0;
  /// Tuples it delivered.
  int64_t tuples_routed = 0;
  /// Delivered tuples that crossed a full-partition edge.
  int64_t tuples_routed_full = 0;

  // TaskRuntime::RunBatch of non-source tasks, and the operator time
  // inside it.
  double run_batch_s = 0.0;
  double operator_s = 0.0;
  int64_t inputs_offered = 0;
  int64_t inputs_fresh = 0;
  int64_t operator_batches = 0;
  double trim_s = 0.0;

  // TaskRuntime::Snapshot/SnapshotDelta and Restore/ApplyDelta.
  double task_snapshot_s = 0.0;
  int64_t task_snapshot_bytes = 0;
  double task_restore_s = 0.0;

  // Workload shape.
  int num_tasks = 0;
  int64_t source_tuples = 0;
  int64_t source_task_batches = 0;
  int64_t peak_state_tuples = 0;
};

/// Runs batches [0, batches) of `spec`'s topology on bare task runtimes,
/// checkpointing every few batches, then restores every stateful task
/// from its chain and replays the batches after the last checkpoint.
ppa::StatusOr<LayerReplay> ReplayLayers(const WorkloadSpec& spec,
                                        const SourceInputs& inputs,
                                        int64_t batches);

struct BackendHarness {
  int64_t events = 0;
  double schedule_ns = 0.0;
  double dispatch_ns = 0.0;
};

/// Schedules `events` no-op callbacks on one strand of a fresh backend of
/// `kind`, then drives them all.
BackendHarness RunBackendHarness(ppa::backend::BackendKind kind,
                                 int64_t events);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
