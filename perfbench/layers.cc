#include "layers.h"

#include <memory>
#include <vector>

#include "engine/router.h"
#include "engine/task_runtime.h"
#include "probes.h"

namespace perfbench {
namespace {

/// Checkpoint period of the replay, in batches: often enough that a
/// delta-capable task writes a base plus several deltas.
constexpr int64_t kCheckpointEvery = 5;

}  // namespace

ppa::StatusOr<LayerReplay> ReplayLayers(const WorkloadSpec& spec,
                                        const SourceInputs& inputs,
                                        int64_t batches) {
  PPA_ASSIGN_OR_RETURN(BuiltWorkload w, spec.build());
  const ppa::Topology& topo = w.topo;
  const ppa::Router router(&topo);
  LayerReplay r;
  r.num_tasks = topo.num_tasks();

  Probes probes;
  auto make_runtime = [&](ppa::TaskId t) {
    const ppa::OperatorId op = topo.task(t).op;
    if (topo.IsSourceTask(t)) {
      return std::make_unique<ppa::TaskRuntime>(
          &topo, t, nullptr, std::make_unique<ReplaySource>(&inputs));
    }
    return std::make_unique<ppa::TaskRuntime>(
        &topo, t,
        std::make_unique<TimedOperator>(w.operators.at(op)(), &probes.first,
                                        &probes.state),
        nullptr);
  };
  std::vector<std::unique_ptr<ppa::TaskRuntime>> rts;
  std::vector<bool> full_edge(topo.substreams().size(), false);
  for (ppa::TaskId t = 0; t < topo.num_tasks(); ++t) {
    rts.push_back(make_runtime(t));
  }
  for (size_t si = 0; si < topo.substreams().size(); ++si) {
    const ppa::Substream& s = topo.substreams()[si];
    PPA_ASSIGN_OR_RETURN(ppa::PartitionScheme scheme,
                         topo.EdgeScheme(s.from_op, s.to_op));
    full_edge[si] = scheme == ppa::PartitionScheme::kFull;
  }

  // Runs batch b of task t on `rt`, gathering from the live runtimes.
  auto run_task = [&](ppa::TaskRuntime* rt, int64_t b) {
    const ppa::TaskId t = rt->id();
    if (rt->is_source()) {
      r.source_tuples +=
          static_cast<int64_t>(rt->RunBatch(b, {}).tuples.size());
      ++r.source_task_batches;
      return;
    }
    std::vector<ppa::Tuple> in;
    for (int si : topo.task(t).in_substreams) {
      const ppa::Substream& s = topo.substreams()[static_cast<size_t>(si)];
      const ppa::BatchOutput* bo = rts[static_cast<size_t>(s.from)]->FindBatch(b);
      if (bo == nullptr) {
        continue;
      }
      const Clock::time_point start = Clock::now();
      const size_t n = router.RouteBatchTo(s.from, topo.task(t).op, *bo, t, &in);
      r.route_s += SecondsSince(start);
      ++r.route_calls;
      r.tuples_scanned += static_cast<int64_t>(bo->tuples.size());
      r.tuples_routed += static_cast<int64_t>(n);
      if (full_edge[static_cast<size_t>(si)]) {
        r.tuples_routed_full += static_cast<int64_t>(n);
      }
    }
    r.inputs_offered += static_cast<int64_t>(in.size());
    const int64_t before = rt->processed_tuples();
    const Clock::time_point start = Clock::now();
    rt->RunBatch(b, std::move(in));
    r.run_batch_s += SecondsSince(start);
    r.inputs_fresh += rt->processed_tuples() - before;
    ++r.operator_batches;
  };

  // Checkpoint chains: a base snapshot, then deltas where supported.
  std::vector<std::vector<std::string>> chains(rts.size());
  int64_t last_checkpoint = -1;
  for (int64_t b = 0; b < batches; ++b) {
    for (ppa::OperatorId op : topo.topo_order()) {
      for (ppa::TaskId t : topo.op(op).tasks) {
        run_task(rts[static_cast<size_t>(t)].get(), b);
      }
    }
    int64_t state = 0;
    for (const auto& rt : rts) {
      state += rt->StateSizeTuples();
    }
    r.peak_state_tuples = std::max(r.peak_state_tuples, state);
    if ((b + 1) % kCheckpointEvery != 0 || b + 2 >= batches) {
      continue;
    }
    for (size_t t = 0; t < rts.size(); ++t) {
      if (rts[t]->is_source()) {
        continue;
      }
      const Clock::time_point start = Clock::now();
      std::string blob;
      if (chains[t].empty() || !rts[t]->SupportsDeltaSnapshots()) {
        PPA_ASSIGN_OR_RETURN(blob, rts[t]->Snapshot());
        chains[t].clear();
      } else {
        PPA_ASSIGN_OR_RETURN(ppa::TaskRuntime::DeltaSnapshot delta,
                             rts[t]->SnapshotDelta());
        blob = std::move(delta.blob);
      }
      r.task_snapshot_s += SecondsSince(start);
      r.task_snapshot_bytes += static_cast<int64_t>(blob.size());
      chains[t].push_back(std::move(blob));
    }
    last_checkpoint = b;
    // Every consumer has checkpointed past b: trim every output buffer.
    for (const auto& rt : rts) {
      const Clock::time_point start = Clock::now();
      rt->TrimOutputBuffer(b);
      r.trim_s += SecondsSince(start);
    }
  }

  // Recovery: restore each stateful task from its chain, then replay the
  // batches after the checkpoint from the live upstream buffers.
  if (last_checkpoint >= 0) {
    for (ppa::OperatorId op : topo.topo_order()) {
      for (ppa::TaskId t : topo.op(op).tasks) {
        const auto& chain = chains[static_cast<size_t>(t)];
        if (chain.empty()) {
          continue;
        }
        std::unique_ptr<ppa::TaskRuntime> restored = make_runtime(t);
        const Clock::time_point start = Clock::now();
        PPA_RETURN_IF_ERROR(restored->Restore(chain.front()));
        for (size_t i = 1; i < chain.size(); ++i) {
          PPA_RETURN_IF_ERROR(restored->ApplyDelta(chain[i]));
        }
        r.task_restore_s += SecondsSince(start);
        for (int64_t b = restored->next_batch(); b < batches; ++b) {
          run_task(restored.get(), b);
        }
      }
    }
  }
  r.operator_s = probes.first.process_s;
  return r;
}

BackendHarness RunBackendHarness(ppa::backend::BackendKind kind,
                                 int64_t events) {
  std::unique_ptr<ppa::backend::ExecutionBackend> be = MakeBenchBackend(kind);
  const uint64_t strand = be->NewStrand();
  BackendHarness h;
  Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < events; ++i) {
    (void)be->ScheduleAfterOn(strand, ppa::Duration::Micros(i % 1000), [] {});
  }
  const double schedule_s = SecondsSince(start);
  start = Clock::now();
  be->RunUntil(ppa::TimePoint::Zero() + ppa::Duration::Seconds(1));
  const double dispatch_s = SecondsSince(start);
  h.events = be->events_processed();
  const double n = static_cast<double>(std::max<int64_t>(1, h.events));
  h.schedule_ns = schedule_s * 1e9 / n;
  h.dispatch_ns = dispatch_s * 1e9 / n;
  return h;
}

}  // namespace perfbench
