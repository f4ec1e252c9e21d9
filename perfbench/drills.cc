#include "drills.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "backend/execution_backend.h"
#include "common/hash.h"
#include "engine/operators.h"
#include "obs/trace.h"
#include "planner/structure_aware_planner.h"
#include "topology/serialize.h"
#include "workloads/accuracy.h"
#include "workloads/synthetic_recovery.h"
#include "workloads/topk.h"

namespace perfbench {
namespace {

using ppa::OperatorId;
using ppa::Status;
using ppa::StatusOr;
using ppa::StreamingJob;

/// Nodes per failure domain of wide-cluster (a rack, as in scale_cluster).
constexpr int kDomainSize = 16;

ppa::TimePoint At(double seconds) {
  return ppa::TimePoint::Zero() + ppa::Duration::Seconds(seconds);
}

struct Fig6Params {
  double rate;
  int64_t window;
};

WorkloadSpec Fig6(Size size) {
  const Fig6Params p = size == Size::kFull ? Fig6Params{2000.0, 30}
                                           : Fig6Params{100.0, 4};
  WorkloadSpec s;
  s.name = "fig6-correlated";
  s.config = ppa::JobConfig::PpaDefaults();
  s.config.window_batches = p.window;
  s.window_batches = p.window;
  s.fail_at_s = size == Size::kFull ? 40.5 : 20.5;
  s.failover_s = size == Size::kFull ? 45.0 : 15.0;
  s.settle_s = size == Size::kFull ? 130.0 : 20.0;
  s.make_inputs = [p](uint64_t seed, int64_t batches) {
    return MakeUniformInputs(16, batches, static_cast<int64_t>(p.rate), 1024,
                             seed);
  };
  s.build = [p]() -> StatusOr<BuiltWorkload> {
    PPA_ASSIGN_OR_RETURN(ppa::SyntheticRecoveryWorkload w,
                         ppa::MakeSyntheticRecoveryWorkload(p.rate, p.window));
    BuiltWorkload b;
    b.topo = w.topo;
    for (OperatorId op : {w.o1, w.o2, w.o3, w.o4}) {
      b.operators[op] = [window = p.window] {
        return std::make_unique<ppa::SlidingWindowAggregateOperator>(
            window, /*selectivity=*/0.5);
      };
    }
    b.place = [w](StreamingJob* job) -> StatusOr<FailurePlan> {
      // Every synthetic node fails: the paper's Fig. 8 correlated drill.
      FailurePlan plan;
      PPA_ASSIGN_OR_RETURN(plan.nodes,
                           ppa::PlaceSyntheticRecoveryWorkload(w, job));
      return plan;
    };
    return b;
  };
  s.budget = [](const ppa::Topology& topo) { return topo.num_tasks() / 2; };
  s.golden_digest = size == Size::kFull ? 0x18516f3ae75799acull : 0;
  return s;
}

struct Q1Params {
  int64_t per_batch;
  int64_t window;
};

WorkloadSpec Q1(Size size, ppa::backend::BackendKind backend) {
  const Q1Params p =
      size == Size::kFull ? Q1Params{2000, 30} : Q1Params{100, 4};
  WorkloadSpec s;
  s.name = backend == ppa::backend::BackendKind::kSim ? "q1-topk"
                                                      : "q1-topk-threads";
  s.backend = backend;
  s.config = ppa::JobConfig::PpaDefaults();
  s.config.window_batches = p.window;
  s.window_batches = p.window;
  s.fail_at_s = size == Size::kFull ? 40.5 : 20.5;
  s.failover_s = size == Size::kFull ? 40.0 : 15.0;
  s.settle_s = size == Size::kFull ? 95.0 : 20.0;
  s.make_inputs = [p](uint64_t seed, int64_t batches) {
    return MakeZipfInputs(8, batches, p.per_batch, /*population=*/2000,
                          /*zipf_s=*/0.8, seed);
  };
  s.build = [p]() -> StatusOr<BuiltWorkload> {
    ppa::WorldCupSource::Options options;
    options.tuples_per_batch_per_task = p.per_batch;
    PPA_ASSIGN_OR_RETURN(ppa::TopKWorkload w,
                         ppa::MakeTopKWorkload(options, p.window, /*k=*/100));
    BuiltWorkload b;
    b.topo = w.topo;
    b.operators[w.count] = [window = w.count_window_batches] {
      return std::make_unique<ppa::WindowedKeyCountOperator>(window);
    };
    // The partial stage keeps 2k candidates, as BindTopKWorkload does.
    b.operators[w.merge] = [k = w.k, window = w.count_window_batches] {
      return std::make_unique<ppa::TopKOperator>(2 * k, window);
    };
    b.operators[w.top] = [k = w.k, window = w.count_window_batches] {
      return std::make_unique<ppa::TopKOperator>(k, window);
    };
    b.place = [](StreamingJob*) -> StatusOr<FailurePlan> {
      FailurePlan plan;
      plan.all_primaries = true;
      return plan;
    };
    return b;
  };
  s.budget = [](const ppa::Topology& topo) {
    return topo.num_tasks() * 2 / 5;
  };
  s.golden_digest = size == Size::kFull ? 0xdac089edd7ff53a0ull : 0;
  return s;
}

struct WideParams {
  int nodes;
  int64_t per_batch;
  int64_t window;
};

WorkloadSpec Wide(Size size) {
  const WideParams p = size == Size::kFull ? WideParams{2048, 8, 30}
                                           : WideParams{256, 4, 4};
  const int workers = p.nodes * 3 / 4;
  const int width = workers / 2;
  WorkloadSpec s;
  s.name = "wide-cluster";
  s.config = ppa::JobConfig::PpaDefaults();
  s.config.num_worker_nodes = workers;
  s.config.num_standby_nodes = p.nodes - workers;
  s.config.window_batches = p.window;
  s.window_batches = p.window;
  s.fail_at_s = size == Size::kFull ? 60.5 : 20.5;
  s.failover_s = size == Size::kFull ? 20.0 : 15.0;
  s.settle_s = size == Size::kFull ? 60.0 : 20.0;
  s.make_inputs = [p, width](uint64_t seed, int64_t batches) {
    return MakeUniformInputs(width, batches, p.per_batch, 256, seed);
  };
  s.build = [p, width]() -> StatusOr<BuiltWorkload> {
    // scale_cluster's shape: src -> mid (one-to-one) -> sink (merge).
    const std::string w = std::to_string(width);
    PPA_ASSIGN_OR_RETURN(
        ppa::Topology topo,
        ppa::ParseTopologySpec(
            "operator src " + w + " rate=" +
            std::to_string(static_cast<int64_t>(width) * p.per_batch) + "\n" +
            "operator mid " + w + " selectivity=0.5\n" +
            "operator sink 1 selectivity=0.5\n" +
            "edge src mid one-to-one\n" + "edge mid sink merge\n"));
    BuiltWorkload b;
    b.topo = std::move(topo);
    for (const ppa::OperatorInfo& oi : b.topo.operators()) {
      if (!oi.upstream.empty()) {
        b.operators[oi.id] = [window = p.window, sel = oi.selectivity] {
          return std::make_unique<ppa::SlidingWindowAggregateOperator>(window,
                                                                       sel);
        };
      }
    }
    b.place = [p, width](StreamingJob* job) -> StatusOr<FailurePlan> {
      for (int node = 0; node < p.nodes; ++node) {
        PPA_RETURN_IF_ERROR(
            job->cluster().AssignDomain(node, node / kDomainSize));
      }
      // Default placement puts task t on worker t: the domain in the
      // middle of the mid tasks holds only mid primaries, so the failure
      // restores window state while the sink keeps emitting.
      FailurePlan plan;
      plan.domain = (width + width / 2) / kDomainSize;
      return plan;
    };
    return b;
  };
  s.budget = [width](const ppa::Topology&) { return width / 8; };
  s.golden_digest = size == Size::kFull ? 0x21a772ddb04974fcull : 0;
  return s;
}

Status Inject(StreamingJob* job, const FailurePlan& plan) {
  for (int node : plan.nodes) {
    PPA_RETURN_IF_ERROR(job->InjectNodeFailure(node));
  }
  if (plan.domain >= 0) {
    PPA_RETURN_IF_ERROR(job->InjectDomainFailure(plan.domain));
  }
  if (plan.all_primaries) {
    PPA_RETURN_IF_ERROR(job->InjectCorrelatedFailure(/*include_sources=*/true));
  }
  return ppa::OkStatus();
}

/// Nearest-rank percentile of `values` (reordered in place).
double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) {
    return 0.0;
  }
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values->size())));
  const size_t index = std::min(values->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values->begin(), values->begin() + static_cast<long>(index),
                   values->end());
  return (*values)[index];
}

int64_t CounterValue(const ppa::obs::MetricsRegistry& metrics,
                     const std::string& name) {
  auto it = metrics.counters().find(name);
  return it == metrics.counters().end() ? 0 : it->second->value();
}

/// Sink batches the failure may have degraded, replayed from the trace
/// the way the chaos exactly-once-stable invariant does.
std::set<int64_t> DegradedBatches(const ppa::obs::TraceLog& trace) {
  std::set<int64_t> degraded;
  std::set<ppa::TaskId> unhealthy;
  for (const ppa::obs::TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case ppa::obs::TraceEventKind::kTaskFailed:
        unhealthy.insert(e.task);
        break;
      case ppa::obs::TraceEventKind::kTaskCaughtUp:
        unhealthy.erase(e.task);
        break;
      case ppa::obs::TraceEventKind::kSinkBatchStable:
        if (!unhealthy.empty()) {
          degraded.insert(e.a);
        }
        break;
      case ppa::obs::TraceEventKind::kSinkBatchTentative:
        degraded.insert(e.a);
        break;
      default:
        break;
    }
  }
  return degraded;
}

bool InGuardWindow(const std::set<int64_t>& degraded, int64_t guard,
                   int64_t batch) {
  auto it = degraded.upper_bound(batch);
  if (it == degraded.begin()) {
    return false;
  }
  --it;
  return batch - *it <= guard;
}

}  // namespace

std::unique_ptr<ppa::backend::ExecutionBackend> MakeBenchBackend(
    ppa::backend::BackendKind kind) {
  ppa::backend::ThreadedBackendOptions options;
  // A threaded backend runs one pool thread per shard plus its pump, and
  // the calling thread waits on them: cap the total at the core count.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  options.num_shards = std::max(1, cores - 2);
  return ppa::backend::MakeBackend(kind, options);
}

int64_t WorkloadSpec::input_batches() const {
  return static_cast<int64_t>(
             std::ceil(end_s() / config.batch_interval.seconds())) +
         2;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name, Size size) {
  if (name == "fig6-correlated") {
    return Fig6(size);
  }
  if (name == "q1-topk") {
    return Q1(size, ppa::backend::BackendKind::kSim);
  }
  if (name == "q1-topk-threads") {
    return Q1(size, ppa::backend::BackendKind::kThreads);
  }
  if (name == "wide-cluster") {
    return Wide(size);
  }
  return std::nullopt;
}

uint64_t DigestOutput(const SinkOutput& output) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) { h = ppa::Mix64(h ^ v) + 0x632be59bd9b4e019ULL; };
  for (const auto& [key, batch] : output) {
    mix(static_cast<uint64_t>(key.first));
    mix(static_cast<uint64_t>(key.second));
    mix(batch.tentative ? 1 : 0);
    for (const auto& [k, v] : batch.tuples) {
      mix(ppa::Fnv1a64(k));
      mix(static_cast<uint64_t>(v));
    }
  }
  return h;
}

StatusOr<DrillRun> RunDrill(const WorkloadSpec& spec,
                            const SourceInputs& inputs,
                            const DrillOptions& options) {
  DrillRun run;
  Clock::time_point t = Clock::now();
  PPA_ASSIGN_OR_RETURN(BuiltWorkload w, spec.build());
  run.build_s = SecondsSince(t);

  run.replicated = ppa::TaskSet(w.topo.num_tasks());
  if (options.plan != nullptr) {
    run.replicated = *options.plan;
  } else {
    t = Clock::now();
    ppa::StructureAwarePlanner planner;
    PPA_ASSIGN_OR_RETURN(
        ppa::ReplicationPlan plan,
        planner.Plan(ppa::PlanRequest(w.topo, spec.budget(w.topo))));
    run.plan_s = SecondsSince(t);
    run.replicated = plan.replicated;
    run.predicted_of = plan.output_fidelity;
  }

  t = Clock::now();
  ppa::JobConfig config = spec.config;
  config.observability = options.observability;
  std::unique_ptr<ppa::backend::ExecutionBackend> be =
      MakeBenchBackend(spec.backend);
  StreamingJob job(w.topo, config, ppa::JobRuntimeDeps(be.get()));
  for (const ppa::OperatorInfo& oi : w.topo.operators()) {
    if (oi.upstream.empty()) {
      ppa::SourceFactory source = [&inputs] {
        return std::make_unique<ReplaySource>(&inputs);
      };
      if (options.probes != nullptr) {
        source = [source, probe = &options.probes->source] {
          return std::make_unique<TimedSource>(source(), probe);
        };
      }
      PPA_RETURN_IF_ERROR(job.BindSource(oi.id, std::move(source)));
      continue;
    }
    ppa::OperatorFactory op = w.operators.at(oi.id);
    if (options.probes != nullptr) {
      const bool first = std::all_of(
          oi.upstream.begin(), oi.upstream.end(), [&w](OperatorId up) {
            return w.topo.op(up).upstream.empty();
          });
      OperatorProbe* probe =
          first ? &options.probes->first : &options.probes->rest;
      op = [op, probe, state = &options.probes->state] {
        return std::make_unique<TimedOperator>(op(), probe, state);
      };
    }
    PPA_RETURN_IF_ERROR(job.BindOperator(oi.id, std::move(op)));
  }
  PPA_ASSIGN_OR_RETURN(FailurePlan failure, w.place(&job));
  if (!run.replicated.empty()) {
    PPA_RETURN_IF_ERROR(job.SetActiveReplicaSet(run.replicated));
  }
  run.job_s = SecondsSince(t);

  t = Clock::now();
  PPA_RETURN_IF_ERROR(job.Start());
  run.start_s = SecondsSince(t);

  t = Clock::now();
  be->RunUntil(At(spec.fail_at_s));
  run.steady_s = SecondsSince(t);
  run.steady_tuples = inputs.TuplesThrough(job.frontier());
  run.failure_batch = job.frontier();

  t = Clock::now();
  if (options.inject_failure) {
    PPA_RETURN_IF_ERROR(Inject(&job, failure));
  }
  run.inject_s = SecondsSince(t);
  t = Clock::now();
  be->RunUntil(At(spec.fail_at_s + spec.failover_s));
  run.failover_s = SecondsSince(t);
  if (options.settle) {
    t = Clock::now();
    be->RunUntil(At(spec.end_s()));
    run.settle_s = SecondsSince(t);
    run.settled = true;
  }

  std::vector<double> latencies;
  latencies.reserve(job.sink_records().size());
  for (const ppa::SinkRecord& r : job.sink_records()) {
    SinkBatch& batch = run.output[{r.tuple.producer, r.tuple.batch}];
    batch.tentative = batch.tentative || r.tentative;
    batch.tuples.emplace_back(r.tuple.key, r.tuple.value);
    latencies.push_back(r.Latency().seconds());
    if (options.keep_records_from >= 0 &&
        r.tuple.batch >= options.keep_records_from) {
      run.kept_records.push_back(r);
    }
  }
  for (auto& [key, batch] : run.output) {
    std::sort(batch.tuples.begin(), batch.tuples.end());
  }
  run.sink_records = static_cast<int64_t>(job.sink_records().size());
  double latency_sum = 0.0;
  for (double l : latencies) {
    latency_sum += l;
  }
  run.sink_latency_mean_s =
      latencies.empty() ? 0.0
                        : latency_sum / static_cast<double>(latencies.size());
  run.sink_latency_p50_s = Percentile(&latencies, 0.50);
  run.sink_latency_p99_s = Percentile(&latencies, 0.99);
  run.degraded = DegradedBatches(job.trace());
  // Sources keep no window; every other operator level can hold degraded
  // input for one window length.
  run.guard = spec.window_batches * (w.topo.num_operators() - 1);

  for (const ppa::RecoveryReport& report : job.recovery_reports()) {
    run.recovery_latency_s =
        std::max(run.recovery_latency_s, report.TotalLatency().seconds());
  }
  run.all_recovered = job.AllRecovered();
  run.checkpoint_bytes = job.CheckpointBytesWritten();
  run.store_bytes = job.checkpoint_store().TotalBlobBytes();
  run.peak_buffered_tuples = job.PeakBufferedTuples();
  run.events = be->events_processed();
  run.trace_events = static_cast<int64_t>(job.trace().size());
  run.batch_ticks = CounterValue(job.metrics(), "job.batch_ticks");
  run.tuples_processed =
      CounterValue(job.metrics(), "engine.tuples_processed");
  run.replica_tuples_processed =
      CounterValue(job.metrics(), "engine.replica_tuples_processed");
  run.batches_processed =
      CounterValue(job.metrics(), "engine.batches_processed");
  return run;
}

CheckResult CheckAgainstGolden(const DrillRun& run, const DrillRun& golden) {
  CheckResult check;
  auto fail = [&check](const std::pair<ppa::TaskId, int64_t>& key,
                       const char* what) {
    ++check.failed;
    if (check.first_mismatch.empty()) {
      check.first_mismatch = "sink task " + std::to_string(key.first) +
                             " batch " + std::to_string(key.second) + ": " +
                             what;
    }
  };
  for (const auto& [key, batch] : run.output) {
    if (batch.tentative) {
      ++check.tentative;
      if (check.tentative_from < 0) {
        check.tentative_from = key.second;
      }
      check.tentative_from = std::min(check.tentative_from, key.second);
      check.tentative_to = std::max(check.tentative_to, key.second);
    }
  }
  std::map<ppa::TaskId, int64_t> delivered_until;
  for (const auto& [key, batch] : run.output) {
    delivered_until[key.first] =
        std::max(delivered_until[key.first], key.second);
  }
  for (const auto& [key, expected] : golden.output) {
    if (InGuardWindow(run.degraded, run.guard, key.second)) {
      continue;
    }
    if (!run.settled && key.second > delivered_until[key.first]) {
      continue;
    }
    ++check.attempted;
    if (key.second > run.failure_batch) {
      ++check.attempted_after_failure;
    }
    auto it = run.output.find(key);
    if (it == run.output.end()) {
      fail(key, "missing from the failure run");
    } else if (it->second.tentative) {
      fail(key, "tentative outside the degraded range");
    } else if (it->second.tuples != expected.tuples) {
      fail(key, "stable output differs from the golden twin");
    }
  }
  for (const auto& [key, batch] : run.output) {
    if (batch.tentative || golden.output.count(key) > 0 ||
        InGuardWindow(run.degraded, run.guard, key.second)) {
      continue;
    }
    ++check.attempted;
    fail(key, "stable batch absent from the golden twin");
  }
  return check;
}

int64_t CountDifferences(const DrillRun& run, const DrillRun& reference) {
  int64_t differences = 0;
  for (const auto& [key, batch] : run.output) {
    auto it = reference.output.find(key);
    if (it == reference.output.end() ||
        it->second.tentative != batch.tentative ||
        it->second.tuples != batch.tuples) {
      ++differences;
    }
  }
  return differences;
}

double TentativeAccuracy(const DrillRun& run, const DrillRun& golden,
                         const CheckResult& check) {
  if (check.tentative_from < 0) {
    return 1.0;
  }
  return ppa::PerBatchSetAccuracy(run.kept_records, golden.kept_records,
                                  check.tentative_from, check.tentative_to);
}

}  // namespace perfbench
