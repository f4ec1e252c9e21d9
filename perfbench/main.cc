// perfbench: the repository benchmark. Runs one named workload as a
// failure drill, repeated for a fixed wall-clock budget, checks every
// stable sink batch against a failure-free golden twin, and prints one
// JSON result line (end-to-end metrics, or per-layer metrics with
// --trace 1). See README.md for the metrics and workloads.
//
// Usage: perfbench --workload <name> [--seed N] [--seconds S]
//                  [--trace 0|1] [--size full|tiny]

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "drills.h"
#include "inputs.h"
#include "layers.h"
#include "probes.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        return false;
      }
      args->size = value == "full" ? Size::kFull : Size::kTiny;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Metrics in print order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json_ += (json_.empty() ? "\"" : ", \"") + name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string ToJson() const { return "{" + json_ + "}"; }

 private:
  std::string json_;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
}

/// The cores this process may run on, taken in turn. A simulated job runs
/// on one thread. Pinning each drill to the next core spares the drill the
/// scheduler's migrations, and a run samples every core alike instead of
/// the one it started on, whose neighbours on a shared host may be busier.
class CoreRotation {
 public:
  void Init() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cores_.push_back(cpu);
      }
    }
  }

  /// Pins the calling thread to the next core, if any.
  void PinNext() {
    if (cores_.empty()) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cores_;
  size_t next_ = 0;
};

/// Shared state of one invocation: inputs, the golden twin, and the
/// outcome of every correctness check.
struct Bench {
  Args args;
  WorkloadSpec spec;
  SourceInputs inputs;
  DrillRun golden;
  int64_t keep_records_from = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  /// Rotates simulated drills over the cores; left empty for a threaded
  /// workload, whose threads the scheduler places.
  CoreRotation cores;

  /// Compares a failure run with the golden twin and books the result.
  CheckResult Check(const DrillRun& run) {
    CheckResult check = CheckAgainstGolden(run, golden);
    attempted += check.attempted;
    failed += check.failed;
    if (check.failed > 0) {
      std::fprintf(stderr, "perfbench: %lld of %lld sink batches wrong; "
                   "first: %s\n",
                   static_cast<long long>(check.failed),
                   static_cast<long long>(check.attempted),
                   check.first_mismatch.c_str());
    }
    if (!run.all_recovered) {
      std::fprintf(stderr, "perfbench: the drill ended with tasks still "
                   "failed or recovering\n");
      correct = false;
    }
    return check;
  }

  DrillRun Drill(const DrillOptions& base) {
    DrillOptions options = base;
    cores.PinNext();
    // Only a settled drill's tentative output is scored for accuracy.
    options.keep_records_from = base.settle ? keep_records_from : -1;
    ppa::StatusOr<DrillRun> run = RunDrill(spec, inputs, options);
    if (!run.ok()) {
      std::fprintf(stderr, "perfbench: drill failed: %s\n",
                   run.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(run).value();
  }
};

/// Whether another step of `next_s` seconds still ends within `budget_s`
/// of `start`, so a run measures for at most its budget.
bool FitsBudget(Clock::time_point start, double next_s, double budget_s) {
  return SecondsSince(start) + next_s <= budget_s;
}

void RunEndToEnd(Bench* bench) {
  // The first drill also drives the settle tail and is checked in full;
  // the rest stop after the failover interval and must match it batch for
  // batch. The golden twin has already warmed the heap up.
  DrillRun first;
  CheckResult first_check;
  double peak_rss_mb = 0.0;
  std::vector<double> setup;
  std::vector<double> throughput;
  std::vector<double> failover;
  std::vector<double> cycle;
  double setup_total_s = 0.0;
  size_t drills = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point drill_start = Clock::now();
    DrillOptions options;
    options.settle = drills == 0;
    // A drill plans only while set-up has taken at most a third of the
    // run so far; the others replicate the first drill's plan. Where Plan
    // is most of a drill (wide-cluster), a run then drives nearly twice as
    // many drills. setup_s is the median over the drills that plan.
    const bool plans = setup_total_s <= SecondsSince(start) / 3;
    if (!plans) {
      options.plan = &first.replicated;
    }
    DrillRun run = bench->Drill(options);
    ++drills;
    const CheckResult check = bench->Check(run);
    if (plans) {
      setup.push_back(run.setup_s());
      setup_total_s += run.setup_s();
    }
    throughput.push_back(static_cast<double>(run.steady_tuples) /
                         run.steady_s);
    failover.push_back(run.inject_s + run.failover_s);
    std::fprintf(stderr, "drill %zu: setup %.6f s%s, steady %.0f tuples/s, "
                 "failover %.4f s\n", drills, run.setup_s(),
                 plans ? "" : " (no plan)", throughput.back(),
                 failover.back());
    if (run.settled) {
      // Peak memory through the golden twin and one full drill; later
      // drills repeat it, and how many fit in a run depends on speed.
      peak_rss_mb = PeakRssMb();
      first = std::move(run);
      first_check = check;
      continue;
    }
    if (plans && (run.replicated.size() != first.replicated.size() ||
                  !run.replicated.IsSubsetOf(first.replicated))) {
      std::fprintf(stderr, "perfbench: the planner replicated another set "
                   "of tasks than in the first drill\n");
      bench->correct = false;
    }
    const int64_t differences = CountDifferences(run, first);
    if (differences > 0) {
      std::fprintf(stderr, "perfbench: %lld sink batches differ between "
                   "repeated drills\n", static_cast<long long>(differences));
      bench->correct = false;
    }
    cycle.push_back(SecondsSince(drill_start));
  } while (FitsBudget(start, Median(cycle), bench->args.seconds));
  if (first_check.attempted_after_failure == 0) {
    std::fprintf(stderr, "perfbench: no sink batch after the failure could "
                 "be compared; the drill ends too early\n");
    bench->correct = false;
  }

  std::printf("timed drills: %zu; checked batches after the failure: %lld; "
              "%lld tentative batches (%lld..%lld); sink latency over %lld "
              "records: mean %.4f s, p50 %.4f s, p99 %.4f s\n",
              drills,
              static_cast<long long>(first_check.attempted_after_failure),
              static_cast<long long>(first_check.tentative),
              static_cast<long long>(first_check.tentative_from),
              static_cast<long long>(first_check.tentative_to),
              static_cast<long long>(first.sink_records),
              first.sink_latency_mean_s, first.sink_latency_p50_s,
              first.sink_latency_p99_s);
  MetricSet m;
  m.Add("setup_s", Median(setup), "s");
  m.Add("steady_tuples_per_s", Median(throughput), "tuples/s");
  m.Add("failover_s", Median(failover), "s");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  m.Add("recovery_latency_s", first.recovery_latency_s, "s");
  m.Add("sink_latency_mean_s", first.sink_latency_mean_s, "s");
  m.Add("tentative_accuracy",
        TentativeAccuracy(first, bench->golden, first_check), "ratio");
  m.Add("checkpoint_mb", static_cast<double>(first.checkpoint_bytes) / 1e6,
        "MB");
  PrintResult(bench->correct && bench->failed == 0, bench->attempted,
              bench->failed, m);
}

/// Medians of per-round wall times, last-round values of counts.
class Rounds {
 public:
  void Time(const std::string& name, double seconds) {
    samples_[name].push_back(seconds);
  }
  double Median(const std::string& name) const {
    return perfbench::Median(samples_.at(name));
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

void RunTraced(Bench* bench) {
  const WorkloadSpec& spec = bench->spec;
  const int64_t steady_batches = static_cast<int64_t>(
      std::floor(spec.fail_at_s / spec.config.batch_interval.seconds()));
  Rounds rounds;
  DrillRun traced;
  Probes probes;
  LayerReplay replay;
  BackendHarness harness;
  int n = 0;
  std::vector<double> round_s;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point round_start = Clock::now();
    // Timing decorators and per-call spans, with planning.
    probes = Probes{};
    DrillOptions options;
    options.probes = &probes;
    options.settle = false;
    traced = bench->Drill(options);
    bench->Check(traced);
    // The same drill untraced, with observability on and off.
    DrillOptions plain;
    plain.plan = &traced.replicated;
    plain.settle = false;
    const DrillRun on = bench->Drill(plain);
    bench->Check(on);
    plain.observability = false;
    const DrillRun off = bench->Drill(plain);
    if (off.output.size() != on.output.size() ||
        CountDifferences(off, on) > 0) {
      std::fprintf(stderr, "perfbench: sink output changes with "
                   "observability off\n");
      bench->correct = false;
    }
    ppa::StatusOr<LayerReplay> r =
        ReplayLayers(spec, bench->inputs, steady_batches);
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: layer replay failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    replay = std::move(r).value();
    harness = RunBackendHarness(spec.backend, 200000);

    rounds.Time("workloads.source_s", probes.source.next_batch_s);
    rounds.Time("planner.plan_s", traced.plan_s);
    rounds.Time("runtime.build_s", traced.build_s + traced.job_s);
    rounds.Time("runtime.start_s", traced.start_s);
    rounds.Time("runtime.drive_steady_s", traced.steady_s);
    rounds.Time("runtime.drive_failover_s", traced.failover_s);
    rounds.Time("runtime.inject_s", traced.inject_s);
    rounds.Time("runtime.drive_self_s",
                traced.drive_s() - probes.InsideSeconds());
    rounds.Time("backend.events_per_s",
                static_cast<double>(on.events) / on.drive_s());
    rounds.Time("backend.schedule_ns", harness.schedule_ns);
    rounds.Time("backend.dispatch_ns", harness.dispatch_ns);
    rounds.Time("engine.route_s", replay.route_s);
    rounds.Time("engine.run_batch_s", replay.run_batch_s);
    rounds.Time("engine.run_batch_self_s",
                replay.run_batch_s - replay.operator_s);
    rounds.Time("engine.trim_s", replay.trim_s);
    rounds.Time("engine.task_snapshot_s", replay.task_snapshot_s);
    rounds.Time("engine.task_restore_s", replay.task_restore_s);
    rounds.Time("engine.op.first.process_s", probes.first.process_s);
    rounds.Time("engine.op.rest.process_s", probes.rest.process_s);
    rounds.Time("ft.snapshot_s", probes.state.snapshot_s);
    rounds.Time("ft.restore_s", probes.state.restore_s);
    rounds.Time("obs.overhead_s", on.drive_s() - off.drive_s());
    rounds.Time("bench.trace_overhead_s", traced.drive_s() - on.drive_s());
    ++n;
    round_s.push_back(SecondsSince(round_start));
  } while (FitsBudget(start, Median(round_s), bench->args.seconds));

  const double ops_in = static_cast<double>(replay.inputs_offered);
  std::printf(
      "rounds: %d\nshape: tasks=%d source_tuples_per_batch_per_task=%.1f "
      "operator_inputs_per_batch_per_task=%.1f full_edge_share=%.4f "
      "peak_state_tuples=%lld\n",
      n, replay.num_tasks,
      static_cast<double>(replay.source_tuples) /
          static_cast<double>(std::max<int64_t>(1, replay.source_task_batches)),
      ops_in / static_cast<double>(std::max<int64_t>(1, replay.operator_batches)),
      static_cast<double>(replay.tuples_routed_full) /
          static_cast<double>(std::max<int64_t>(1, replay.tuples_routed)),
      static_cast<long long>(replay.peak_state_tuples));

  auto ratio = [](int64_t num, int64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  MetricSet m;
  auto time = [&](const std::string& name, const char* unit = "s") {
    m.Add(name, rounds.Median(name), unit);
  };
  auto count = [&](const std::string& name, int64_t v,
                   const char* unit = "count") {
    m.Add(name, static_cast<double>(v), unit);
  };
  time("workloads.source_s");
  count("workloads.source_tuples", probes.source.tuples, "tuples");
  time("planner.plan_s");
  count("planner.replicated_tasks", traced.replicated.size(), "tasks");
  m.Add("planner.predicted_of", traced.predicted_of, "ratio");
  time("runtime.build_s");
  time("runtime.start_s");
  time("runtime.drive_steady_s");
  time("runtime.drive_failover_s");
  time("runtime.inject_s");
  time("runtime.drive_self_s");
  count("runtime.batch_ticks", traced.batch_ticks);
  count("runtime.buffered_tuples_peak", traced.peak_buffered_tuples, "tuples");
  count("runtime.sink_records", traced.sink_records, "tuples");
  count("backend.events", traced.events);
  time("backend.events_per_s", "1/s");
  time("backend.schedule_ns", "ns");
  time("backend.dispatch_ns", "ns");
  time("engine.route_s");
  count("engine.route_calls", replay.route_calls);
  count("engine.tuples_routed", replay.tuples_routed, "tuples");
  m.Add("engine.route_hit_ratio",
        ratio(replay.tuples_routed, replay.tuples_scanned), "ratio");
  time("engine.run_batch_s");
  time("engine.run_batch_self_s");
  count("engine.tuples_processed", traced.tuples_processed, "tuples");
  count("engine.replica_tuples_processed", traced.replica_tuples_processed,
        "tuples");
  count("engine.batches_processed", traced.batches_processed);
  m.Add("engine.dedupe_ratio",
        ratio(replay.inputs_fresh, replay.inputs_offered), "ratio");
  time("engine.trim_s");
  time("engine.task_snapshot_s");
  count("engine.task_snapshot_bytes", replay.task_snapshot_bytes, "B");
  time("engine.task_restore_s");
  time("engine.op.first.process_s");
  count("engine.op.first.tuples_in", probes.first.tuples_in, "tuples");
  count("engine.op.first.tuples_out", probes.first.tuples_out, "tuples");
  time("engine.op.rest.process_s");
  count("engine.op.rest.tuples_in", probes.rest.tuples_in, "tuples");
  count("engine.op.rest.tuples_out", probes.rest.tuples_out, "tuples");
  time("ft.snapshot_s");
  count("ft.snapshot_bytes", probes.state.snapshot_bytes, "B");
  time("ft.restore_s");
  count("ft.restore_bytes", probes.state.restore_bytes, "B");
  count("ft.checkpoints", probes.state.checkpoints);
  count("ft.store_bytes", traced.store_bytes, "B");
  time("obs.overhead_s");
  count("obs.trace_events", traced.trace_events);
  time("bench.trace_overhead_s");
  PrintResult(bench->correct && bench->failed == 0, bench->attempted,
              bench->failed, m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // One malloc arena for all threads: the threaded backend's workers
  // would otherwise each grow their own, and peak RSS would depend on
  // which worker happened to allocate.
  mallopt(M_ARENA_MAX, 1);
  Bench bench;
  if (!ParseArgs(argc, argv, &bench.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--size full|tiny]\n");
    return 2;
  }
  std::optional<WorkloadSpec> spec =
      FindWorkload(bench.args.workload, bench.args.size);
  if (!spec.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 bench.args.workload.c_str());
    return 2;
  }
  bench.spec = *spec;
  if (bench.spec.backend == ppa::backend::BackendKind::kSim) {
    bench.cores.Init();
  }
  bench.inputs = bench.spec.make_inputs(bench.args.seed,
                                        bench.spec.input_batches());
  bench.keep_records_from =
      static_cast<int64_t>(bench.spec.fail_at_s /
                           bench.spec.config.batch_interval.seconds()) -
      1;

  // The golden twin: the same workload and inputs, failure-free, on the
  // simulator (a threaded drill must match the sim's output).
  WorkloadSpec golden_spec = bench.spec;
  golden_spec.backend = ppa::backend::BackendKind::kSim;
  const ppa::TaskSet no_replicas;
  DrillOptions golden_options;
  golden_options.inject_failure = false;
  golden_options.plan = &no_replicas;
  golden_options.keep_records_from = bench.keep_records_from;
  ppa::StatusOr<DrillRun> golden =
      RunDrill(golden_spec, bench.inputs, golden_options);
  if (!golden.ok()) {
    std::fprintf(stderr, "perfbench: golden twin failed: %s\n",
                 golden.status().ToString().c_str());
    return 1;
  }
  bench.golden = std::move(golden).value();
  const uint64_t digest = DigestOutput(bench.golden.output);
  std::printf("workload: %s seed: %llu golden digest: %016llx "
              "(%zu sink batches)\n",
              bench.spec.name.c_str(),
              static_cast<unsigned long long>(bench.args.seed),
              static_cast<unsigned long long>(digest),
              bench.golden.output.size());
  if (bench.args.seed == kDefaultSeed && bench.args.size == Size::kFull &&
      digest != bench.spec.golden_digest) {
    std::fprintf(stderr, "perfbench: golden digest %016llx differs from the "
                 "recorded %016llx\n",
                 static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(bench.spec.golden_digest));
    bench.correct = false;
  }

  if (bench.args.trace) {
    RunTraced(&bench);
  } else {
    RunEndToEnd(&bench);
  }
  return bench.correct && bench.failed == 0 ? 0 : 1;
}
