// Ablation A1: cost of MC-tree enumeration and of the three planners as
// the topology grows. The DP planner's exponential blow-up (Sec. IV-A) is
// the reason the structure-aware heuristic exists; this microbenchmark
// quantifies it. Uses google-benchmark.

#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "bench/driver.h"
#include "common/random.h"
#include "fidelity/mc_tree.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "planner/dp_planner.h"
#include "planner/greedy_planner.h"
#include "planner/structure_aware_planner.h"
#include "topology/random_topology.h"
#include "topology/topology.h"

namespace ppa {
namespace {

/// Deterministic topology for a given (operators, parallelism) size class.
Topology MakeTopology(int num_operators, int max_parallelism) {
  RandomTopologyOptions options;
  options.min_operators = num_operators;
  options.max_operators = num_operators;
  options.min_parallelism = 1;
  options.max_parallelism = max_parallelism;
  options.join_fraction = 0.5;
  Rng rng(1234);
  auto topo = GenerateRandomTopology(options, &rng);
  PPA_CHECK_OK(topo.status());
  return *std::move(topo);
}

void BM_EnumerateMcTrees(benchmark::State& state) {
  Topology topo = MakeTopology(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto trees = EnumerateMcTrees(topo);
    PPA_CHECK_OK(trees.status());
    benchmark::DoNotOptimize(trees->size());
  }
  state.counters["tasks"] = topo.num_tasks();
}
BENCHMARK(BM_EnumerateMcTrees)
    ->Args({4, 3})
    ->Args({6, 3})
    ->Args({8, 4})
    ->Args({10, 6});

void BM_DpPlanner(benchmark::State& state) {
  Topology topo = MakeTopology(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  const int budget = topo.num_tasks() / 2;
  DpPlanner planner;
  for (auto _ : state) {
    auto plan = planner.Plan(PlanRequest(topo, budget));
    PPA_CHECK_OK(plan.status());
    benchmark::DoNotOptimize(plan->output_fidelity);
  }
  state.counters["tasks"] = topo.num_tasks();
}
BENCHMARK(BM_DpPlanner)->Args({4, 3})->Args({6, 3})->Args({8, 4});

void BM_StructureAwarePlanner(benchmark::State& state) {
  Topology topo = MakeTopology(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  const int budget = topo.num_tasks() / 2;
  StructureAwarePlanner planner;
  for (auto _ : state) {
    auto plan = planner.Plan(PlanRequest(topo, budget));
    PPA_CHECK_OK(plan.status());
    benchmark::DoNotOptimize(plan->output_fidelity);
  }
  state.counters["tasks"] = topo.num_tasks();
}
BENCHMARK(BM_StructureAwarePlanner)
    ->Args({4, 3})
    ->Args({6, 3})
    ->Args({8, 4})
    ->Args({10, 6})
    ->Args({10, 16});

/// scale_cluster's (and perfbench wide-cluster's) shape: src -one-to-one->
/// mid -merge-> sink at the given width, 2 * width + 1 tasks. Thousands of
/// tasks in three operators — a shape the random size classes never reach.
Topology MakeWideTopology(int width) {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", width);
  OperatorId mid =
      b.AddOperator("mid", width, InputCorrelation::kIndependent, 0.5);
  OperatorId sink =
      b.AddOperator("sink", 1, InputCorrelation::kIndependent, 0.5);
  b.Connect(src, mid, PartitionScheme::kOneToOne);
  b.Connect(mid, sink, PartitionScheme::kMerge);
  b.SetSourceRate(src, 8.0 * width);
  auto topo = b.Build();
  PPA_CHECK_OK(topo.status());
  return *std::move(topo);
}

void BM_StructureAwarePlannerWide(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  Topology topo = MakeWideTopology(width);
  const int budget = width / 8;
  StructureAwarePlanner planner;
  for (auto _ : state) {
    auto plan = planner.Plan(PlanRequest(topo, budget));
    PPA_CHECK_OK(plan.status());
    benchmark::DoNotOptimize(plan->output_fidelity);
  }
  state.counters["tasks"] = topo.num_tasks();
}
BENCHMARK(BM_StructureAwarePlannerWide)
    ->Arg(128)
    ->Arg(768)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyPlanner(benchmark::State& state) {
  Topology topo = MakeTopology(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  const int budget = topo.num_tasks() / 2;
  GreedyPlanner planner;
  for (auto _ : state) {
    auto plan = planner.Plan(PlanRequest(topo, budget));
    PPA_CHECK_OK(plan.status());
    benchmark::DoNotOptimize(plan->output_fidelity);
  }
  state.counters["tasks"] = topo.num_tasks();
}
BENCHMARK(BM_GreedyPlanner)
    ->Args({4, 3})
    ->Args({6, 3})
    ->Args({8, 4})
    ->Args({10, 6})
    ->Args({10, 16});

/// MC-tree counts and task counts per size class — the structural numbers
/// behind the timing curves (timings themselves come from google-benchmark,
/// e.g. via --benchmark_out).
void FillScalingMetrics(obs::MetricsRegistry* registry) {
  obs::Histogram* tasks = registry->histogram("planner.topology_tasks");
  obs::Histogram* trees = registry->histogram("planner.mc_trees");
  obs::Counter* size_classes = registry->counter("planner.size_classes");
  const int sizes[][2] = {{4, 3}, {6, 3}, {8, 4}, {10, 6}, {10, 16}};
  for (const auto& size : sizes) {
    Topology topo = MakeTopology(size[0], size[1]);
    obs::Add(size_classes);
    obs::Observe(tasks, static_cast<double>(topo.num_tasks()));
    auto enumerated = EnumerateMcTrees(topo);
    if (enumerated.ok()) {
      obs::Observe(trees, static_cast<double>(enumerated->size()));
    }
  }
}

}  // namespace
}  // namespace ppa

int main(int argc, char** argv) {
  // Timing microbenchmark: google-benchmark owns the execution (always
  // serial — wall-clock timings must not share cores), but the shared
  // driver still strips the common flags it would otherwise reject
  // (--jobs is accepted and ignored) and owns the sinks.
  // Planner-only bench: accepts --chrome_trace_out for tooling uniformity
  // and writes an empty (but valid) trace.
  ppa::bench::Driver driver = ppa::bench::Driver::FromArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (driver.metrics().enabled()) {
    ppa::obs::MetricsRegistry registry;
    ppa::FillScalingMetrics(&registry);
    driver.metrics().Add("size_classes",
                         ppa::obs::MetricsToJson(registry));
  }
  return driver.Finish("abl_planner_scaling");
}
