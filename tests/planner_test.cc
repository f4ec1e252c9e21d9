#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "fidelity/metrics.h"
#include "planner/decompose.h"
#include "planner/dp_planner.h"
#include "planner/exhaustive_planner.h"
#include "planner/extract.h"
#include "planner/greedy_planner.h"
#include "planner/planner.h"
#include "planner/structure_aware_planner.h"
#include "planner/units.h"
#include "tests/test_topologies.h"
#include "topology/random_topology.h"

namespace ppa {
namespace {

using ::ppa::testing::Fig2Topology;
using ::ppa::testing::MakeChain;
using ::ppa::testing::MakeFig2;

/// Exhaustive optimum over all task subsets of size <= budget.
double BruteForceBestOf(const Topology& topo, int budget) {
  const int n = topo.num_tasks();
  PPA_CHECK(n <= 20);
  double best = 0.0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    if (__builtin_popcountll(mask) > budget) {
      continue;
    }
    TaskSet plan(n);
    for (int i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) {
        plan.Add(static_cast<TaskId>(i));
      }
    }
    best = std::max(best, PlanOutputFidelity(topo, plan));
  }
  return best;
}

TEST(GreedyPlannerTest, RespectsBudget) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  GreedyPlanner planner;
  for (int budget = 0; budget <= f.topo.num_tasks() + 2; ++budget) {
    auto plan = planner.Plan({f.topo, budget});
    ASSERT_TRUE(plan.ok());
    EXPECT_LE(plan->resource_usage(),
              std::min(budget, f.topo.num_tasks()));
  }
}

TEST(GreedyPlannerTest, RejectsNegativeBudget) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  GreedyPlanner planner;
  EXPECT_EQ(planner.Plan({f.topo, -1}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GreedyPlannerTest, PicksMostDamagingTasksFirst) {
  // In Fig. 2 the sink t31 is the most damaging single failure (OF drops to
  // 0), so it must be in every nonempty greedy plan.
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  GreedyPlanner planner;
  auto plan = planner.Plan({f.topo, 1});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->replicated.Contains(f.t31));
}

TEST(GreedyPlannerTest, FullBudgetReachesFullFidelity) {
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  GreedyPlanner planner;
  auto plan = planner.Plan({f.topo, f.topo.num_tasks()});
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->output_fidelity, 1.0);
}

TEST(DpPlannerTest, MatchesBruteForceOnFig2) {
  for (InputCorrelation corr : {InputCorrelation::kIndependent,
                                InputCorrelation::kCorrelated}) {
    Fig2Topology f = MakeFig2(corr);
    DpPlanner planner;
    for (int budget = 0; budget <= f.topo.num_tasks(); ++budget) {
      auto plan = planner.Plan({f.topo, budget});
      ASSERT_TRUE(plan.ok());
      EXPECT_NEAR(plan->output_fidelity, BruteForceBestOf(f.topo, budget),
                  1e-12)
          << "budget " << budget << " correlation "
          << InputCorrelationToString(corr);
      EXPECT_LE(plan->resource_usage(), budget);
    }
  }
}

TEST(DpPlannerTest, MatchesBruteForceOnChains) {
  const Topology topologies[] = {
      MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                PartitionScheme::kOneToOne),
      MakeChain(4, 2, 1, PartitionScheme::kMerge, PartitionScheme::kMerge),
      MakeChain(2, 4, 2, PartitionScheme::kSplit, PartitionScheme::kMerge),
      MakeChain(2, 2, 1, PartitionScheme::kFull, PartitionScheme::kFull),
  };
  DpPlanner planner;
  for (const Topology& topo : topologies) {
    for (int budget : {0, 2, 3, 4, topo.num_tasks()}) {
      auto plan = planner.Plan({topo, budget});
      ASSERT_TRUE(plan.ok());
      EXPECT_NEAR(plan->output_fidelity, BruteForceBestOf(topo, budget),
                  1e-12);
    }
  }
}

TEST(DpPlannerTest, SkewedRatesChangeTheOptimalTree) {
  // With task weights 3:2 on O2, the optimal single-MC-tree plan must pick
  // t21 (rate 3) over t22 (rate 2).
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  DpPlanner planner;
  auto plan = planner.Plan({f.topo, 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->replicated.Contains(f.t21));
  EXPECT_TRUE(plan->replicated.Contains(f.t31));
  EXPECT_NEAR(plan->output_fidelity, 3.0 / 8.0, 1e-12);
}

TEST(StructureAwarePlannerTest, RespectsBudgetAndFillsIt) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  StructureAwarePlanner planner;
  for (int budget = 0; budget <= f.topo.num_tasks(); ++budget) {
    auto plan = planner.Plan({f.topo, budget});
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->resource_usage(), budget) << "fill_budget should use "
                                                 "the full budget";
  }
}

TEST(StructureAwarePlannerTest, FindsACompleteTreeWithMinimalBudget) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  StructureAwarePlanner planner;
  auto plan = planner.Plan({f.topo, 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->output_fidelity, 0.0);
}

TEST(StructureAwarePlannerTest, NearOptimalOnSmallTopologies) {
  // SA is a heuristic; on these small cases it should be close to DP.
  const Topology topologies[] = {
      MakeChain(4, 2, 1, PartitionScheme::kMerge, PartitionScheme::kMerge),
      MakeChain(2, 4, 2, PartitionScheme::kSplit, PartitionScheme::kMerge),
      MakeChain(2, 2, 1, PartitionScheme::kFull, PartitionScheme::kFull),
  };
  DpPlanner dp;
  StructureAwarePlanner sa;
  for (const Topology& topo : topologies) {
    for (int budget : {3, 4, topo.num_tasks() / 2}) {
      auto dp_plan = dp.Plan({topo, budget});
      auto sa_plan = sa.Plan({topo, budget});
      ASSERT_TRUE(dp_plan.ok());
      ASSERT_TRUE(sa_plan.ok());
      EXPECT_GE(sa_plan->output_fidelity,
                0.6 * dp_plan->output_fidelity - 1e-12);
    }
  }
}

TEST(ExhaustivePlannerTest, MatchesBruteForceHelperAndRefusesBigInputs) {
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  ExhaustivePlanner planner;
  for (int budget = 0; budget <= f.topo.num_tasks(); ++budget) {
    auto plan = planner.Plan({f.topo, budget});
    ASSERT_TRUE(plan.ok());
    EXPECT_NEAR(plan->output_fidelity, BruteForceBestOf(f.topo, budget),
                1e-12);
  }
  ExhaustivePlanner tiny(/*max_tasks=*/4);
  EXPECT_EQ(tiny.Plan({f.topo, 2}).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(RandomPlannerTest, DeterministicAndBudgetRespecting) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  RandomPlanner a(7), b(7), c(8);
  auto pa = a.Plan({f.topo, 3});
  auto pb = b.Plan({f.topo, 3});
  auto pc = c.Plan({f.topo, 3});
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pa->replicated.ToVector(), pb->replicated.ToVector());
  EXPECT_EQ(pa->resource_usage(), 3);
  // Different seeds usually pick different sets (5 choose 3 = 10 options).
  EXPECT_EQ(pc->resource_usage(), 3);
}

// DP's optimality holds against the independent exhaustive oracle on
// random topologies (Theorem 1).
class DpOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DpOptimalityTest, DpMatchesExhaustiveOracle) {
  Rng rng(GetParam() * 6151 + 3);
  RandomTopologyOptions opts;
  opts.min_operators = 3;
  opts.max_operators = 5;
  opts.min_parallelism = 1;
  opts.max_parallelism = 3;
  opts.join_fraction = 0.5;
  opts.kind = (GetParam() % 2 == 0) ? RandomTopologyOptions::Kind::kStructured
                                    : RandomTopologyOptions::Kind::kFull;
  opts.skew = RandomTopologyOptions::WorkloadSkew::kZipf;
  opts.zipf_s = 0.5;
  auto topo = GenerateRandomTopology(opts, &rng);
  ASSERT_TRUE(topo.ok());
  if (topo->num_tasks() > 14) {
    GTEST_SKIP() << "exhaustive oracle too slow";
  }
  DpPlanner dp;
  ExhaustivePlanner oracle;
  for (int budget : {2, topo->num_tasks() / 2, topo->num_tasks()}) {
    auto dp_plan = dp.Plan({*topo, budget});
    auto oracle_plan = oracle.Plan({*topo, budget});
    ASSERT_TRUE(dp_plan.ok());
    ASSERT_TRUE(oracle_plan.ok());
    EXPECT_NEAR(dp_plan->output_fidelity, oracle_plan->output_fidelity,
                1e-12)
        << "budget " << budget;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, DpOptimalityTest,
                         ::testing::Range(uint64_t{0}, uint64_t{16}));

TEST(PlannerFactoryTest, CreatesAllKinds) {
  for (PlannerKind kind : {PlannerKind::kDynamicProgramming,
                           PlannerKind::kGreedy,
                           PlannerKind::kStructureAware}) {
    auto planner = CreatePlanner(kind);
    ASSERT_NE(planner, nullptr);
    EXPECT_FALSE(planner->name().empty());
  }
}

// Property sweep over random topologies: DP dominates SA dominates (on
// average) Greedy; all plans respect budgets and report consistent OF.
class PlannerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerPropertyTest, DpDominatesAndPlansAreConsistent) {
  Rng rng(GetParam() * 7919 + 1);
  RandomTopologyOptions opts;
  opts.min_operators = 4;
  opts.max_operators = 6;
  opts.min_parallelism = 1;
  opts.max_parallelism = 3;
  opts.join_fraction = 0.5;
  opts.kind = (GetParam() % 2 == 0) ? RandomTopologyOptions::Kind::kStructured
                                    : RandomTopologyOptions::Kind::kFull;
  auto topo = GenerateRandomTopology(opts, &rng);
  ASSERT_TRUE(topo.ok());
  const int budget = std::max(2, topo->num_tasks() / 2);

  DpPlanner dp;
  GreedyPlanner greedy;
  StructureAwarePlanner sa;
  auto dp_plan = dp.Plan({*topo, budget});
  auto greedy_plan = greedy.Plan({*topo, budget});
  auto sa_plan = sa.Plan({*topo, budget});
  ASSERT_TRUE(dp_plan.ok()) << dp_plan.status();
  ASSERT_TRUE(greedy_plan.ok());
  ASSERT_TRUE(sa_plan.ok()) << sa_plan.status();

  for (const auto* plan : {&*dp_plan, &*greedy_plan, &*sa_plan}) {
    EXPECT_LE(plan->resource_usage(), budget);
    EXPECT_NEAR(plan->output_fidelity,
                PlanOutputFidelity(*topo, plan->replicated), 1e-12);
  }
  EXPECT_GE(dp_plan->output_fidelity, sa_plan->output_fidelity - 1e-9);
  EXPECT_GE(dp_plan->output_fidelity, greedy_plan->output_fidelity - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, PlannerPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{24}));

TEST(PlannerComparisonTest, SaBeatsGreedyOnAverage) {
  // The paper's headline planning result (Fig. 14): with limited budgets,
  // the structure-aware planner achieves much higher OF than the
  // structure-agnostic greedy.
  Rng rng(2024);
  RandomTopologyOptions opts;
  opts.min_operators = 5;
  opts.max_operators = 8;
  opts.min_parallelism = 1;
  opts.max_parallelism = 4;
  GreedyPlanner greedy;
  StructureAwarePlanner sa;
  double sa_total = 0.0, greedy_total = 0.0;
  const int kTrials = 30;
  for (int i = 0; i < kTrials; ++i) {
    auto topo = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(topo.ok());
    const int budget = std::max(2, topo->num_tasks() / 5);
    auto sa_plan = sa.Plan({*topo, budget});
    auto greedy_plan = greedy.Plan({*topo, budget});
    ASSERT_TRUE(sa_plan.ok());
    ASSERT_TRUE(greedy_plan.ok());
    sa_total += sa_plan->output_fidelity;
    greedy_total += greedy_plan->output_fidelity;
  }
  EXPECT_GT(sa_total, greedy_total);
}

// Plan pinning: StructureAwarePlanner's exact plans (replicated tasks and
// the bits of the reported metric) for fixed inputs. Planner speed-ups must
// leave every plan byte-identical; any change here is a behaviour change.

/// The wide src -one-to-one-> mid -merge-> sink shape of scale_cluster.
Topology MakeWideMerge(int width) {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", width);
  OperatorId mid = b.AddOperator("mid", width, InputCorrelation::kIndependent,
                                 0.5);
  OperatorId sink = b.AddOperator("sink", 1, InputCorrelation::kIndependent,
                                  0.5);
  b.Connect(src, mid, PartitionScheme::kOneToOne);
  b.Connect(mid, sink, PartitionScheme::kMerge);
  b.SetSourceRate(src, 8.0 * width);
  auto built = b.Build();
  PPA_CHECK(built.ok()) << built.status();
  return *std::move(built);
}

StructureAwarePlanner PlannerFor(LossModel metric) {
  StructureAwareOptions opts;
  opts.metric = metric;
  return StructureAwarePlanner(opts);
}

std::string Describe(const ReplicationPlan& plan) {
  std::string out;
  for (TaskId t : plan.replicated.ToVector()) {
    out += std::to_string(t) + " ";
  }
  char bits[32];
  std::snprintf(bits, sizeof(bits), "of=%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<uint64_t>(plan.output_fidelity)));
  return out + bits;
}

TEST(PlanPinningTest, WideMergeShape) {
  // The sink merges a single stream, so OF and IC plan alike here.
  const char* kWidth64 = "0 61 62 63 125 126 127 128 of=3fa8000000000000";
  const char* kWidth200 =
      "188 189 190 191 192 193 194 195 196 197 198 199 388 389 390 391 "
      "392 393 394 395 396 397 398 399 400 of=3faeb851eb851ec0";
  struct Case {
    int width;
    LossModel metric;
    const char* expected;
  };
  const Case cases[] = {
      {64, LossModel::kOutputFidelity, kWidth64},
      {64, LossModel::kInternalCompleteness, kWidth64},
      {200, LossModel::kOutputFidelity, kWidth200},
      {200, LossModel::kInternalCompleteness, kWidth200},
  };
  for (const Case& c : cases) {
    const Topology topo = MakeWideMerge(c.width);
    auto plan = PlannerFor(c.metric).Plan({topo, c.width / 8});
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(Describe(*plan), c.expected) << "width " << c.width;
  }
}

TEST(PlanPinningTest, RandomTopologyDigest) {
  uint64_t digest[2] = {0, 0};
  const LossModel metrics[2] = {LossModel::kOutputFidelity,
                                LossModel::kInternalCompleteness};
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed * 104729 + 17);
    RandomTopologyOptions opts;
    opts.min_operators = 5;
    opts.max_operators = 10;
    opts.max_parallelism = 6;
    opts.join_fraction = 0.5;
    opts.kind = seed % 3 == 2 ? RandomTopologyOptions::Kind::kFull
                              : RandomTopologyOptions::Kind::kStructured;
    opts.skew = seed % 2 == 1 ? RandomTopologyOptions::WorkloadSkew::kZipf
                              : RandomTopologyOptions::WorkloadSkew::kUniform;
    auto topo = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(topo.ok()) << topo.status();
    const int budget =
        std::max(1, topo->num_tasks() * static_cast<int>(1 + seed % 3) / 6);
    for (int m = 0; m < 2; ++m) {
      auto plan = PlannerFor(metrics[m]).Plan({*topo, budget});
      ASSERT_TRUE(plan.ok()) << plan.status();
      for (TaskId t : plan->replicated.ToVector()) {
        digest[m] = Mix64(digest[m] ^ static_cast<uint64_t>(t));
      }
      digest[m] = Mix64(digest[m] ^
                        std::bit_cast<uint64_t>(plan->output_fidelity));
    }
  }
  EXPECT_EQ(digest[0], 0x4434923db52104bbull);
  EXPECT_EQ(digest[1], 0xc8e5d4847f59a19cull);
}

TEST(DecomposeTest, UniformStructuredTopologyStaysWhole) {
  Topology t = MakeChain(4, 2, 1, PartitionScheme::kMerge,
                         PartitionScheme::kMerge);
  auto subs = DecomposeTopology(t);
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ(subs->size(), 1u);
  EXPECT_FALSE((*subs)[0].is_full);
}

TEST(DecomposeTest, UniformFullTopologyStaysWhole) {
  Topology t = MakeChain(2, 2, 1, PartitionScheme::kFull,
                         PartitionScheme::kFull);
  auto subs = DecomposeTopology(t);
  ASSERT_TRUE(subs.ok());
  EXPECT_EQ(subs->size(), 1u);
  EXPECT_TRUE((*subs)[0].is_full);
}

TEST(DecomposeTest, MixedTopologySplitsAtSchemeChange) {
  // src -merge-> a -full-> b -full-> sink: {b, sink...} full group, {src, a}
  // structured group.
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 4);
  OperatorId a = b.AddOperator("a", 2);
  OperatorId c = b.AddOperator("c", 2);
  OperatorId sink = b.AddOperator("sink", 1);
  b.Connect(src, a, PartitionScheme::kMerge);
  b.Connect(a, c, PartitionScheme::kFull);
  b.Connect(c, sink, PartitionScheme::kFull);
  auto topo = b.Build();
  ASSERT_TRUE(topo.ok());
  auto subs = DecomposeTopology(*topo);
  ASSERT_TRUE(subs.ok());
  ASSERT_EQ(subs->size(), 2u);
  // Group seeded from the sink is full and holds sink, c, a; the other is
  // structured and holds src.
  int full_ops = 0, structured_ops = 0;
  for (const SubTopology& sub : *subs) {
    if (sub.is_full) {
      full_ops += sub.extracted.topo.num_operators();
    } else {
      structured_ops += sub.extracted.topo.num_operators();
    }
  }
  EXPECT_EQ(full_ops, 3);
  EXPECT_EQ(structured_ops, 1);
}

TEST(DecomposeTest, EveryOperatorAssignedExactlyOnce) {
  Rng rng(77);
  RandomTopologyOptions opts;
  for (int i = 0; i < 20; ++i) {
    auto topo = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(topo.ok());
    auto subs = DecomposeTopology(*topo);
    ASSERT_TRUE(subs.ok());
    std::vector<int> seen(static_cast<size_t>(topo->num_operators()), 0);
    for (const SubTopology& sub : *subs) {
      for (OperatorId op : sub.extracted.parent_op) {
        ++seen[static_cast<size_t>(op)];
      }
    }
    for (int count : seen) {
      EXPECT_EQ(count, 1);
    }
  }
}

TEST(DecomposeTest, SubTopologyTypesMatchTheirInternalEdges) {
  // Invariant: a full sub-topology contains only Full internal edges; a
  // structured one contains none.
  Rng rng(4321);
  RandomTopologyOptions opts;
  opts.join_fraction = 0.4;
  for (int i = 0; i < 30; ++i) {
    opts.kind = (i % 2 == 0) ? RandomTopologyOptions::Kind::kStructured
                             : RandomTopologyOptions::Kind::kFull;
    auto topo = GenerateRandomTopology(opts, &rng);
    ASSERT_TRUE(topo.ok());
    auto subs = DecomposeTopology(*topo);
    ASSERT_TRUE(subs.ok());
    for (const SubTopology& sub : *subs) {
      for (const StreamEdge& e : sub.extracted.topo.edges()) {
        if (sub.is_full) {
          EXPECT_EQ(e.scheme, PartitionScheme::kFull);
        } else {
          EXPECT_NE(e.scheme, PartitionScheme::kFull);
        }
      }
    }
  }
}

TEST(StructureAwarePlannerTest, ZeroAndTinyBudgets) {
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  StructureAwareOptions opts;
  opts.fill_budget = false;
  StructureAwarePlanner planner(opts);
  auto zero = planner.Plan({f.topo, 0});
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->resource_usage(), 0);
  EXPECT_DOUBLE_EQ(zero->output_fidelity, 0.0);
  // Budget 1 cannot afford Fig. 2's minimal MC-tree (3 tasks for the
  // join); without top-up nothing is replicated.
  auto one = planner.Plan({f.topo, 1});
  ASSERT_TRUE(one.ok());
  EXPECT_DOUBLE_EQ(one->output_fidelity, 0.0);
  EXPECT_LE(one->resource_usage(), 1);
}

TEST(StructureAwarePlannerTest, IcMetricOptionChangesTheObjective) {
  // On a join topology, the IC-optimizing variant reports/searches the
  // correlation-blind metric; its plan's IC must be at least the OF
  // variant's IC.
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  StructureAwarePlanner of_planner;
  StructureAwareOptions ic_opts;
  ic_opts.metric = LossModel::kInternalCompleteness;
  StructureAwarePlanner ic_planner(ic_opts);
  for (int budget : {2, 3}) {
    auto of_plan = of_planner.Plan({f.topo, budget});
    auto ic_plan = ic_planner.Plan({f.topo, budget});
    ASSERT_TRUE(of_plan.ok());
    ASSERT_TRUE(ic_plan.ok());
    EXPECT_GE(PlanInternalCompleteness(f.topo, ic_plan->replicated),
              PlanInternalCompleteness(f.topo, of_plan->replicated) - 1e-9)
        << "budget " << budget;
  }
}

TEST(ExtractTest, BoundarySourceKeepsParentRates) {
  Topology t = MakeChain(4, 2, 1, PartitionScheme::kMerge,
                         PartitionScheme::kMerge, 1000.0);
  // Extract {mid, sink}: mid becomes a source with its parent output rates.
  auto ex = ExtractSubTopology(t, {1, 2});
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex->topo.num_operators(), 2);
  ASSERT_EQ(ex->topo.source_operators().size(), 1u);
  for (TaskId lt : ex->topo.op(ex->topo.source_operators()[0]).tasks) {
    const TaskId pt = ex->parent_task[static_cast<size_t>(lt)];
    EXPECT_NEAR(ex->topo.task(lt).output_rate, t.task(pt).output_rate, 1e-9);
  }
  // Severed substreams: the four src->mid links.
  EXPECT_EQ(ex->cut_substreams.size(), 4u);
}

TEST(ExtractTest, MappingsAreInverse) {
  Topology t = MakeChain(2, 4, 2, PartitionScheme::kSplit,
                         PartitionScheme::kMerge);
  auto ex = ExtractSubTopology(t, {0, 1});
  ASSERT_TRUE(ex.ok());
  for (TaskId lt = 0; lt < ex->topo.num_tasks(); ++lt) {
    const TaskId pt = ex->parent_task[static_cast<size_t>(lt)];
    EXPECT_EQ(ex->local_task[static_cast<size_t>(pt)], lt);
  }
}

TEST(ExtractTest, RejectsEmptyAndBadIds) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  EXPECT_EQ(ExtractSubTopology(t, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExtractSubTopology(t, {99}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(UnitsTest, SplitsAtMergeIntoSplit) {
  // Fig. 3(a): O1 -merge-> O2 -split-> O3. Boundary between O1 and O2.
  TopologyBuilder b;
  OperatorId o1 = b.AddOperator("O1", 4);
  OperatorId o2 = b.AddOperator("O2", 2);
  OperatorId o3 = b.AddOperator("O3", 4);
  b.Connect(o1, o2, PartitionScheme::kMerge);
  b.Connect(o2, o3, PartitionScheme::kSplit);
  auto topo = b.Build();
  ASSERT_TRUE(topo.ok());
  auto split = SplitStructuredTopology(*topo);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->units.size(), 2u);
  EXPECT_EQ(split->cut_substreams.size(), 4u);
}

TEST(UnitsTest, SplitsAtMergeIntoJoin) {
  // Fig. 3(b): O1 -merge-> O3 (join), O2 -one-to-one-> O3. Boundary between
  // O1 and O3.
  TopologyBuilder b;
  OperatorId o1 = b.AddOperator("O1", 4);
  OperatorId o2 = b.AddOperator("O2", 2);
  OperatorId o3 = b.AddOperator("O3", 2, InputCorrelation::kCorrelated);
  b.Connect(o1, o3, PartitionScheme::kMerge);
  b.Connect(o2, o3, PartitionScheme::kOneToOne);
  auto topo = b.Build();
  ASSERT_TRUE(topo.ok());
  auto split = SplitStructuredTopology(*topo);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->units.size(), 2u);
  // The cut is exactly O1's merge edge.
  for (const Substream& s : split->cut_substreams) {
    EXPECT_EQ(s.from_op, o1);
    EXPECT_EQ(s.to_op, o3);
  }
}

TEST(UnitsTest, PlainChainIsOneUnit) {
  Topology t = MakeChain(2, 4, 2, PartitionScheme::kSplit,
                         PartitionScheme::kMerge);
  // Merge input at the sink but the sink has no split output and a single
  // input stream: no cut.
  auto split = SplitStructuredTopology(t);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->units.size(), 1u);
  EXPECT_TRUE(split->cut_substreams.empty());
}

TEST(UnitsTest, SegmentsCoverUnitsAndScoreInUnitRange) {
  TopologyBuilder b;
  OperatorId o1 = b.AddOperator("O1", 4);
  OperatorId o2 = b.AddOperator("O2", 2);
  OperatorId o3 = b.AddOperator("O3", 4);
  b.Connect(o1, o2, PartitionScheme::kMerge);
  b.Connect(o2, o3, PartitionScheme::kSplit);
  auto topo = b.Build();
  ASSERT_TRUE(topo.ok());
  auto split = SplitStructuredTopology(*topo);
  ASSERT_TRUE(split.ok());
  for (const Unit& unit : split->units) {
    ASSERT_FALSE(unit.segments.empty());
    ASSERT_EQ(unit.segments.size(), unit.segment_of.size());
    for (size_t i = 0; i < unit.segments.size(); ++i) {
      EXPECT_GT(unit.segment_of[i], 0.0);
      EXPECT_LE(unit.segment_of[i], 1.0);
      // Segments are expressed in parent ids and live inside this unit.
      for (TaskId t : unit.segments[i].ToVector()) {
        EXPECT_EQ(split->task_unit[static_cast<size_t>(t)],
                  static_cast<int>(&unit - split->units.data()));
      }
    }
  }
}

}  // namespace
}  // namespace ppa
