#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "fidelity/mc_tree.h"
#include "fidelity/metrics.h"
#include "tests/test_topologies.h"
#include "topology/random_topology.h"

namespace ppa {
namespace {

using ::ppa::testing::Fig1Topology;
using ::ppa::testing::Fig2Topology;
using ::ppa::testing::MakeChain;
using ::ppa::testing::MakeFig1;
using ::ppa::testing::MakeFig2;

TEST(InfoLossTest, NoFailureMeansNoLoss) {
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  TaskSet none(f.topo.num_tasks());
  InfoLossResult r = PropagateInfoLoss(f.topo, none);
  for (double loss : r.output_loss) {
    EXPECT_DOUBLE_EQ(loss, 0.0);
  }
  EXPECT_DOUBLE_EQ(r.output_fidelity, 1.0);
}

TEST(InfoLossTest, FailedTaskHasFullLoss) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  TaskSet failed(f.topo.num_tasks());
  failed.Add(f.t22);
  InfoLossResult r = PropagateInfoLoss(f.topo, failed);
  EXPECT_DOUBLE_EQ(r.output_loss[static_cast<size_t>(f.t22)], 1.0);
}

// The worked example of Sec. III-A1: with rates 1,2 / 3,2 and t22 failed,
// the downstream loss is 1/4 for an independent-input operator.
TEST(InfoLossTest, PaperExampleIndependent) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  TaskSet failed(f.topo.num_tasks());
  failed.Add(f.t22);
  InfoLossResult r = PropagateInfoLoss(f.topo, failed);
  EXPECT_NEAR(r.output_loss[static_cast<size_t>(f.t31)], 0.25, 1e-12);
  EXPECT_NEAR(r.output_fidelity, 0.75, 1e-12);
}

// ... and 2/5 for a correlated-input (join) operator.
TEST(InfoLossTest, PaperExampleCorrelated) {
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  TaskSet failed(f.topo.num_tasks());
  failed.Add(f.t22);
  InfoLossResult r = PropagateInfoLoss(f.topo, failed);
  EXPECT_NEAR(r.output_loss[static_cast<size_t>(f.t31)], 0.4, 1e-12);
  EXPECT_NEAR(r.output_fidelity, 0.6, 1e-12);
}

// IC ignores correlation, so on the join topology it must match the
// independent-input result.
TEST(InfoLossTest, InternalCompletenessIgnoresCorrelation) {
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  TaskSet failed(f.topo.num_tasks());
  failed.Add(f.t22);
  EXPECT_NEAR(ComputeInternalCompleteness(f.topo, failed), 0.75, 1e-12);
  EXPECT_NEAR(ComputeOutputFidelity(f.topo, failed), 0.6, 1e-12);
}

TEST(InfoLossTest, LossPropagatesThroughChain) {
  Topology t = MakeChain(4, 2, 1, PartitionScheme::kMerge,
                         PartitionScheme::kMerge);
  // Fail one of four equal source tasks: the sink loses 1/4.
  TaskSet failed(t.num_tasks());
  failed.Add(t.op(0).tasks[1]);
  EXPECT_NEAR(ComputeOutputFidelity(t, failed), 0.75, 1e-12);
  // Fail one of the two mid tasks: everything it carried (1/2) is lost.
  TaskSet failed_mid(t.num_tasks());
  failed_mid.Add(t.op(1).tasks[0]);
  EXPECT_NEAR(ComputeOutputFidelity(t, failed_mid), 0.5, 1e-12);
}

TEST(InfoLossTest, SinkFailureZeroesFidelity) {
  Topology t = MakeChain(2, 2, 1, PartitionScheme::kOneToOne,
                         PartitionScheme::kMerge);
  TaskSet failed(t.num_tasks());
  failed.Add(t.op(2).tasks[0]);
  EXPECT_DOUBLE_EQ(ComputeOutputFidelity(t, failed), 0.0);
}

TEST(InfoLossTest, AllFailedZeroFidelity) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  EXPECT_DOUBLE_EQ(
      ComputeOutputFidelity(f.topo, TaskSet::All(f.topo.num_tasks())), 0.0);
}

TEST(InfoLossTest, SingleFailureHelperMatchesManual) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  TaskSet failed(f.topo.num_tasks());
  failed.Add(f.t21);
  EXPECT_DOUBLE_EQ(SingleFailureOutputFidelity(f.topo, f.t21),
                   ComputeOutputFidelity(f.topo, failed));
}

TEST(PlanObjectiveTest, FullPlanGivesFullFidelity) {
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  EXPECT_DOUBLE_EQ(
      PlanOutputFidelity(f.topo, TaskSet::All(f.topo.num_tasks())), 1.0);
}

TEST(PlanObjectiveTest, EmptyPlanGivesZero) {
  Fig2Topology f = MakeFig2(InputCorrelation::kCorrelated);
  EXPECT_DOUBLE_EQ(PlanOutputFidelity(f.topo, TaskSet(f.topo.num_tasks())),
                   0.0);
}

TEST(PlanObjectiveTest, CompleteMcTreePlanHasPositiveFidelity) {
  Fig2Topology f = MakeFig2(InputCorrelation::kIndependent);
  TaskSet plan(f.topo.num_tasks());
  plan.Add(f.t21);
  plan.Add(f.t31);
  // {t21, t31} is a complete MC-tree: t21 carries rate 3 of total 8.
  EXPECT_NEAR(PlanOutputFidelity(f.topo, plan), 3.0 / 8.0, 1e-12);
  // An incomplete set (sink missing) is worthless.
  TaskSet partial(f.topo.num_tasks());
  partial.Add(f.t21);
  EXPECT_DOUBLE_EQ(PlanOutputFidelity(f.topo, partial), 0.0);
}

// Property: adding a failure can never increase output fidelity, and the
// IC baseline never reports lower completeness than OF (the correlated
// combination dominates the rate-weighted average).
class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, MonotoneAndOrdered) {
  Rng rng(GetParam());
  RandomTopologyOptions opts;
  opts.join_fraction = 0.5;
  opts.kind = (GetParam() % 2 == 0) ? RandomTopologyOptions::Kind::kStructured
                                    : RandomTopologyOptions::Kind::kFull;
  auto topo = GenerateRandomTopology(opts, &rng);
  ASSERT_TRUE(topo.ok());
  TaskSet failed(topo->num_tasks());
  double prev_of = ComputeOutputFidelity(*topo, failed);
  for (int step = 0; step < topo->num_tasks(); ++step) {
    // Grow the failure set one random task at a time.
    TaskId t;
    do {
      t = static_cast<TaskId>(rng.NextUint64(
          static_cast<uint64_t>(topo->num_tasks())));
    } while (failed.Contains(t));
    failed.Add(t);
    const double of = ComputeOutputFidelity(*topo, failed);
    const double ic = ComputeInternalCompleteness(*topo, failed);
    EXPECT_LE(of, prev_of + 1e-9) << "failure must not increase OF";
    EXPECT_LE(of, ic + 1e-9) << "OF must lower-bound IC";
    EXPECT_GE(of, -1e-12);
    EXPECT_LE(of, 1.0 + 1e-12);
    prev_of = of;
  }
  EXPECT_NEAR(prev_of, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MetricsPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{24}));

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Property: IncrementalLossScorer's scores are bit-identical to a full
// PropagateInfoLoss of the changed failure set, for plan extensions
// (ScoreRevived) and failure extensions (ScoreFailed), under both loss
// models, and scoring leaves the base untouched.
class IncrementalScorerPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalScorerPropertyTest, MatchesFullPropagationBitwise) {
  Rng rng(GetParam() * 6151 + 3);
  RandomTopologyOptions opts;
  opts.join_fraction = 0.5;
  opts.kind = (GetParam() % 2 == 0) ? RandomTopologyOptions::Kind::kStructured
                                    : RandomTopologyOptions::Kind::kFull;
  opts.skew = (GetParam() % 3 == 0)
                  ? RandomTopologyOptions::WorkloadSkew::kZipf
                  : RandomTopologyOptions::WorkloadSkew::kUniform;
  auto topo = GenerateRandomTopology(opts, &rng);
  ASSERT_TRUE(topo.ok());
  const int n = topo->num_tasks();
  auto random_task = [&] {
    return static_cast<TaskId>(rng.NextUint64(static_cast<uint64_t>(n)));
  };
  TaskSet random_plan(n);
  for (TaskId t = 0; t < n; ++t) {
    if (rng.NextUint64(3) == 0) {
      random_plan.Add(t);
    }
  }
  const TaskSet bases[] = {TaskSet(n), TaskSet::All(n), random_plan};

  for (LossModel model :
       {LossModel::kOutputFidelity, LossModel::kInternalCompleteness}) {
    IncrementalLossScorer scorer(*topo, model);
    for (const TaskSet& plan : bases) {
      // Candidate additions: empty, a fresh pair, a duplicate, an
      // already-replicated task (when there is one), and a larger batch.
      std::vector<std::vector<TaskId>> adds = {{}};
      const TaskId a = random_task(), b = random_task();
      adds.push_back({a, b});
      adds.push_back({a, a});
      if (!plan.empty()) {
        const std::vector<TaskId> in_plan = plan.ToVector();
        adds.push_back(
            {in_plan[rng.NextUint64(in_plan.size())], random_task()});
      }
      std::vector<TaskId> batch;
      for (int i = 0; i < 6; ++i) {
        batch.push_back(random_task());
      }
      adds.push_back(batch);

      const TaskSet failed = plan.Complement();
      scorer.Reset(failed);
      for (const std::vector<TaskId>& add : adds) {
        TaskSet extended = plan;
        TaskSet more_failed = failed;
        for (TaskId t : add) {
          extended.Add(t);
          more_failed.Add(t);
        }
        EXPECT_EQ(Bits(scorer.ScoreRevived(add)),
                  Bits(PropagateInfoLoss(*topo, extended.Complement(), model)
                           .output_fidelity))
            << "plan size " << plan.size() << ", add size " << add.size();
        EXPECT_EQ(Bits(scorer.ScoreFailed(add)),
                  Bits(PropagateInfoLoss(*topo, more_failed, model)
                           .output_fidelity))
            << "plan size " << plan.size() << ", add size " << add.size();
      }
      // Scoring restored the base exactly.
      const InfoLossResult full = PropagateInfoLoss(*topo, failed, model);
      ASSERT_EQ(scorer.base().output_loss.size(), full.output_loss.size());
      for (size_t t = 0; t < full.output_loss.size(); ++t) {
        EXPECT_EQ(Bits(scorer.base().output_loss[t]),
                  Bits(full.output_loss[t]))
            << "task " << t;
      }
      EXPECT_EQ(Bits(scorer.base().output_fidelity),
                Bits(full.output_fidelity));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, IncrementalScorerPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{200}));

TEST(InfoLossDeathTest, FailureSetMustMatchTheTopology) {
  const Topology topo = MakeChain(2, 2, 1, PartitionScheme::kOneToOne,
                                  PartitionScheme::kMerge);
  const TaskSet larger(topo.num_tasks() + 1);
  const TaskSet smaller(topo.num_tasks() - 1);
  EXPECT_DEATH((void)PropagateInfoLoss(topo, larger), "failure set over");
  EXPECT_DEATH((void)PropagateInfoLoss(topo, smaller), "failure set over");
  IncrementalLossScorer scorer(topo, LossModel::kOutputFidelity);
  EXPECT_DEATH(scorer.Reset(larger), "failure set over");
}

TEST(McTreeTest, SingleOperatorTopology) {
  TopologyBuilder b;
  b.AddOperator("solo", 3);
  auto t = b.Build();
  ASSERT_TRUE(t.ok());
  auto trees = EnumerateMcTrees(*t);
  ASSERT_TRUE(trees.ok());
  EXPECT_EQ(trees->size(), 3u);
  for (const TaskSet& tree : *trees) {
    EXPECT_EQ(tree.size(), 1);
  }
}

TEST(McTreeTest, ChainHasOneTreePerAlignedPath) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  auto trees = EnumerateMcTrees(t);
  ASSERT_TRUE(trees.ok());
  EXPECT_EQ(trees->size(), 2u);
  for (const TaskSet& tree : *trees) {
    EXPECT_EQ(tree.size(), 3);
  }
}

TEST(McTreeTest, MergeMultipliesChoices) {
  Topology t = MakeChain(4, 2, 1, PartitionScheme::kMerge,
                         PartitionScheme::kMerge);
  // Sink picks one of 2 mid tasks; each mid picks one of its 2 sources.
  auto trees = EnumerateMcTrees(t);
  ASSERT_TRUE(trees.ok());
  EXPECT_EQ(trees->size(), 4u);
}

// The Fig. 1 discussion: 16 MC-trees when O3 is independent-input, 8 when
// it is a join.
TEST(McTreeTest, Fig1Counts) {
  Fig1Topology ind = MakeFig1(InputCorrelation::kIndependent);
  auto ind_trees = EnumerateMcTrees(ind.topo);
  ASSERT_TRUE(ind_trees.ok());
  EXPECT_EQ(ind_trees->size(), 16u);

  Fig1Topology join = MakeFig1(InputCorrelation::kCorrelated);
  auto join_trees = EnumerateMcTrees(join.topo);
  ASSERT_TRUE(join_trees.ok());
  EXPECT_EQ(join_trees->size(), 8u);
  // Join trees contain one task from each of O1, O2, O3, O4.
  for (const TaskSet& tree : *join_trees) {
    EXPECT_EQ(tree.size(), 4);
  }
}

TEST(McTreeTest, FullTopologyCountIsProductOfParallelisms) {
  Topology t = MakeChain(2, 3, 2, PartitionScheme::kFull,
                         PartitionScheme::kFull);
  auto trees = EnumerateMcTrees(t);
  ASSERT_TRUE(trees.ok());
  EXPECT_EQ(trees->size(), 2u * 3u * 2u);
}

TEST(McTreeTest, EnumerationLimitIsEnforced) {
  Topology t = MakeChain(4, 4, 4, PartitionScheme::kFull,
                         PartitionScheme::kFull);
  McTreeEnumOptions opts;
  opts.max_trees = 10;
  EXPECT_EQ(EnumerateMcTrees(t, opts).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(McTreeTest, PerSinkEnumeration) {
  Fig1Topology f = MakeFig1(InputCorrelation::kIndependent);
  TaskId sink0 = f.topo.op(f.o4).tasks[0];
  auto trees = EnumerateMcTreesForSink(f.topo, sink0);
  ASSERT_TRUE(trees.ok());
  EXPECT_EQ(trees->size(), 8u);
  for (const TaskSet& tree : *trees) {
    EXPECT_TRUE(tree.Contains(sink0));
  }
  // Non-sink task is rejected.
  EXPECT_EQ(
      EnumerateMcTreesForSink(f.topo, f.topo.op(f.o1).tasks[0]).status().code(),
      StatusCode::kInvalidArgument);
}

// Property: replicating exactly the tasks of any single MC-tree yields a
// plan with strictly positive worst-case fidelity, and removing any task
// from the tree drops it back to zero (minimality).
class McTreeMinimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(McTreeMinimalityTest, TreesAreMinimalAndComplete) {
  Rng rng(GetParam() * 977 + 13);
  RandomTopologyOptions opts;
  opts.min_operators = 4;
  opts.max_operators = 6;
  opts.min_parallelism = 1;
  opts.max_parallelism = 4;
  opts.join_fraction = 0.5;
  auto topo = GenerateRandomTopology(opts, &rng);
  ASSERT_TRUE(topo.ok());
  auto trees = EnumerateMcTrees(*topo);
  ASSERT_TRUE(trees.ok());
  ASSERT_FALSE(trees->empty());
  size_t checked = 0;
  for (const TaskSet& tree : *trees) {
    if (++checked > 10) {
      break;  // Bound test cost.
    }
    EXPECT_GT(PlanOutputFidelity(*topo, tree), 0.0);
    for (TaskId t : tree.ToVector()) {
      TaskSet reduced = tree;
      reduced.Remove(t);
      EXPECT_DOUBLE_EQ(PlanOutputFidelity(*topo, reduced), 0.0)
          << "removing " << topo->TaskLabel(t)
          << " should break the MC-tree";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, McTreeMinimalityTest,
                         ::testing::Range(uint64_t{0}, uint64_t{16}));

}  // namespace
}  // namespace ppa
