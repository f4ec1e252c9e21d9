#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/operator.h"
#include "engine/operators.h"
#include "engine/router.h"
#include "engine/serde.h"
#include "engine/task_runtime.h"
#include "tests/test_topologies.h"
#include "topology/random_topology.h"
#include "topology/topology.h"

namespace ppa {
namespace {

using ::ppa::testing::MakeChain;

std::vector<Tuple> MakeTuples(std::initializer_list<std::pair<const char*, int64_t>> kvs,
                              TaskId producer = 0, int64_t batch = 0) {
  std::vector<Tuple> out;
  uint64_t i = 0;
  for (const auto& [k, v] : kvs) {
    Tuple t;
    t.key = k;
    t.value = v;
    t.producer = producer;
    t.batch = batch;
    t.seq = (static_cast<uint64_t>(batch) << 24) + i++;
    out.push_back(std::move(t));
  }
  return out;
}

TEST(SerdeTest, RoundTrip) {
  BinaryWriter w;
  w.PutU64(42);
  w.PutI64(-7);
  w.PutDouble(3.25);
  w.PutString("hello");
  w.PutString("");
  BinaryReader r(w.data());
  EXPECT_EQ(*r.GetU64(), 42u);
  EXPECT_EQ(*r.GetI64(), -7);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.25);
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, TruncationDetected) {
  BinaryWriter w;
  w.PutU64(1);
  std::string data = w.data();
  data.pop_back();
  BinaryReader r(data);
  EXPECT_EQ(r.GetU64().status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, TruncatedStringDetected) {
  BinaryWriter w;
  w.PutString("hello world");
  std::string data = w.data();
  data.resize(data.size() - 3);
  BinaryReader r(data);
  EXPECT_EQ(r.GetString().status().code(), StatusCode::kOutOfRange);
}

TEST(OperatorsTest, PassThroughForwardsEverything) {
  PassThroughOperator op;
  BatchContext ctx(0, 0, 1);
  op.ProcessBatch(&ctx, MakeTuples({{"a", 1}, {"b", 2}}));
  ASSERT_EQ(ctx.emitted().size(), 2u);
  EXPECT_EQ(ctx.emitted()[0].key, "a");
  EXPECT_EQ(ctx.emitted()[1].value, 2);
  EXPECT_EQ(op.StateSizeTuples(), 0);
}

TEST(OperatorsTest, SelectivityIsDeterministicAndProportional) {
  SelectivityOperator op(0.5);
  std::vector<Tuple> inputs;
  for (int i = 0; i < 10000; ++i) {
    Tuple t;
    t.key = "key" + std::to_string(i);
    t.value = i;
    inputs.push_back(std::move(t));
  }
  BatchContext a(0, 0, 1), b(0, 0, 1);
  op.ProcessBatch(&a, inputs);
  op.ProcessBatch(&b, inputs);
  EXPECT_EQ(a.emitted().size(), b.emitted().size());
  EXPECT_NEAR(static_cast<double>(a.emitted().size()), 5000.0, 300.0);
}

TEST(OperatorsTest, SlidingWindowEvictsOldBatches) {
  SlidingWindowAggregateOperator op(/*window_batches=*/3,
                                    /*selectivity=*/1.0);
  for (int64_t b = 0; b < 10; ++b) {
    BatchContext ctx(b, 0, 1);
    op.ProcessBatch(&ctx, MakeTuples({{"k", 1}, {"k", 1}}, 0, b));
    // Steady state: window holds at most 3 batches x 2 tuples.
    EXPECT_LE(op.StateSizeTuples(), 6);
    if (b >= 2) {
      EXPECT_EQ(op.StateSizeTuples(), 6);
    }
  }
}

TEST(OperatorsTest, SlidingWindowSnapshotRestoreIsExact) {
  SlidingWindowAggregateOperator a(5, 0.5), b(5, 0.5);
  for (int64_t batch = 0; batch < 7; ++batch) {
    BatchContext ctx(batch, 0, 1);
    a.ProcessBatch(&ctx, MakeTuples({{"x", batch}, {"y", batch * 2}}, 0, batch));
  }
  auto snapshot = a.SnapshotState();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(b.RestoreState(*snapshot).ok());
  EXPECT_EQ(a.StateSizeTuples(), b.StateSizeTuples());
  // Identical future behaviour.
  BatchContext ca(7, 0, 1), cb(7, 0, 1);
  auto inputs = MakeTuples({{"z", 9}}, 0, 7);
  a.ProcessBatch(&ca, inputs);
  b.ProcessBatch(&cb, inputs);
  ASSERT_EQ(ca.emitted().size(), cb.emitted().size());
  for (size_t i = 0; i < ca.emitted().size(); ++i) {
    EXPECT_EQ(ca.emitted()[i].key, cb.emitted()[i].key);
    EXPECT_EQ(ca.emitted()[i].value, cb.emitted()[i].value);
  }
}

TEST(OperatorsTest, WindowedKeyCountCountsAndEvicts) {
  WindowedKeyCountOperator op(2);
  BatchContext c0(0, 0, 1);
  op.ProcessBatch(&c0, MakeTuples({{"a", 1}, {"a", 1}, {"b", 1}}, 0, 0));
  // Counts after batch 0: a=2, b=1.
  std::map<std::string, int64_t> emitted;
  for (const Tuple& t : c0.emitted()) {
    emitted[t.key] = t.value;
  }
  EXPECT_EQ(emitted["a"], 2);
  EXPECT_EQ(emitted["b"], 1);
  BatchContext c1(1, 0, 1);
  op.ProcessBatch(&c1, MakeTuples({{"a", 1}}, 0, 1));
  emitted.clear();
  for (const Tuple& t : c1.emitted()) {
    emitted[t.key] = t.value;
  }
  EXPECT_EQ(emitted["a"], 3);  // Window of 2 batches: 2 + 1.
  // Batch 2 evicts batch 0's contribution.
  BatchContext c2(2, 0, 1);
  op.ProcessBatch(&c2, MakeTuples({{"a", 1}}, 0, 2));
  emitted.clear();
  for (const Tuple& t : c2.emitted()) {
    emitted[t.key] = t.value;
  }
  EXPECT_EQ(emitted["a"], 2);  // Batches 1 and 2 only.
}

TEST(OperatorsTest, KeyCountSnapshotRoundTrip) {
  WindowedKeyCountOperator a(3), b(3);
  for (int64_t batch = 0; batch < 5; ++batch) {
    BatchContext ctx(batch, 0, 1);
    a.ProcessBatch(&ctx, MakeTuples({{"k1", 1}, {"k2", 1}}, 0, batch));
  }
  auto snap = a.SnapshotState();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(b.RestoreState(*snap).ok());
  BatchContext ca(5, 0, 1), cb(5, 0, 1);
  a.ProcessBatch(&ca, {});
  b.ProcessBatch(&cb, {});
  ASSERT_EQ(ca.emitted().size(), cb.emitted().size());
}

TEST(RouterTest, OneToOneRoutesToAlignedTask) {
  Topology t = MakeChain(3, 3, 3, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  Router router(&t);
  for (TaskId src : t.op(0).tasks) {
    const auto& consumers = router.Consumers(src, 1);
    ASSERT_EQ(consumers.size(), 1u);
    EXPECT_EQ(t.task(consumers[0]).index_in_op, t.task(src).index_in_op);
  }
}

TEST(RouterTest, FullRoutesByKeyConsistently) {
  Topology t = MakeChain(2, 4, 1, PartitionScheme::kFull,
                         PartitionScheme::kMerge);
  Router router(&t);
  Tuple tuple;
  tuple.key = "some-key";
  const TaskId from0 = t.op(0).tasks[0];
  const TaskId from1 = t.op(0).tasks[1];
  // The same key from different producers lands on the same consumer
  // (key partitioning is a property of the stream, not the producer).
  EXPECT_EQ(t.task(router.Route(from0, 1, tuple)).index_in_op,
            t.task(router.Route(from1, 1, tuple)).index_in_op);
  // Different keys spread over consumers.
  std::set<TaskId> seen;
  for (int i = 0; i < 100; ++i) {
    tuple.key = "k" + std::to_string(i);
    seen.insert(router.Route(from0, 1, tuple));
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(RouterTest, NoEdgeYieldsInvalid) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  Router router(&t);
  Tuple tuple;
  tuple.key = "x";
  EXPECT_EQ(router.Route(t.op(0).tasks[0], 2, tuple), kInvalidTaskId);
  EXPECT_TRUE(router.Consumers(t.op(0).tasks[0], 2).empty());
}

/// A batch of `size` tuples from `producer` over a pool of few keys, so
/// keys repeat within the batch.
BatchOutput RandomBatch(Rng* rng, TaskId producer, size_t size) {
  BatchOutput batch;
  batch.batch = 3;
  for (size_t i = 0; i < size; ++i) {
    Tuple t;
    t.key = "key" + std::to_string(rng->NextUint64(37));
    t.value = static_cast<int64_t>(i);
    t.batch = batch.batch;
    t.seq = (uint64_t{3} << 24) + i;
    t.producer = producer;
    batch.tuples.push_back(std::move(t));
  }
  return batch;
}

/// Single-edge shapes for every partition scheme at fan-outs 1/2/8/64,
/// each with a second full edge from the same producers so a batch is
/// routed along two edges, plus random structured and full topologies.
std::vector<Topology> RouterTopologies() {
  std::vector<Topology> out;
  auto shape = [&](int n1, int n2, PartitionScheme scheme) {
    TopologyBuilder b;
    const OperatorId src = b.AddOperator("src", n1);
    const OperatorId dst = b.AddOperator("dst", n2);
    const OperatorId side = b.AddOperator("side", 3);
    b.Connect(src, dst, scheme).Connect(src, side, PartitionScheme::kFull);
    auto topo = b.Build();
    PPA_CHECK(topo.ok()) << topo.status().ToString();
    out.push_back(std::move(*topo));
  };
  for (int fan_out : {1, 2, 8, 64}) {
    shape(2, fan_out, PartitionScheme::kFull);
    if (fan_out > 1) {
      shape(2, 2 * fan_out, PartitionScheme::kSplit);
    }
  }
  shape(3, 3, PartitionScheme::kOneToOne);
  shape(4, 2, PartitionScheme::kMerge);
  Rng rng(17);
  for (int i = 0; i < 8; ++i) {
    RandomTopologyOptions opts;
    opts.kind = i % 2 == 0 ? RandomTopologyOptions::Kind::kStructured
                           : RandomTopologyOptions::Kind::kFull;
    opts.max_parallelism = 9;
    auto topo = GenerateRandomTopology(opts, &rng);
    PPA_CHECK(topo.ok()) << topo.status().ToString();
    out.push_back(std::move(*topo));
  }
  return out;
}

TEST(RouterTest, RouteBatchToEqualsPerTupleRouteFilter) {
  Rng rng(5);
  Tuple sentinel;
  sentinel.key = "sentinel";
  for (const Topology& topo : RouterTopologies()) {
    Router router(&topo);
    for (TaskId p = 0; p < topo.num_tasks(); ++p) {
      for (size_t size : {size_t{0}, size_t{1}, size_t{8}, size_t{2000}}) {
        const BatchOutput batch = RandomBatch(&rng, p, size);
        for (OperatorId to_op = 0; to_op < topo.num_operators(); ++to_op) {
          std::vector<TaskId> consumers = router.Consumers(p, to_op);
          if (consumers.empty()) {
            // A missing edge routes nothing to anyone.
            std::vector<Tuple> out;
            for (TaskId c : topo.op(to_op).tasks) {
              EXPECT_EQ(router.RouteBatchTo(p, to_op, batch, c, &out), 0u);
            }
            EXPECT_TRUE(out.empty());
            continue;
          }
          // Visit the consumers in a random order: whichever comes first
          // builds the memo.
          rng.Shuffle(&consumers);
          for (TaskId c : consumers) {
            std::vector<Tuple> expected = {sentinel};
            for (const Tuple& t : batch.tuples) {
              if (router.Route(p, to_op, t) == c) {
                expected.push_back(t);
              }
            }
            std::vector<Tuple> out = {sentinel};
            const size_t n = router.RouteBatchTo(p, to_op, batch, c, &out);
            EXPECT_EQ(n, expected.size() - 1);
            ASSERT_EQ(out, expected)
                << topo.TaskLabel(p) << " -> " << topo.TaskLabel(c);
            // Repeated call (memo hit) and the counting call agree.
            std::vector<Tuple> again = {sentinel};
            EXPECT_EQ(router.RouteBatchTo(p, to_op, batch, c, &again), n);
            EXPECT_EQ(again, expected);
            EXPECT_EQ(router.RouteBatchTo(p, to_op, batch, c, nullptr), n);
          }
          // A task outside the consumer set gets nothing.
          std::vector<Tuple> out;
          EXPECT_EQ(router.RouteBatchTo(p, to_op, batch, p, &out), 0u);
          EXPECT_TRUE(out.empty());
        }
      }
    }
  }
}

TEST(RouterTest, RouteBatchToRebuildsTheMemoOfAChangedBatch) {
  Topology topo = MakeChain(1, 4, 1, PartitionScheme::kFull,
                            PartitionScheme::kMerge);
  Router router(&topo);
  Rng rng(9);
  const TaskId p = topo.op(0).tasks[0];
  BatchOutput batch = RandomBatch(&rng, p, 50);
  const TaskId c = topo.op(1).tasks[2];
  router.RouteBatchTo(p, 1, batch, c, nullptr);
  batch.tuples.resize(20);
  size_t expected = 0;
  for (const Tuple& t : batch.tuples) {
    expected += router.Route(p, 1, t) == c ? 1 : 0;
  }
  EXPECT_EQ(router.RouteBatchTo(p, 1, batch, c, nullptr), expected);
}

class CountingSource : public SourceFunction {
 public:
  explicit CountingSource(int per_batch) : per_batch_(per_batch) {}
  std::vector<Tuple> NextBatch(int64_t batch, int task) override {
    std::vector<Tuple> out;
    for (int i = 0; i < per_batch_; ++i) {
      Tuple t;
      t.key = "k" + std::to_string(i);
      t.value = batch * 100 + task;
      out.push_back(std::move(t));
    }
    return out;
  }

 private:
  int per_batch_;
};

Topology MakeTinyChain() {
  return MakeChain(1, 1, 1, PartitionScheme::kOneToOne,
                   PartitionScheme::kOneToOne);
}

TEST(TaskRuntimeTest, SourceGeneratesDeterministicSeqs) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(3));
  const BatchOutput& out = rt.RunBatch(0, {});
  ASSERT_EQ(out.tuples.size(), 3u);
  EXPECT_EQ(out.tuples[0].seq, 0u);
  EXPECT_EQ(out.tuples[1].seq, 1u);
  EXPECT_EQ(out.tuples[0].producer, rt.id());
  const BatchOutput& out1 = rt.RunBatch(1, {});
  EXPECT_EQ(out1.tuples[0].seq, uint64_t{1} << 24);
  EXPECT_EQ(rt.next_batch(), 2);
}

TEST(TaskRuntimeTest, DuplicateEliminationBySeq) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(1).tasks[0],
                 std::make_unique<PassThroughOperator>(), nullptr);
  auto inputs = MakeTuples({{"a", 1}, {"b", 2}}, /*producer=*/0, /*batch=*/0);
  const BatchOutput& out = rt.RunBatch(0, inputs);
  EXPECT_EQ(out.tuples.size(), 2u);
  // Feed the same tuples again in the next batch: both are dropped.
  const BatchOutput& out1 = rt.RunBatch(1, inputs);
  EXPECT_TRUE(out1.tuples.empty());
  EXPECT_EQ(rt.processed_tuples(), 2);
}

TEST(TaskRuntimeTest, ProgressVectorTracksMaxSeq) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(1).tasks[0],
                 std::make_unique<PassThroughOperator>(), nullptr);
  rt.RunBatch(0, MakeTuples({{"a", 1}, {"b", 2}}, 0, 0));
  ASSERT_EQ(rt.progress_vector().size(), 1u);
  EXPECT_EQ(rt.progress_vector().at(0), 1u);
}

TEST(TaskRuntimeTest, SnapshotRestoreRoundTrip) {
  Topology t = MakeTinyChain();
  TaskRuntime a(&t, t.op(1).tasks[0],
                std::make_unique<SlidingWindowAggregateOperator>(3, 1.0),
                nullptr);
  for (int64_t b = 0; b < 5; ++b) {
    a.RunBatch(b, MakeTuples({{"x", b}}, 0, b));
  }
  auto snap = a.Snapshot();
  ASSERT_TRUE(snap.ok());

  TaskRuntime b2(&t, t.op(1).tasks[0],
                 std::make_unique<SlidingWindowAggregateOperator>(3, 1.0),
                 nullptr);
  ASSERT_TRUE(b2.Restore(*snap).ok());
  EXPECT_EQ(b2.next_batch(), a.next_batch());
  EXPECT_EQ(b2.StateSizeTuples(), a.StateSizeTuples());
  EXPECT_EQ(b2.progress_vector(), a.progress_vector());
  EXPECT_EQ(b2.BufferedTuples(), a.BufferedTuples());
  // Identical continued behaviour.
  auto next = MakeTuples({{"y", 42}}, 0, 5);
  const BatchOutput& oa = a.RunBatch(5, next);
  const BatchOutput& ob = b2.RunBatch(5, next);
  ASSERT_EQ(oa.tuples.size(), ob.tuples.size());
  for (size_t i = 0; i < oa.tuples.size(); ++i) {
    EXPECT_EQ(oa.tuples[i], ob.tuples[i]);
  }
}

TEST(TaskRuntimeTest, FindBatchAndTrim) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(2));
  for (int64_t b = 0; b < 5; ++b) {
    rt.RunBatch(b, {});
  }
  EXPECT_NE(rt.FindBatch(0), nullptr);
  EXPECT_NE(rt.FindBatch(4), nullptr);
  EXPECT_EQ(rt.FindBatch(5), nullptr);
  EXPECT_EQ(rt.BufferedTuples(), 10);
  EXPECT_EQ(rt.BufferedTuplesAfter(2), 4);
  rt.TrimOutputBuffer(2);
  EXPECT_EQ(rt.FindBatch(2), nullptr);
  EXPECT_NE(rt.FindBatch(3), nullptr);
  EXPECT_EQ(rt.BufferedTuples(), 4);
}

TEST(TaskRuntimeTest, ResetRegeneratesIdenticalTuples) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(2));
  std::vector<Tuple> original;
  for (int64_t b = 0; b < 3; ++b) {
    const BatchOutput& out = rt.RunBatch(b, {});
    original.insert(original.end(), out.tuples.begin(), out.tuples.end());
  }
  rt.Reset(0);
  EXPECT_EQ(rt.next_batch(), 0);
  EXPECT_EQ(rt.BufferedTuples(), 0);
  std::vector<Tuple> replayed;
  for (int64_t b = 0; b < 3; ++b) {
    const BatchOutput& out = rt.RunBatch(b, {});
    replayed.insert(replayed.end(), out.tuples.begin(), out.tuples.end());
  }
  ASSERT_EQ(original.size(), replayed.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i], replayed[i]);
  }
}

bool ByProducerSeq(const Tuple& a, const Tuple& b) {
  if (a.producer != b.producer) {
    return a.producer < b.producer;
  }
  return a.seq < b.seq;
}

/// RunBatch's gather order and duplicate elimination as a full sort and a
/// per-tuple progress lookup: the reference the in-place version matches.
std::vector<Tuple> ReferenceDedupe(std::vector<Tuple> inputs,
                                   std::map<TaskId, uint64_t>* progress) {
  std::sort(inputs.begin(), inputs.end(), ByProducerSeq);
  std::vector<Tuple> fresh;
  for (Tuple& t : inputs) {
    auto it = progress->find(t.producer);
    if (it != progress->end() && t.seq <= it->second) {
      continue;
    }
    (*progress)[t.producer] = t.seq;
    fresh.push_back(std::move(t));
  }
  return fresh;
}

TEST(TaskRuntimeTest, InPlaceDedupeMatchesSortAndPerTupleReference) {
  Topology topo = MakeTinyChain();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    TaskRuntime rt(&topo, topo.op(1).tasks[0],
                   std::make_unique<PassThroughOperator>(), nullptr);
    std::map<TaskId, uint64_t> ref_progress;
    std::map<TaskId, uint64_t> next_seq;
    std::vector<Tuple> history;
    for (int64_t b = 0; b < 12; ++b) {
      // Producers 2, 5 and 9 from the start; 7 (between them in order)
      // and 12 (after them) are first seen mid-run.
      std::vector<TaskId> producers = {2, 5, 9};
      if (b >= 3) {
        producers.push_back(7);
      }
      if (b >= 6) {
        producers.push_back(12);
      }
      std::vector<Tuple> inputs;
      for (TaskId p : producers) {
        const int64_t n = rng.NextInt(0, 6);
        for (int64_t i = 0; i < n; ++i) {
          Tuple t;
          t.key = "k" + std::to_string(rng.NextUint64(5));
          t.value = static_cast<int64_t>(rng.NextUint64(1000));
          t.batch = b;
          t.producer = p;
          t.seq = next_seq[p]++ * 3 + rng.NextUint64(3);
          inputs.push_back(t);
        }
      }
      // Replayed tuples of earlier batches (at or below the progress) and
      // exact duplicates within the gather.
      const int64_t replays = history.empty() ? 0 : rng.NextInt(0, 4);
      for (int64_t i = 0; i < replays; ++i) {
        inputs.push_back(history[rng.NextUint64(history.size())]);
      }
      const size_t originals = inputs.size();
      for (size_t i = 0; originals > 0 && i < 3; ++i) {
        inputs.push_back(inputs[rng.NextUint64(originals)]);
      }
      history.insert(history.end(), inputs.begin(), inputs.end());
      rng.Shuffle(&inputs);
      if (b % 4 == 3) {
        // Already in order: RunBatch skips the sort.
        std::sort(inputs.begin(), inputs.end(), ByProducerSeq);
      }
      const std::vector<Tuple> expected =
          ReferenceDedupe(inputs, &ref_progress);
      const BatchOutput& out = rt.RunBatch(b, inputs);
      ASSERT_EQ(out.tuples.size(), expected.size())
          << "seed " << seed << " batch " << b;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(out.tuples[i].key, expected[i].key);
        EXPECT_EQ(out.tuples[i].value, expected[i].value);
      }
      ASSERT_EQ(rt.progress_vector(), ref_progress)
          << "seed " << seed << " batch " << b;
    }
  }
}

int64_t RecountBuffered(const TaskRuntime& rt) {
  int64_t total = 0;
  for (const BatchOutput& b : rt.output_buffer()) {
    total += static_cast<int64_t>(b.tuples.size());
  }
  return total;
}

TEST(TaskRuntimeTest, BufferedTuplesCountFollowsEveryBufferChange) {
  Topology topo = MakeTinyChain();
  const TaskId mid = topo.op(1).tasks[0];
  auto make = [&] {
    return std::make_unique<TaskRuntime>(
        &topo, mid, std::make_unique<SlidingWindowAggregateOperator>(3, 1.0),
        nullptr);
  };
  auto run = [](TaskRuntime* rt, int64_t b, bool emit = true) {
    std::vector<Tuple> in;
    for (int64_t i = 0; i <= b % 3; ++i) {
      in.push_back(MakeTuples({{"x", b + i}}, 0, b)[0]);
      in.back().seq = (static_cast<uint64_t>(b) << 24) + i;
    }
    rt->RunBatch(b, std::move(in), emit);
  };
  auto a = make();
  for (int64_t b = 0; b < 4; ++b) {
    run(a.get(), b);
    EXPECT_EQ(a->BufferedTuples(), RecountBuffered(*a));
  }
  EXPECT_GT(a->BufferedTuples(), 0);
  auto base = a->Snapshot();
  ASSERT_TRUE(base.ok());
  run(a.get(), 4, /*emit=*/false);
  EXPECT_EQ(a->BufferedTuples(), RecountBuffered(*a));
  run(a.get(), 5);
  run(a.get(), 6);
  a->TrimOutputBuffer(1);
  EXPECT_EQ(a->BufferedTuples(), RecountBuffered(*a));
  auto delta = a->SnapshotDelta();
  ASSERT_TRUE(delta.ok());
  a->TrimOutputBuffer(5);
  EXPECT_EQ(a->BufferedTuples(), RecountBuffered(*a));

  auto b = make();
  run(b.get(), 0);
  ASSERT_TRUE(b->Restore(*base).ok());
  EXPECT_EQ(b->BufferedTuples(), RecountBuffered(*b));
  ASSERT_TRUE(b->ApplyDelta(delta->blob).ok());
  EXPECT_GT(b->BufferedTuples(), 0);
  EXPECT_EQ(b->BufferedTuples(), RecountBuffered(*b));
  b->Reset(7);
  EXPECT_EQ(b->BufferedTuples(), 0);
  EXPECT_EQ(b->BufferedTuples(), RecountBuffered(*b));
  run(b.get(), 7);
  EXPECT_EQ(b->BufferedTuples(), RecountBuffered(*b));
}

TEST(TaskRuntimeTest, FailureFlags) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(1));
  EXPECT_TRUE(rt.alive());
  EXPECT_FALSE(rt.ever_failed());
  rt.MarkFailed();
  EXPECT_FALSE(rt.alive());
  EXPECT_TRUE(rt.ever_failed());
  rt.MarkAlive();
  EXPECT_TRUE(rt.alive());
  EXPECT_TRUE(rt.ever_failed());
}

}  // namespace
}  // namespace ppa
