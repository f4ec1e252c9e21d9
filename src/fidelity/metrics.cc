#include "fidelity/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>

namespace ppa {

namespace {

/// Eqs. 1-3: the output-stream loss of task `t` given `loss`, the current
/// losses of (at least) every task upstream of it. The one implementation
/// of the per-task formula: PropagateInfoLoss and IncrementalLossScorer
/// both call it, so equal inputs give bit-equal losses.
double TaskLoss(const Topology& topology, TaskId t, bool failed,
                LossModel model, const std::vector<double>& loss) {
  if (failed) {
    return 1.0;
  }
  const TaskInfo& ti = topology.task(t);
  const OperatorInfo& oi = topology.op(ti.op);
  if (oi.upstream.empty()) {
    return 0.0;
  }
  // A task's in-edges come one input stream after another (see
  // Topology::in_edges), so each stream's Eq. 1 sums are one run of edges,
  // added up in registers and folded into Eq. 2 or 3 as the run ends.
  const bool correlated = model == LossModel::kOutputFidelity &&
                          oi.correlation == InputCorrelation::kCorrelated;
  double survive = 1.0;
  double rate_total = 0.0;
  double loss_total = 0.0;
  const std::span<const InEdge> in = topology.in_edges(t);
  for (size_t i = 0; i < in.size();) {
    const int stream = in[i].stream;
    double rate_sum = 0.0;
    double weighted_loss = 0.0;
    for (; i < in.size() && in[i].stream == stream; ++i) {
      rate_sum += in[i].rate;
      weighted_loss += in[i].rate * loss[static_cast<size_t>(in[i].from)];
    }
    if (correlated) {
      // Eq. 2: effective input is the product of the streams; the output
      // survives only on the surviving fraction of every stream.
      const double stream_loss = rate_sum > 0 ? weighted_loss / rate_sum : 0.0;
      survive *= (1.0 - stream_loss);
    } else {
      // Eq. 3: effective input is the union of the streams.
      rate_total += rate_sum;
      loss_total += weighted_loss;
    }
  }
  const double out_loss =
      correlated ? 1.0 - survive
                 : (rate_total > 0 ? loss_total / rate_total : 0.0);
  return std::clamp(out_loss, 0.0, 1.0);
}

/// Eq. 4 over all tasks of all output operators.
double OutputFidelity(const Topology& topology,
                      const std::vector<double>& loss) {
  double rate_sum = 0.0;
  double weighted_loss = 0.0;
  for (OperatorId sink : topology.sink_operators()) {
    for (TaskId t : topology.op(sink).tasks) {
      const double rate = topology.task(t).output_rate;
      rate_sum += rate;
      weighted_loss += rate * loss[static_cast<size_t>(t)];
    }
  }
  const double fidelity = rate_sum > 0 ? 1.0 - weighted_loss / rate_sum : 1.0;
  return std::clamp(fidelity, 0.0, 1.0);
}

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

InfoLossResult PropagateInfoLoss(const Topology& topology,
                                 const TaskSet& failed, LossModel model) {
  PPA_CHECK(failed.universe_size() == topology.num_tasks())
      << "failure set over " << failed.universe_size() << " tasks, topology has "
      << topology.num_tasks();
  InfoLossResult result;
  result.output_loss.assign(static_cast<size_t>(topology.num_tasks()), 0.0);
  for (OperatorId op_id : topology.topo_order()) {
    for (TaskId t : topology.op(op_id).tasks) {
      result.output_loss[static_cast<size_t>(t)] =
          TaskLoss(topology, t, failed.Contains(t), model, result.output_loss);
    }
  }
  result.output_fidelity = OutputFidelity(topology, result.output_loss);
  return result;
}

IncrementalLossScorer::IncrementalLossScorer(const Topology& topology,
                                             LossModel model)
    : topology_(topology),
      model_(model),
      rank_(static_cast<size_t>(topology.num_tasks())),
      overridden_(static_cast<size_t>(topology.num_tasks()), 0),
      queued_(static_cast<size_t>(topology.num_tasks()), 0) {
  order_.reserve(static_cast<size_t>(topology.num_tasks()));
  for (OperatorId op_id : topology.topo_order()) {
    for (TaskId t : topology.op(op_id).tasks) {
      rank_[static_cast<size_t>(t)] = static_cast<int>(order_.size());
      order_.push_back(t);
    }
  }
}

void IncrementalLossScorer::Reset(const TaskSet& failed) {
  PPA_CHECK(failed.universe_size() == topology_.num_tasks())
      << "failure set over " << failed.universe_size() << " tasks, topology has "
      << topology_.num_tasks();
  base_ = PropagateInfoLoss(topology_, failed, model_);
  failed_ = failed;
}

double IncrementalLossScorer::Score(std::span<const TaskId> tasks,
                                    bool failed) {
  PPA_CHECK(failed_.universe_size() == topology_.num_tasks())
      << "Score before Reset";
  auto push = [this](TaskId t) {
    uint8_t& queued = queued_[static_cast<size_t>(t)];
    if (!queued) {
      queued = 1;
      heap_.push_back(rank_[static_cast<size_t>(t)]);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
  };
  for (TaskId t : tasks) {
    PPA_CHECK(t >= 0 && t < topology_.num_tasks());
    overridden_[static_cast<size_t>(t)] = 1;
    push(t);
  }
  // Re-propagate the cone in topological order: every upstream task of a
  // popped task is final by then, so its recomputed loss is the one a full
  // propagation would produce.
  std::vector<double>& loss = base_.output_loss;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const TaskId t = order_[static_cast<size_t>(heap_.back())];
    heap_.pop_back();
    queued_[static_cast<size_t>(t)] = 0;
    const bool t_failed =
        overridden_[static_cast<size_t>(t)] ? failed : failed_.Contains(t);
    const double updated = TaskLoss(topology_, t, t_failed, model_, loss);
    double& current = loss[static_cast<size_t>(t)];
    if (BitEqual(updated, current)) {
      continue;  // Downstream inputs are unchanged: the cone stops here.
    }
    undo_.emplace_back(t, current);
    current = updated;
    for (int si : topology_.task(t).out_substreams) {
      push(topology_.substreams()[static_cast<size_t>(si)].to);
    }
  }
  const double fidelity =
      undo_.empty() ? base_.output_fidelity : OutputFidelity(topology_, loss);
  // Restore the base.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    loss[static_cast<size_t>(it->first)] = it->second;
  }
  undo_.clear();
  for (TaskId t : tasks) {
    overridden_[static_cast<size_t>(t)] = 0;
  }
  return fidelity;
}

double ComputeOutputFidelity(const Topology& topology, const TaskSet& failed) {
  return PropagateInfoLoss(topology, failed, LossModel::kOutputFidelity)
      .output_fidelity;
}

double ComputeInternalCompleteness(const Topology& topology,
                                   const TaskSet& failed) {
  return PropagateInfoLoss(topology, failed, LossModel::kInternalCompleteness)
      .output_fidelity;
}

double PlanOutputFidelity(const Topology& topology,
                          const TaskSet& replicated) {
  return ComputeOutputFidelity(topology, replicated.Complement());
}

double PlanInternalCompleteness(const Topology& topology,
                                const TaskSet& replicated) {
  return ComputeInternalCompleteness(topology, replicated.Complement());
}

double SingleFailureOutputFidelity(const Topology& topology, TaskId task) {
  TaskSet failed(topology.num_tasks());
  failed.Add(task);
  return ComputeOutputFidelity(topology, failed);
}

StatusOr<Topology> MakeCorrelationBlindCopy(const Topology& topology) {
  TopologyBuilder builder;
  for (const OperatorInfo& oi : topology.operators()) {
    builder.AddOperator(oi.name, oi.parallelism,
                        InputCorrelation::kIndependent, oi.selectivity);
    for (int k = 0; k < oi.parallelism; ++k) {
      builder.SetTaskWeight(oi.id, k,
                            topology.task(oi.tasks[static_cast<size_t>(k)])
                                .weight);
    }
  }
  for (const StreamEdge& e : topology.edges()) {
    builder.Connect(e.from, e.to, e.scheme);
  }
  for (OperatorId src : topology.source_operators()) {
    double total = 0.0;
    for (TaskId t : topology.op(src).tasks) {
      total += topology.task(t).output_rate;
    }
    builder.SetSourceRate(src, total);
  }
  return builder.Build();
}

}  // namespace ppa
