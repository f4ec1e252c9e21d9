#ifndef PPA_FIDELITY_METRICS_H_
#define PPA_FIDELITY_METRICS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "topology/task_set.h"
#include "topology/topology.h"

namespace ppa {

/// Result of propagating information loss through a topology for a given
/// failure set (Sec. III-A1).
struct InfoLossResult {
  /// Per-task output-stream information loss IL^out in [0, 1]; failed tasks
  /// have loss 1.
  std::vector<double> output_loss;
  /// Output fidelity of the topology (Eq. 4): the rate-weighted complement
  /// of the sink tasks' output loss.
  double output_fidelity = 1.0;
};

/// Controls how multi-stream inputs are combined during loss propagation.
enum class LossModel {
  /// The paper's OF model: honor each operator's InputCorrelation —
  /// correlated-input operators combine losses multiplicatively (Eq. 2),
  /// independent-input operators rate-average them (Eq. 3).
  kOutputFidelity,
  /// The Internal Completeness baseline of [Bellavista et al., EDBT'14] as
  /// characterized in Sec. VI-B: identical propagation except that stream
  /// correlation is ignored — every operator is treated as
  /// independent-input.
  kInternalCompleteness,
};

/// Propagates information loss through `topology` assuming every task in
/// `failed` produces no output, and returns per-task losses plus the output
/// fidelity. Rates are the topology's derived no-failure rates. `failed`
/// must be a set over exactly the topology's tasks (checked).
[[nodiscard]] InfoLossResult PropagateInfoLoss(
    const Topology& topology, const TaskSet& failed,
    LossModel model = LossModel::kOutputFidelity);

/// Exact incremental scoring of small changes to a failure set — the
/// structure-aware planner's inner loop, which scores thousands of
/// candidate plans that each differ from the current plan by a few tasks.
///
/// Reset() runs one full propagation and keeps its per-task losses as the
/// base. ScoreRevived()/ScoreFailed() then override the failed state of a
/// few tasks, re-propagate only the downstream cone of those tasks in
/// topological order (a task whose recomputed loss is bit-equal to its base
/// loss does not propagate further), recompute Eq. 4 over the sink tasks,
/// and restore the base. Every task loss comes from the same per-task
/// kernel PropagateInfoLoss uses, fed the same inputs in the same order, so
/// a score is bit-identical to a full PropagateInfoLoss of the changed set.
class IncrementalLossScorer {
 public:
  /// `topology` must outlive the scorer. Call Reset() before scoring.
  IncrementalLossScorer(const Topology& topology, LossModel model);

  /// Makes `failed` the base failure set (one full propagation).
  void Reset(const TaskSet& failed);

  /// The base propagation of the last Reset().
  [[nodiscard]] const InfoLossResult& base() const { return base_; }

  /// Output fidelity with every task of `tasks` alive (failure set
  /// base \ tasks). Duplicates and already-alive tasks are allowed.
  [[nodiscard]] double ScoreRevived(std::span<const TaskId> tasks) {
    return Score(tasks, /*failed=*/false);
  }
  /// Output fidelity with every task of `tasks` failed (failure set
  /// base ∪ tasks). Duplicates and already-failed tasks are allowed.
  [[nodiscard]] double ScoreFailed(std::span<const TaskId> tasks) {
    return Score(tasks, /*failed=*/true);
  }

 private:
  double Score(std::span<const TaskId> tasks, bool failed);

  const Topology& topology_;
  LossModel model_;
  /// Base failure state and losses; losses are patched during Score() and
  /// restored from undo_ before it returns.
  TaskSet failed_;
  InfoLossResult base_;
  /// Tasks in topological order and each task's position in it.
  std::vector<TaskId> order_;
  std::vector<int> rank_;
  /// Score() scratch: overridden tasks, queued cone positions (a min-heap),
  /// and the (task, base loss) pairs to restore.
  std::vector<uint8_t> overridden_;
  std::vector<uint8_t> queued_;
  std::vector<int> heap_;
  std::vector<std::pair<TaskId, double>> undo_;
};

/// Output Fidelity (Eq. 4) under failure set `failed`.
[[nodiscard]] double ComputeOutputFidelity(const Topology& topology,
                                           const TaskSet& failed);

/// Internal Completeness baseline under failure set `failed`.
[[nodiscard]] double ComputeInternalCompleteness(const Topology& topology,
                                                 const TaskSet& failed);

/// The planning objective of Definition 2 (worst-case correlated failure):
/// the output fidelity of the partial topology formed by the actively
/// replicated tasks, i.e. OF with failure set M \ `replicated`.
[[nodiscard]] double PlanOutputFidelity(const Topology& topology,
                                        const TaskSet& replicated);

/// Same objective under the IC metric (used for Fig. 12's comparison).
[[nodiscard]] double PlanInternalCompleteness(const Topology& topology,
                                              const TaskSet& replicated);

/// Output fidelity when only `task` fails (the greedy planner's ranking
/// criterion, Alg. 2).
[[nodiscard]] double SingleFailureOutputFidelity(const Topology& topology,
                                                 TaskId task);

/// A copy of `topology` in which every operator is treated as
/// independent-input. Because IC is exactly OF computed without stream
/// correlation, running any OF-maximizing planner on the blind copy yields
/// an IC-maximizing plan for the original topology (used to reproduce the
/// OF-vs-IC comparison of Fig. 12).
StatusOr<Topology> MakeCorrelationBlindCopy(const Topology& topology);

}  // namespace ppa

#endif  // PPA_FIDELITY_METRICS_H_
