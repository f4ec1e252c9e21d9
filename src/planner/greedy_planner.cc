#include "planner/greedy_planner.h"

#include <algorithm>
#include <vector>

#include "fidelity/metrics.h"

namespace ppa {

std::vector<TaskId> RankTasksByFailureDamage(const Topology& topology) {
  struct Scored {
    TaskId task;
    double of_when_failed;
  };
  // SingleFailureOutputFidelity of every task, scored incrementally
  // against the no-failure base.
  IncrementalLossScorer scorer(topology, LossModel::kOutputFidelity);
  scorer.Reset(TaskSet(topology.num_tasks()));
  std::vector<Scored> scores;
  scores.reserve(static_cast<size_t>(topology.num_tasks()));
  for (TaskId t = 0; t < topology.num_tasks(); ++t) {
    scores.push_back(Scored{t, scorer.ScoreFailed({&t, 1})});
  }
  // Ascending OF: the most damaging tasks first (Alg. 2 line 5).
  std::stable_sort(scores.begin(), scores.end(),
                   [](const Scored& a, const Scored& b) {
                     if (a.of_when_failed != b.of_when_failed) {
                       return a.of_when_failed < b.of_when_failed;
                     }
                     return a.task < b.task;
                   });
  std::vector<TaskId> ranked;
  ranked.reserve(scores.size());
  for (const Scored& s : scores) {
    ranked.push_back(s.task);
  }
  return ranked;
}

StatusOr<ReplicationPlan> GreedyPlanner::Plan(const PlanRequest& request) {
  PPA_RETURN_IF_ERROR(ValidatePlanRequest(request));
  const Topology& topology = *request.topology;
  const int n = topology.num_tasks();
  const int budget = std::min(request.budget, n);

  const std::vector<TaskId> ranked = RankTasksByFailureDamage(topology);
  ReplicationPlan plan;
  plan.replicated = TaskSet(n);
  for (int i = 0; i < budget; ++i) {
    plan.replicated.Add(ranked[static_cast<size_t>(i)]);
  }
  plan.output_fidelity = PlanOutputFidelity(topology, plan.replicated);
  return plan;
}

}  // namespace ppa
