#ifndef PPA_PLANNER_GREEDY_PLANNER_H_
#define PPA_PLANNER_GREEDY_PLANNER_H_

#include <vector>

#include "planner/planner.h"

namespace ppa {

/// Algorithm 2's ranking: every task of `topology`, most damaging first —
/// ascending output fidelity when only that task fails, ties on lower task
/// id.
[[nodiscard]] std::vector<TaskId> RankTasksByFailureDamage(
    const Topology& topology);

/// The structure-agnostic greedy baseline (Algorithm 2): every task is
/// scored by the output fidelity of the topology when only that task fails;
/// the R tasks whose individual failure hurts the most (lowest OF) are
/// replicated. Ties break on lower task id for determinism.
///
/// As the paper observes, this ignores whether the chosen tasks form
/// complete MC-trees, so with small budgets its worst-case plan fidelity is
/// often zero (Sec. IV-B, Fig. 13/14).
class GreedyPlanner : public Planner {
 public:
  std::string_view name() const override { return "greedy"; }

  /// Polynomial search; ignores `request.max_search_steps`.
  StatusOr<ReplicationPlan> Plan(const PlanRequest& request) override;
};

}  // namespace ppa

#endif  // PPA_PLANNER_GREEDY_PLANNER_H_
