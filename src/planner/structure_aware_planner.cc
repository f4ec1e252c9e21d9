#include "planner/structure_aware_planner.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "fidelity/metrics.h"
#include "planner/decompose.h"
#include "planner/greedy_planner.h"
#include "planner/sub_planner.h"

namespace ppa {

StatusOr<ReplicationPlan> StructureAwarePlanner::Plan(
    const PlanRequest& request) {
  PPA_RETURN_IF_ERROR(ValidatePlanRequest(request));
  const Topology& topology = *request.topology;
  const int n = topology.num_tasks();
  const int budget = std::min(request.budget, n);

  PPA_ASSIGN_OR_RETURN(std::vector<SubTopology> subs,
                       DecomposeTopology(topology));

  // The global plan, shared by all sub-planners through their evaluators.
  // A candidate (global plan plus a few tasks) is scored incrementally: the
  // scorer holds the global plan's propagation and re-propagates only the
  // added tasks' downstream cone.
  TaskSet global_plan(n);
  IncrementalLossScorer scorer(topology, options_.metric);
  scorer.Reset(global_plan.Complement());
  std::vector<TaskId> global_add;
  auto evaluate_with = [&scorer, &global_add](
                           const std::vector<TaskId>& local_add,
                           const std::vector<TaskId>& local_to_global) {
    global_add.clear();
    for (TaskId local : local_add) {
      global_add.push_back(local_to_global[static_cast<size_t>(local)]);
    }
    return scorer.ScoreRevived(global_add);
  };

  std::vector<std::unique_ptr<SubTopologyPlanner>> planners;
  planners.reserve(subs.size());
  for (const SubTopology& sub : subs) {
    GlobalPlanEvaluator eval =
        [&evaluate_with, map = &sub.extracted.parent_task](
            const std::vector<TaskId>& local_add) {
          return evaluate_with(local_add, *map);
        };
    if (sub.is_full) {
      planners.push_back(std::make_unique<FullSubPlanner>(
          &sub.extracted.topo, std::move(eval)));
    } else {
      auto sp = std::make_unique<StructuredSubPlanner>(
          &sub.extracted.topo, std::move(eval), options_.mc_tree);
      PPA_RETURN_IF_ERROR(sp->Init());
      planners.push_back(std::move(sp));
    }
  }

  int usage = 0;
  auto commit = [&](size_t idx, const PlanStep& step) {
    usage += step.cost();
    for (TaskId local : step.add_tasks) {
      PPA_CHECK(global_plan.Add(
          subs[idx].extracted.parent_task[static_cast<size_t>(local)]));
    }
    scorer.Reset(global_plan.Complement());
    planners[idx]->Commit(step);
    for (auto& planner : planners) {
      planner->Refresh();
    }
  };

  // Phase 1 (Alg. 5 lines 5-10): every sub-topology gets its initial plan
  // unconditionally — a sub-topology in isolation may gain nothing until
  // its neighbours are covered, but the Full partitionings between
  // sub-topologies guarantee that one initial selection per sub-topology
  // composes into complete MC-trees. Committed in descending density so a
  // tight budget is spent on the most productive sub-topologies first.
  {
    std::vector<bool> done(planners.size(), false);
    for (;;) {
      int best_idx = -1;
      std::optional<PlanStep> best_step;
      double best_density = 0.0;
      for (size_t i = 0; i < planners.size(); ++i) {
        if (done[i] || !planners[i]->NeedsInitialStep()) {
          continue;
        }
        PPA_ASSIGN_OR_RETURN(std::optional<PlanStep> step,
                             planners[i]->ProposeStep(budget - usage));
        if (!step.has_value()) {
          done[i] = true;  // Cannot afford its initial step.
          continue;
        }
        const double density = planners[i]->StepDensity(*step);
        if (best_idx < 0 || density > best_density ||
            (density == best_density &&
             step->cost() < best_step->cost())) {
          best_idx = static_cast<int>(i);
          best_density = density;
          best_step = std::move(step);
        }
      }
      if (best_idx < 0) {
        break;
      }
      commit(static_cast<size_t>(best_idx), *best_step);
      done[static_cast<size_t>(best_idx)] = true;
    }
  }

  // Phase 2 (Alg. 5 lines 11-18): interleave expansion steps by profit
  // density — global metric gain per replicated task — until no planner
  // proposes a profitable affordable step.
  for (;;) {
    int best_idx = -1;
    std::optional<PlanStep> best_step;
    double best_density = 0.0;
    for (size_t i = 0; i < planners.size(); ++i) {
      PPA_ASSIGN_OR_RETURN(std::optional<PlanStep> step,
                           planners[i]->ProposeStep(budget - usage));
      if (!step.has_value()) {
        continue;
      }
      const double density = planners[i]->StepDensity(*step);
      if (density <= 0.0) {
        continue;
      }
      if (best_idx < 0 || density > best_density) {
        best_idx = static_cast<int>(i);
        best_density = density;
        best_step = std::move(step);
      }
    }
    if (best_idx < 0) {
      break;
    }
    commit(static_cast<size_t>(best_idx), *best_step);
    PPA_CHECK(usage <= budget);
  }

  ReplicationPlan plan;
  plan.replicated = global_plan;

  // Optional top-up: spend leftover budget on the individually most
  // damaging tasks (ranked as in Alg. 2); this never lowers the metric and
  // makes the consumed resources match the requested budget.
  if (options_.fill_budget && plan.replicated.size() < budget) {
    for (TaskId t : RankTasksByFailureDamage(topology)) {
      if (plan.replicated.size() >= budget) {
        break;
      }
      plan.replicated.Add(t);
    }
  }

  plan.output_fidelity = PlanOutputFidelity(topology, plan.replicated);
  return plan;
}

}  // namespace ppa
