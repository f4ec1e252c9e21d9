#include "fidelity/mc_tree.h"

#include <algorithm>
#include <optional>

namespace ppa {
namespace {

/// Sorts and removes duplicate task sets.
void Dedupe(std::vector<TaskSet>* trees) {
  std::sort(trees->begin(), trees->end());
  trees->erase(std::unique(trees->begin(), trees->end()), trees->end());
}

class Enumerator {
 public:
  Enumerator(const Topology& topology, const McTreeEnumOptions& options)
      : topology_(topology),
        options_(options),
        memo_(static_cast<size_t>(topology.num_tasks())) {}

  /// The MC-(sub)trees whose sink vertex is `t`.
  StatusOr<const std::vector<TaskSet>*> TreesFor(TaskId t) {
    auto& slot = memo_[static_cast<size_t>(t)];
    if (slot.has_value()) {
      return &*slot;
    }
    const TaskInfo& ti = topology_.task(t);
    const OperatorInfo& oi = topology_.op(ti.op);
    std::vector<TaskSet> trees;
    if (oi.upstream.empty()) {
      TaskSet self(topology_.num_tasks());
      self.Add(t);
      trees.push_back(std::move(self));
    } else {
      // Group incoming substreams by input stream (upstream operator).
      std::vector<std::vector<TaskId>> stream_sources;
      for (const InEdge& e : topology_.in_edges(t)) {
        if (static_cast<size_t>(e.stream) == stream_sources.size()) {
          stream_sources.emplace_back();
        }
        stream_sources[static_cast<size_t>(e.stream)].push_back(e.from);
      }

      if (oi.correlation == InputCorrelation::kIndependent) {
        // One upstream path (from any stream) suffices for the task to
        // contribute output.
        for (const auto& sources : stream_sources) {
          for (TaskId up : sources) {
            PPA_ASSIGN_OR_RETURN(const std::vector<TaskSet>* up_trees,
                                 TreesFor(up));
            for (const TaskSet& tree : *up_trees) {
              TaskSet extended = tree;
              extended.Add(t);
              trees.push_back(std::move(extended));
              if (trees.size() > options_.max_trees) {
                return ResourceExhausted("MC-tree enumeration exceeded limit");
              }
            }
          }
        }
      } else {
        // Join: one upstream path per input stream (cross product).
        // Per-stream options first.
        std::vector<std::vector<TaskSet>> per_stream;
        per_stream.reserve(stream_sources.size());
        for (const auto& sources : stream_sources) {
          std::vector<TaskSet> opts;
          for (TaskId up : sources) {
            PPA_ASSIGN_OR_RETURN(const std::vector<TaskSet>* up_trees,
                                 TreesFor(up));
            opts.insert(opts.end(), up_trees->begin(), up_trees->end());
            if (opts.size() > options_.max_trees) {
              return ResourceExhausted("MC-tree enumeration exceeded limit");
            }
          }
          Dedupe(&opts);
          per_stream.push_back(std::move(opts));
        }
        // Cross product.
        TaskSet seed(topology_.num_tasks());
        seed.Add(t);
        trees.push_back(std::move(seed));
        for (const auto& opts : per_stream) {
          std::vector<TaskSet> next;
          next.reserve(trees.size() * opts.size());
          for (const TaskSet& partial : trees) {
            for (const TaskSet& opt : opts) {
              TaskSet merged = partial;
              merged.UnionWith(opt);
              next.push_back(std::move(merged));
              if (next.size() > options_.max_trees) {
                return ResourceExhausted("MC-tree enumeration exceeded limit");
              }
            }
          }
          trees = std::move(next);
        }
      }
    }
    Dedupe(&trees);
    if (trees.size() > options_.max_trees) {
      return ResourceExhausted("MC-tree enumeration exceeded limit");
    }
    slot = std::move(trees);
    return &*slot;
  }

 private:
  const Topology& topology_;
  const McTreeEnumOptions& options_;
  std::vector<std::optional<std::vector<TaskSet>>> memo_;
};

}  // namespace

StatusOr<std::vector<TaskSet>> EnumerateMcTreesForSink(
    const Topology& topology, TaskId sink_task,
    const McTreeEnumOptions& options) {
  if (sink_task < 0 || sink_task >= topology.num_tasks()) {
    return InvalidArgument("bad sink task id");
  }
  if (!topology.IsSinkTask(sink_task)) {
    return InvalidArgument("task is not a sink task");
  }
  Enumerator enumerator(topology, options);
  PPA_ASSIGN_OR_RETURN(const std::vector<TaskSet>* trees,
                       enumerator.TreesFor(sink_task));
  return *trees;
}

StatusOr<std::vector<TaskSet>> EnumerateMcTrees(
    const Topology& topology, const McTreeEnumOptions& options) {
  Enumerator enumerator(topology, options);
  std::vector<TaskSet> all;
  for (OperatorId sink : topology.sink_operators()) {
    for (TaskId t : topology.op(sink).tasks) {
      PPA_ASSIGN_OR_RETURN(const std::vector<TaskSet>* trees,
                           enumerator.TreesFor(t));
      all.insert(all.end(), trees->begin(), trees->end());
      if (all.size() > options.max_trees) {
        return ResourceExhausted("MC-tree enumeration exceeded limit");
      }
    }
  }
  Dedupe(&all);
  return all;
}

}  // namespace ppa
