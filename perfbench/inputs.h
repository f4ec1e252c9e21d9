// Seeded source inputs, generated before any timing and replayed by a
// deterministic-per-(task, batch) source.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/operator.h"

namespace perfbench {

/// Every tuple every source task emits in a drill, indexed
/// [task_index][batch]. Keys are interned in `keys`, so the table stays
/// small and replaying a tuple copies a short key instead of formatting
/// or sampling one.
struct SourceInputs {
  struct Item {
    uint32_t key = 0;
    int32_t value = 0;
  };
  std::vector<std::string> keys;
  std::vector<std::vector<std::vector<Item>>> batches;

  int num_tasks() const { return static_cast<int>(batches.size()); }
  int64_t num_batches() const {
    return batches.empty() ? 0 : static_cast<int64_t>(batches[0].size());
  }
  /// Tuples all tasks emit in batches [0, last_batch].
  int64_t TuplesThrough(int64_t last_batch) const;
};

/// Uniform keys "k0".."k<key_space-1>" with values in [0, 1000), the
/// shape of the synthetic recovery workload's source.
SourceInputs MakeUniformInputs(int tasks, int64_t batches, int64_t per_batch,
                               int key_space, uint64_t seed);

/// Zipf-popular URLs "url0".."url<population-1>" with value 1, the shape
/// of Q1's access-log source.
SourceInputs MakeZipfInputs(int tasks, int64_t batches, int64_t per_batch,
                            int population, double zipf_s, uint64_t seed);

/// Replays a SourceInputs table: batch b of task i is always the same
/// tuples, so source-replay recovery regenerates past batches exactly.
/// The table must outlive the source.
class ReplaySource : public ppa::SourceFunction {
 public:
  explicit ReplaySource(const SourceInputs* inputs) : inputs_(inputs) {}

  std::vector<ppa::Tuple> NextBatch(int64_t batch_index,
                                    int task_index) override;

 private:
  const SourceInputs* inputs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
