#include "probes.h"

namespace perfbench {

void TimedOperator::ProcessBatch(ppa::BatchContext* ctx,
                                 const std::vector<ppa::Tuple>& inputs) {
  const size_t before = ctx->emitted().size();
  const Clock::time_point start = Clock::now();
  inner_->ProcessBatch(ctx, inputs);
  op_->process_s += SecondsSince(start);
  op_->tuples_in += static_cast<int64_t>(inputs.size());
  op_->tuples_out += static_cast<int64_t>(ctx->emitted().size() - before);
}

ppa::StatusOr<std::string> TimedOperator::SnapshotState() {
  const Clock::time_point start = Clock::now();
  ppa::StatusOr<std::string> blob = inner_->SnapshotState();
  state_->snapshot_s += SecondsSince(start);
  if (blob.ok()) {
    state_->snapshot_bytes += static_cast<int64_t>(blob->size());
    ++state_->checkpoints;
  }
  return blob;
}

ppa::StatusOr<std::string> TimedOperator::SnapshotDelta(
    int64_t* delta_tuples) {
  const Clock::time_point start = Clock::now();
  ppa::StatusOr<std::string> blob = inner_->SnapshotDelta(delta_tuples);
  state_->snapshot_s += SecondsSince(start);
  if (blob.ok()) {
    state_->snapshot_bytes += static_cast<int64_t>(blob->size());
    ++state_->checkpoints;
  }
  return blob;
}

ppa::Status TimedOperator::RestoreState(const std::string& snapshot) {
  const Clock::time_point start = Clock::now();
  ppa::Status status = inner_->RestoreState(snapshot);
  state_->restore_s += SecondsSince(start);
  state_->restore_bytes += static_cast<int64_t>(snapshot.size());
  return status;
}

ppa::Status TimedOperator::ApplyDelta(const std::string& delta) {
  const Clock::time_point start = Clock::now();
  ppa::Status status = inner_->ApplyDelta(delta);
  state_->restore_s += SecondsSince(start);
  state_->restore_bytes += static_cast<int64_t>(delta.size());
  return status;
}

std::vector<ppa::Tuple> TimedSource::NextBatch(int64_t batch_index,
                                               int task_index) {
  const Clock::time_point start = Clock::now();
  std::vector<ppa::Tuple> out = inner_->NextBatch(batch_index, task_index);
  probe_->next_batch_s += SecondsSince(start);
  probe_->tuples += static_cast<int64_t>(out.size());
  return out;
}

}  // namespace perfbench
