// Bench-owned timing for the traced run: decorators that wrap a
// workload's real operators and sources and time every call the engine
// makes into them. Nothing here is linked into an untraced drill.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/operator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// ProcessBatch time and tuple counts of one operator role.
struct OperatorProbe {
  double process_s = 0.0;
  int64_t tuples_in = 0;
  int64_t tuples_out = 0;
};

/// State encoding and decoding of every decorated operator: full and
/// delta snapshots, restores and delta applications.
struct StateProbe {
  double snapshot_s = 0.0;
  int64_t snapshot_bytes = 0;
  int64_t checkpoints = 0;
  double restore_s = 0.0;
  int64_t restore_bytes = 0;
};

/// NextBatch time and tuples of every decorated source.
struct SourceProbe {
  double next_batch_s = 0.0;
  int64_t tuples = 0;
};

/// Everything the decorators of one drill record. A job runs on a single
/// backend strand, so calls into one drill's decorators never overlap.
struct Probes {
  /// Operators fed directly by sources.
  OperatorProbe first;
  /// Every other non-source operator.
  OperatorProbe rest;
  StateProbe state;
  SourceProbe source;

  /// Wall time the engine spent inside decorated calls.
  double InsideSeconds() const {
    return first.process_s + rest.process_s + state.snapshot_s +
           state.restore_s + source.next_batch_s;
  }
};

/// Times an OperatorFunction's calls into `op_probe` and `state_probe`.
class TimedOperator : public ppa::OperatorFunction {
 public:
  TimedOperator(std::unique_ptr<ppa::OperatorFunction> inner,
                OperatorProbe* op_probe, StateProbe* state_probe)
      : inner_(std::move(inner)), op_(op_probe), state_(state_probe) {}

  void ProcessBatch(ppa::BatchContext* ctx,
                    const std::vector<ppa::Tuple>& inputs) override;
  ppa::StatusOr<std::string> SnapshotState() override;
  ppa::Status RestoreState(const std::string& snapshot) override;
  bool SupportsDeltaSnapshots() const override {
    return inner_->SupportsDeltaSnapshots();
  }
  ppa::StatusOr<std::string> SnapshotDelta(int64_t* delta_tuples) override;
  ppa::Status ApplyDelta(const std::string& delta) override;
  void Reset() override { inner_->Reset(); }
  int64_t StateSizeTuples() const override {
    return inner_->StateSizeTuples();
  }

 private:
  std::unique_ptr<ppa::OperatorFunction> inner_;
  OperatorProbe* op_;
  StateProbe* state_;
};

/// Times a SourceFunction's NextBatch calls into `probe`.
class TimedSource : public ppa::SourceFunction {
 public:
  TimedSource(std::unique_ptr<ppa::SourceFunction> inner, SourceProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::vector<ppa::Tuple> NextBatch(int64_t batch_index,
                                    int task_index) override;

 private:
  std::unique_ptr<ppa::SourceFunction> inner_;
  SourceProbe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
