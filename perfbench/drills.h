// The benchmark's workloads: each is a failure drill (a failure-free
// phase, a node or domain failure, recovery) driven only through the
// library's public API, and checked against a failure-free golden twin.
#ifndef PERFBENCH_DRILLS_H_
#define PERFBENCH_DRILLS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "backend/execution_backend.h"
#include "common/status_or.h"
#include "engine/operator.h"
#include "inputs.h"
#include "probes.h"
#include "runtime/config.h"
#include "runtime/streaming_job.h"
#include "topology/task_set.h"
#include "topology/topology.h"

namespace perfbench {

/// The seed whose golden-twin digests are recorded in drills.cc.
inline constexpr uint64_t kDefaultSeed = 1;

/// Full size is the measured benchmark; tiny runs every workload in
/// seconds for the self-test.
enum class Size { kFull, kTiny };

/// What a drill kills once the failure-free phase is over.
struct FailurePlan {
  /// InjectNodeFailure on each of these nodes.
  std::vector<int> nodes;
  /// InjectDomainFailure on this domain when >= 0.
  int domain = -1;
  /// InjectCorrelatedFailure(include_sources = true).
  bool all_primaries = false;
};

/// A workload's topology, its non-source operators, and how the job is
/// placed and failed.
struct BuiltWorkload {
  ppa::Topology topo;
  std::map<ppa::OperatorId, ppa::OperatorFactory> operators;
  /// Pins placement and failure domains on the constructed job and names
  /// what the drill kills.
  std::function<ppa::StatusOr<FailurePlan>(ppa::StreamingJob*)> place;
};

struct WorkloadSpec {
  std::string name;
  ppa::backend::BackendKind backend = ppa::backend::BackendKind::kSim;
  ppa::JobConfig config;
  /// Simulated seconds of the failure-free phase; the failure is injected
  /// at its end.
  double fail_at_s = 0.0;
  /// The fixed simulated interval after the failure that failover_s
  /// times: detection, restore, replay, tentative output and catch-up.
  double failover_s = 0.0;
  /// Untimed simulated tail that carries the run past the window of
  /// stable batches the failure may legitimately perturb, so stable
  /// output after recovery is compared too.
  double settle_s = 0.0;
  /// Window length of the workload's operators (sizes the guard window).
  int64_t window_batches = 0;
  std::function<SourceInputs(uint64_t seed, int64_t batches)> make_inputs;
  /// Builds the topology and operators only; input generation is apart.
  std::function<ppa::StatusOr<BuiltWorkload>()> build;
  /// Replication budget handed to the structure-aware planner.
  std::function<int(const ppa::Topology&)> budget;
  /// Golden-twin output digest at kDefaultSeed and full size.
  uint64_t golden_digest = 0;

  double end_s() const { return fail_at_s + failover_s + settle_s; }
  /// Batches the sources must be able to replay.
  int64_t input_batches() const;
};

/// The named workload at `size`; nullopt for an unknown name.
std::optional<WorkloadSpec> FindWorkload(const std::string& name, Size size);

/// One sink batch: its (key, value) pairs in sorted order.
struct SinkBatch {
  bool tentative = false;
  std::vector<std::pair<std::string, int64_t>> tuples;
};
/// Sink output keyed by (sink task, batch).
using SinkOutput = std::map<std::pair<ppa::TaskId, int64_t>, SinkBatch>;

/// Digest of a sink output: batches in (task, batch) order, each batch's
/// tuples sorted, so it does not depend on emission order within a batch.
uint64_t DigestOutput(const SinkOutput& output);

struct DrillOptions {
  bool inject_failure = true;
  bool observability = true;
  /// Replicate this set instead of planning; setup then has no Plan.
  const ppa::TaskSet* plan = nullptr;
  /// Wraps every operator and source in timing decorators.
  Probes* probes = nullptr;
  /// Keep sink records of batches >= this (accuracy reference).
  int64_t keep_records_from = -1;
  /// Drive the settle tail after the failover interval.
  bool settle = true;
};

/// What one drill measured and produced.
struct DrillRun {
  // Wall seconds of each public call the drill makes.
  double build_s = 0.0;
  double plan_s = 0.0;
  double job_s = 0.0;
  double start_s = 0.0;
  double steady_s = 0.0;
  double inject_s = 0.0;
  double failover_s = 0.0;
  /// The settle tail after the failover interval (0 when not driven).
  double settle_s = 0.0;
  bool settled = false;
  /// The batch the failure hit (the frontier when it was injected).
  int64_t failure_batch = 0;
  double drive_s() const { return steady_s + inject_s + failover_s + settle_s; }
  double setup_s() const { return build_s + plan_s + job_s + start_s; }

  int64_t steady_tuples = 0;
  ppa::TaskSet replicated;
  double predicted_of = 0.0;

  SinkOutput output;
  std::vector<ppa::SinkRecord> kept_records;
  /// Sink batches emitted tentatively or while some task was failed or
  /// catching up. Stable batches up to `guard` after one of them may
  /// still differ from the golden twin: recovered windows hold degraded
  /// input for a window length per operator level.
  std::set<int64_t> degraded;
  int64_t guard = 0;
  int64_t sink_records = 0;
  double sink_latency_mean_s = 0.0;
  double sink_latency_p50_s = 0.0;
  double sink_latency_p99_s = 0.0;

  double recovery_latency_s = 0.0;
  bool all_recovered = false;
  int64_t checkpoint_bytes = 0;
  int64_t store_bytes = 0;
  int64_t peak_buffered_tuples = 0;
  int64_t batch_ticks = 0;
  int64_t events = 0;
  int64_t trace_events = 0;
  int64_t tuples_processed = 0;
  int64_t replica_tuples_processed = 0;
  int64_t batches_processed = 0;
};

/// A backend of `kind`; a threaded one keeps its threads within the
/// machine's core count.
std::unique_ptr<ppa::backend::ExecutionBackend> MakeBenchBackend(
    ppa::backend::BackendKind kind);

ppa::StatusOr<DrillRun> RunDrill(const WorkloadSpec& spec,
                                 const SourceInputs& inputs,
                                 const DrillOptions& options);

/// The stable-output check against the golden twin.
struct CheckResult {
  /// Sink batches compared.
  int64_t attempted = 0;
  /// Compared batches whose stable output differs from (or is absent in)
  /// the golden twin.
  int64_t failed = 0;
  /// Tentative sink batches (not compared; they feed accuracy).
  int64_t tentative = 0;
  /// Compared batches after the failure batch: zero means the drill
  /// ended before recovered output could be compared.
  int64_t attempted_after_failure = 0;
  /// First tentative batch, or -1 when none was emitted.
  int64_t tentative_from = -1;
  int64_t tentative_to = -1;
  std::string first_mismatch;
};

/// Compares `run`'s sink output with the golden twin's. Batches within
/// the guard after a degraded batch are skipped; a run that was not
/// settled is compared only up to the last batch each sink delivered.
CheckResult CheckAgainstGolden(const DrillRun& run, const DrillRun& golden);

/// Counts `run`'s sink batches (tentative ones too) that differ from the
/// same batch of `reference`, a run of the same drill and inputs: two
/// drills must agree batch for batch.
int64_t CountDifferences(const DrillRun& run, const DrillRun& reference);

/// Per-batch key-set accuracy of the run's tentative output against the
/// golden twin over the tentative window (1.0 without tentative output).
double TentativeAccuracy(const DrillRun& run, const DrillRun& golden,
                         const CheckResult& check);

}  // namespace perfbench

#endif  // PERFBENCH_DRILLS_H_
