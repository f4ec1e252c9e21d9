// Ablation A2: delta checkpoints (Hwang et al., cited Sec. VII) vs full
// checkpoints on the Fig. 6 workload. Deltas make short checkpoint
// intervals affordable — the knob Fig. 9 shows to be prohibitively
// expensive with full snapshots — at the price of a longer state-load
// chain during recovery.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/driver.h"

namespace {

using namespace ppa;

struct CellResult {
  double cpu_ratio = 0.0;
  double recovery_seconds = 0.0;
  JsonValue metrics;
  JsonValue chrome_trace;
};

CellResult RunOne(int interval_seconds, bool delta, bool want_obs) {
  auto workload = MakeSyntheticRecoveryWorkload(1000.0, 30);
  PPA_CHECK_OK(workload.status());
  auto be = backend::MakeBackend(backend::BackendKind::kSim);
  JobConfig config = bench::PaperJobConfig(FtMode::kCheckpoint);
  config.checkpoint_interval = Duration::Seconds(interval_seconds);
  config.delta_checkpoints = delta;
  config.max_delta_chain = 8;
  StreamingJob job(workload->topo, config, JobRuntimeDeps(be.get()));
  PPA_CHECK_OK(BindSyntheticRecoveryWorkload(*workload, &job));
  auto nodes = PlaceSyntheticRecoveryWorkload(*workload, &job);
  PPA_CHECK_OK(nodes.status());
  PPA_CHECK_OK(job.Start());
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(40.4));
  PPA_CHECK_OK(job.InjectNodeFailure((*nodes)[4]));
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(70));

  CellResult cell;
  PPA_CHECK(job.recovery_reports().size() == 1);
  cell.recovery_seconds = job.recovery_reports()[0].TotalLatency().seconds();
  cell.cpu_ratio = bench::CheckpointCpuRatio(job, *workload);
  if (want_obs) {
    cell.metrics = obs::MetricsToJson(job.metrics());
    cell.chrome_trace = bench::JobChromeTrace(job);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);

  const int intervals[] = {1, 5, 15};
  const bool want_obs =
      driver.metrics().enabled() || driver.traces().enabled();
  // Cell i: interval i/2; even = full checkpoints, odd = delta.
  std::vector<CellResult> results = driver.Map<CellResult>(
      6, [&intervals, want_obs](int i) {
        return RunOne(intervals[i / 2], (i % 2) == 1, want_obs);
      });

  std::printf(
      "Ablation A2: full vs delta checkpoints, window 30 s, 1000 "
      "tuples/s\n");
  std::printf("%-10s %12s %12s %14s %14s\n", "interval", "full ratio",
              "delta ratio", "full rec (s)", "delta rec (s)");
  for (size_t i = 0; i < std::size(intervals); ++i) {
    CellResult& full = results[i * 2];
    CellResult& delta = results[i * 2 + 1];
    for (CellResult* cell : {&full, &delta}) {
      char label[64];
      std::snprintf(label, sizeof(label), "%s/cp%ds",
                    cell == &delta ? "delta" : "full", intervals[i]);
      driver.metrics().Add(label, std::move(cell->metrics));
      driver.traces().Capture(std::move(cell->chrome_trace));
    }
    std::printf("%-10d %12.3f %12.3f %14.2f %14.2f\n", intervals[i],
                full.cpu_ratio, delta.cpu_ratio, full.recovery_seconds,
                delta.recovery_seconds);
  }
  std::printf(
      "\nExpected: delta checkpointing slashes the CPU ratio (it only "
      "serializes the\nwindow's fresh slices), making 1-second intervals "
      "practical; recovery latency\nstays comparable (shorter replay, "
      "slightly larger state-load chain).\n");
  return driver.Finish("abl_delta_checkpoint");
}
