// Ablation A3: effect of the batch interval on recovery latency and
// checkpoint cost. The paper adopts batch processing for deterministic
// replay (Sec. V-B, citing Das et al. for batch sizing); this ablation
// shows the trade-off our engine inherits: shorter batches detect and
// bound loss at finer granularity but do not change replay volume, while
// the checkpoint-cost ratio is insensitive to batching.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "bench/driver.h"

namespace {

using namespace ppa;

struct CellResult {
  double recovery_seconds = 0.0;
  double cpu_ratio = 0.0;
  JsonValue metrics;
  JsonValue chrome_trace;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);

  const double batch_intervals[] = {0.25, 0.5, 1.0, 2.0};
  const bool want_obs =
      driver.metrics().enabled() || driver.traces().enabled();
  std::vector<CellResult> results = driver.Map<CellResult>(
      static_cast<int>(std::size(batch_intervals)),
      [&batch_intervals, want_obs](int i) {
        const double batch_seconds = batch_intervals[i];
        // A single-node failure on the Fig. 6 workload, checkpoint mode.
        auto workload = MakeSyntheticRecoveryWorkload(
            /*rate_per_source_task=*/1000.0,
            /*window_batches=*/static_cast<int64_t>(10.0 / batch_seconds));
        PPA_CHECK_OK(workload.status());
        auto be = backend::MakeBackend(backend::BackendKind::kSim);
        JobConfig config = bench::PaperJobConfig(FtMode::kCheckpoint);
        config.batch_interval = Duration::Seconds(batch_seconds);
        config.checkpoint_interval = Duration::Seconds(15);
        StreamingJob job(workload->topo, config, JobRuntimeDeps(be.get()));
        PPA_CHECK_OK(BindSyntheticRecoveryWorkload(*workload, &job));
        auto nodes = PlaceSyntheticRecoveryWorkload(*workload, &job);
        PPA_CHECK_OK(nodes.status());
        PPA_CHECK_OK(job.Start());
        be->RunUntil(TimePoint::Zero() + Duration::Seconds(40.4));
        PPA_CHECK_OK(job.InjectNodeFailure((*nodes)[4]));
        be->RunUntil(TimePoint::Zero() + Duration::Seconds(70));
        PPA_CHECK(job.recovery_reports().size() == 1);
        CellResult cell;
        cell.recovery_seconds =
            job.recovery_reports()[0].TotalLatency().seconds();
        cell.cpu_ratio = bench::CheckpointCpuRatio(job, *workload);
        if (want_obs) {
          cell.metrics = obs::MetricsToJson(job.metrics());
          cell.chrome_trace = bench::JobChromeTrace(job);
        }
        return cell;
      });

  std::printf(
      "Ablation A3: batch interval vs recovery latency / checkpoint cost\n");
  std::printf("%-16s %16s %16s\n", "batch interval", "recovery (s)",
              "cp CPU ratio");
  for (size_t i = 0; i < std::size(batch_intervals); ++i) {
    CellResult& cell = results[i];
    std::printf("%-16.2f %16.2f %16.3f\n", batch_intervals[i],
                cell.recovery_seconds, cell.cpu_ratio);
    char label[64];
    std::snprintf(label, sizeof(label), "batch%.2fs", batch_intervals[i]);
    driver.metrics().Add(label, std::move(cell.metrics));
    driver.traces().Capture(std::move(cell.chrome_trace));
  }
  std::printf(
      "\nExpected: replay volume (and hence latency) is set by the "
      "checkpoint age, not\nthe batch size; the ratio column stays nearly "
      "flat.\n");
  return driver.Finish("abl_batch_size");
}
