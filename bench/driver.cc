#include "bench/driver.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "report/experiment_report.h"

namespace ppa {
namespace bench {

Driver Driver::FromArgs(int* argc, char** argv) {
  Driver driver;
  std::string metrics_path;
  std::string trace_path;
  std::string flight_path;
  std::string jobs_value;
  std::string seed_value;
  std::string commit_value;
  std::string backend_value;
  std::string mode_value;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    auto match = [&](std::string_view flag, std::string* out) {
      if (arg.size() > flag.size() + 1 &&
          arg.substr(0, flag.size()) == flag && arg[flag.size()] == '=') {
        *out = std::string(arg.substr(flag.size() + 1));
        return true;
      }
      if (arg == flag && i + 1 < *argc) {
        *out = argv[++i];
        return true;
      }
      return false;
    };
    if (match("--metrics_out", &metrics_path) ||
        match("--chrome_trace_out", &trace_path) ||
        match("--flight_record_out", &flight_path)) {
      continue;
    }
    if (arg == "--progress") {
      driver.progress_ = true;
      continue;
    }
    if (match("--jobs", &jobs_value)) {
      driver.jobs_ = static_cast<int>(
          std::strtol(jobs_value.c_str(), nullptr, 10));
      continue;
    }
    if (match("--seed", &seed_value)) {
      driver.has_seed_ = true;
      driver.seed_ = std::strtoull(seed_value.c_str(), nullptr, 10);
      continue;
    }
    if (match("--commit", &commit_value)) {
      driver.commit_ = commit_value;
      continue;
    }
    if (match("--backend", &backend_value)) {
      StatusOr<backend::BackendKind> kind =
          backend::ParseBackendKind(backend_value);
      if (!kind.ok()) {
        std::fprintf(stderr, "--backend: %s\n",
                     kind.status().ToString().c_str());
        std::exit(2);
      }
      driver.backend_ = *kind;
      continue;
    }
    if (match("--recovery_mode", &mode_value)) {
      StatusOr<af::RecoveryMode> mode =
          af::RecoveryModeFromString(mode_value);
      if (!mode.ok()) {
        std::fprintf(stderr, "--recovery_mode: %s\n",
                     mode.status().ToString().c_str());
        std::exit(2);
      }
      driver.recovery_mode_ = *mode;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  if (driver.jobs_ <= 0) {
    driver.jobs_ = ThreadPool::DefaultParallelism();
  }
  driver.metrics_ = BenchMetricsSink(metrics_path);
  driver.traces_ = ChromeTraceSink(trace_path);
  driver.flight_ = FlightRecordSink(flight_path);
  return driver;
}

exp::ProgressMeter* Driver::StartProgress(int total, std::string label) {
  if (!progress_) {
    return nullptr;
  }
  meter_ = std::make_unique<exp::ProgressMeter>();
  meter_->set_sink(
      [total, label = std::move(label)](exp::ProgressMeter::Snapshot s) {
        std::fprintf(stderr, "%s %d/%d done (%d failed)\n", label.c_str(),
                     s.done, total, s.failed);
      });
  return meter_.get();
}

int Driver::PublishBenchReport(std::string_view suite, JsonValue body,
                               const std::string& out_path) {
  JsonValue report = JsonValue::Object();
  report.Set("schema_version", kBenchSchemaVersion);
  report.Set("suite", std::string(suite));
  report.Set("commit", commit_);
  report.Set("backend", backend_name());
  report.Set("recovery_mode", recovery_mode_name());
  report.Set("benchmark", std::string(suite));
  for (const auto& [name, value] : body.members()) {
    report.Set(name, value);
  }
  const Status written = WriteJsonFile(out_path, report);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  metrics_.Add(std::string(suite), std::move(report));
  return Finish(suite);
}

exp::ParallelRunner& Driver::runner() {
  if (runner_ == nullptr) {
    exp::ParallelRunnerOptions options;
    options.jobs = jobs_;
    runner_ = std::make_unique<exp::ParallelRunner>(options);
  }
  return *runner_;
}

int Driver::Finish(std::string_view benchmark) {
  bool ok = metrics_.Write(benchmark);
  ok = traces_.Write() && ok;
  ok = flight_.Write() && ok;
  return ok ? 0 : 1;
}

JsonValue BenchCell(JsonValue params, JsonValue counters,
                    std::optional<double> wall_seconds) {
  JsonValue cell = JsonValue::Object();
  cell.Set("params", std::move(params));
  cell.Set("counters", std::move(counters));
  if (wall_seconds.has_value()) {
    JsonValue wall = JsonValue::Object();
    wall.Set("wall_seconds", *wall_seconds);
    cell.Set("wall", std::move(wall));
  }
  return cell;
}

}  // namespace bench
}  // namespace ppa
