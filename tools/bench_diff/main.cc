// bench_diff: the perf-trajectory regression gate (DESIGN.md §15).
// Compares two schema-v2 BENCH_*.json reports cell by cell, matching
// cells on their `params`: every member of a cell's `counters` must be
// equal; every `wall` member is a cost checked against a relative
// tolerance and is report-only unless --fail_on_wall. Prints a markdown
// delta table to stdout.
//
// Usage:
//   bench_diff [options] <baseline.json> <current.json>
//     --wall_tolerance <frac>  relative wall-metric tolerance
//                              (default 0.25 = 25%)
//     --fail_on_wall           wall regressions fail the gate too
//     --json_out <file>        write the delta report as JSON
//     --markdown_out <file>    write the markdown table to a file too
//
// Exit code: 0 when the gate passes, 1 when it fails (counter mismatch,
// unmatched cells, or — with --fail_on_wall — a wall regression), 2 on
// usage, parse or schema errors (not schema v2, a cell without
// params/counters).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "tools/bench_diff/bench_diff.h"

namespace {

using namespace ppa;

StatusOr<JsonValue> LoadReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound("cannot read '" + path + "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return JsonValue::Parse(contents.str());
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Run(int argc, char** argv) {
  benchdiff::DiffOptions options;
  std::string json_out, markdown_out;
  std::string baseline_path, current_path;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (std::strcmp(argv[i], "--wall_tolerance") == 0) {
      options.wall_tolerance = std::stod(need_value("--wall_tolerance"));
    } else if (std::strcmp(argv[i], "--fail_on_wall") == 0) {
      options.fail_on_wall = true;
    } else if (std::strcmp(argv[i], "--json_out") == 0) {
      json_out = need_value("--json_out");
    } else if (std::strcmp(argv[i], "--markdown_out") == 0) {
      markdown_out = need_value("--markdown_out");
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = argv[i];
    } else if (current_path.empty()) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "too many arguments\n");
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_diff [options] <baseline.json> "
                 "<current.json>\n");
    return 2;
  }

  auto baseline = LoadReport(baseline_path);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto current = LoadReport(current_path);
  if (!current.ok()) {
    std::fprintf(stderr, "current: %s\n",
                 current.status().ToString().c_str());
    return 2;
  }
  auto diff = benchdiff::DiffBenchReports(*baseline, *current, options);
  if (!diff.ok()) {
    std::fprintf(stderr, "diff: %s\n", diff.status().ToString().c_str());
    return 2;
  }

  const std::string markdown = benchdiff::DiffReportToMarkdown(*diff);
  std::fputs(markdown.c_str(), stdout);
  if (!markdown_out.empty() && !WriteText(markdown_out, markdown)) {
    std::fprintf(stderr, "cannot write %s\n", markdown_out.c_str());
    return 2;
  }
  if (!json_out.empty() &&
      !WriteText(json_out,
                 benchdiff::DiffReportToJson(*diff).Pretty() + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
    return 2;
  }
  return diff->gate_failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
