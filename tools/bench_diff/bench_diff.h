#ifndef PPA_TOOLS_BENCH_DIFF_BENCH_DIFF_H_
#define PPA_TOOLS_BENCH_DIFF_BENCH_DIFF_H_

#include <string>
#include <vector>

#include "common/status_or.h"
#include "report/json.h"

namespace ppa {
namespace benchdiff {

/// The BENCH_*.json `schema_version` this tool reads (bench::Driver
/// writes it). A v2 cell is {"params": {...}, "counters": {...},
/// "wall": {...}}; any other member is context and never compared.
inline constexpr int kBenchSchemaVersion = 2;

/// Comparison knobs. Counters always gate exactly; wall members are
/// report-only unless `fail_on_wall` is set, since wall time depends on
/// the machine the benchmark ran on.
struct DiffOptions {
  /// Maximum tolerated relative rise of a wall member (0.25 = 25%); every
  /// wall member is a cost, so a fall never counts as a regression.
  double wall_tolerance = 0.25;
  /// Make wall-metric regressions fail the gate too.
  bool fail_on_wall = false;
};

/// One compared field of one matched cell.
struct FieldDelta {
  /// Canonical cell key: the cell's params, e.g. "nodes=256 workers=192".
  std::string cell;
  std::string field;
  /// The numeric values (0 for a counter absent or non-numeric on that
  /// side).
  double baseline = 0.0;
  double current = 0.0;
  /// (current - baseline) / baseline; 0 when baseline is 0 and current
  /// is too, ±1 when baseline is 0 and current is not.
  double rel_change = 0.0;
  /// True for a member of the cell's `counters`, false for `wall`.
  bool deterministic = false;
  /// Counter not equal as a JSON value (or present on one side only), or
  /// wall member risen beyond tolerance.
  bool regression = false;
};

/// Outcome of diffing two BENCH_*.json reports.
struct DiffReport {
  std::string baseline_suite;
  std::string current_suite;
  std::string baseline_commit;
  std::string current_commit;
  /// Cell keys present on only one side. Any entry fails the gate:
  /// coverage changes are as load-bearing as counter changes.
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_current;
  /// Every compared field of every matched cell, in baseline cell order
  /// then field order — deterministic for fixed inputs.
  std::vector<FieldDelta> deltas;
  /// The options the diff ran with (echoed into the rendered reports).
  double wall_tolerance = 0.25;
  bool fail_on_wall = false;
  int deterministic_mismatches = 0;
  int wall_regressions = 0;

  /// True when the diff should fail a CI gate: any deterministic
  /// mismatch, any unmatched cell, or (with fail_on_wall) any wall
  /// regression.
  [[nodiscard]] bool gate_failed() const {
    return deterministic_mismatches > 0 || !only_in_baseline.empty() ||
           !only_in_current.empty() ||
           (fail_on_wall && wall_regressions > 0);
  }
};

/// Diffs two schema-v2 benchmark reports cell by cell. Cells match when
/// their `params` are equal. Every member of `counters` must be an equal
/// JSON value on both sides; every `wall` member both sides measured is
/// compared against `options.wall_tolerance` (a --no_wall run has no
/// wall group). Fails on malformed reports (not schema v2, no "cells"
/// array, a cell without `params`/`counters` objects, duplicate keys).
[[nodiscard]] StatusOr<DiffReport> DiffBenchReports(
    const JsonValue& baseline, const JsonValue& current,
    const DiffOptions& options);

/// Renders the diff as a markdown table plus a PASS/FAIL verdict line.
[[nodiscard]] std::string DiffReportToMarkdown(const DiffReport& report);

/// Serializes the diff (options, unmatched cells, per-field deltas,
/// verdict) for machine consumption.
[[nodiscard]] JsonValue DiffReportToJson(const DiffReport& report);

}  // namespace benchdiff
}  // namespace ppa

#endif  // PPA_TOOLS_BENCH_DIFF_BENCH_DIFF_H_
