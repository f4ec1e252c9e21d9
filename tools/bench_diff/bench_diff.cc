#include "tools/bench_diff/bench_diff.h"

#include <charconv>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace ppa {
namespace benchdiff {
namespace {

/// The canonical key of a cell: its params, in insertion order, as
/// "name=value" pairs.
std::string CellKey(const JsonValue& cell) {
  std::ostringstream key;
  bool first = true;
  for (const auto& [name, value] : cell.Find("params")->members()) {
    if (!first) {
      key << " ";
    }
    first = false;
    key << name << "=" << value.Serialize();
  }
  return key.str();
}

double RelChange(double baseline, double current) {
  if (baseline == 0.0) {
    return current == 0.0 ? 0.0 : (current > 0.0 ? 1.0 : -1.0);
  }
  return (current - baseline) / baseline;
}

std::string SuiteOf(const JsonValue& report) {
  const JsonValue* suite = report.Find("suite");
  return suite != nullptr && suite->is_string() ? suite->AsString() : "";
}

std::string CommitOf(const JsonValue& report) {
  const JsonValue* commit = report.Find("commit");
  return commit != nullptr && commit->is_string() ? commit->AsString() : "";
}

bool IsObjectMember(const JsonValue& cell, std::string_view name) {
  const JsonValue* member = cell.Find(name);
  return member != nullptr && member->is_object();
}

StatusOr<const JsonValue*> CellsOf(const JsonValue& report,
                                   const char* which) {
  if (!report.is_object()) {
    return InvalidArgument(std::string(which) +
                           " report is not a JSON object");
  }
  const JsonValue* version = report.Find("schema_version");
  if (version == nullptr || !version->is_number() ||
      version->AsDouble() != kBenchSchemaVersion) {
    return InvalidArgument(std::string(which) +
                           " report is not schema_version " +
                           std::to_string(kBenchSchemaVersion));
  }
  const JsonValue* cells = report.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return InvalidArgument(std::string(which) +
                           " report has no \"cells\" array");
  }
  for (size_t i = 0; i < cells->size(); ++i) {
    const JsonValue& cell = cells->at(i);
    const JsonValue* wall = cell.is_object() ? cell.Find("wall") : nullptr;
    if (!cell.is_object() || !IsObjectMember(cell, "params") ||
        !IsObjectMember(cell, "counters") ||
        (wall != nullptr && !wall->is_object())) {
      return InvalidArgument(std::string(which) + " cell " +
                             std::to_string(i) +
                             " is not {params, counters[, wall]} objects");
    }
  }
  return cells;
}

double NumberOr0(const JsonValue* value) {
  return value != nullptr && value->is_number() ? value->AsDouble() : 0.0;
}

/// Appends the delta of one field present on at least one side. A counter
/// regresses when the sides differ as JSON values (or one is absent); a
/// wall member when it rose beyond the tolerance.
void AppendDelta(const std::string& key, const std::string& name,
                 const JsonValue* old_value, const JsonValue* new_value,
                 bool counter, const DiffOptions& options,
                 DiffReport* report) {
  FieldDelta delta;
  delta.cell = key;
  delta.field = name;
  delta.deterministic = counter;
  delta.baseline = NumberOr0(old_value);
  delta.current = NumberOr0(new_value);
  delta.rel_change = RelChange(delta.baseline, delta.current);
  if (counter) {
    delta.regression = old_value == nullptr || new_value == nullptr ||
                       old_value->Serialize() != new_value->Serialize();
    report->deterministic_mismatches += delta.regression ? 1 : 0;
  } else {
    delta.regression = delta.rel_change > options.wall_tolerance;
    report->wall_regressions += delta.regression ? 1 : 0;
  }
  report->deltas.push_back(std::move(delta));
}

/// Compares one matched cell pair and appends its field deltas: every
/// counter of either side, then every wall member both sides measured.
void DiffCell(const std::string& key, const JsonValue& baseline,
              const JsonValue& current, const DiffOptions& options,
              DiffReport* report) {
  const JsonValue& old_counters = *baseline.Find("counters");
  const JsonValue& new_counters = *current.Find("counters");
  for (const auto& [name, value] : old_counters.members()) {
    AppendDelta(key, name, &value, new_counters.Find(name), true, options,
                report);
  }
  for (const auto& [name, value] : new_counters.members()) {
    if (old_counters.Find(name) == nullptr) {
      AppendDelta(key, name, nullptr, &value, true, options, report);
    }
  }
  // The wall group is optional (a --no_wall run omits it).
  const JsonValue* old_wall = baseline.Find("wall");
  const JsonValue* new_wall = current.Find("wall");
  if (old_wall == nullptr || new_wall == nullptr) {
    return;
  }
  for (const auto& [name, value] : old_wall->members()) {
    if (const JsonValue* measured = new_wall->Find(name)) {
      AppendDelta(key, name, &value, measured, false, options, report);
    }
  }
}

std::string FormatValue(const FieldDelta& delta, double value) {
  char buf[64];
  if (delta.deterministic) {
    // Shortest round-trip form: 0.6 prints as 0.6, 117714920 in full.
    *std::to_chars(buf, buf + sizeof(buf) - 1, value).ptr = '\0';
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", value);
  }
  return buf;
}

std::string FormatDelta(const FieldDelta& delta) {
  if (delta.deterministic) {
    return delta.regression ? "MISMATCH" : "=";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", delta.rel_change * 100.0);
  return buf;
}

}  // namespace

StatusOr<DiffReport> DiffBenchReports(const JsonValue& baseline,
                                      const JsonValue& current,
                                      const DiffOptions& options) {
  if (options.wall_tolerance < 0.0) {
    return InvalidArgument("wall_tolerance must be non-negative");
  }
  PPA_ASSIGN_OR_RETURN(const JsonValue* old_cells,
                       CellsOf(baseline, "baseline"));
  PPA_ASSIGN_OR_RETURN(const JsonValue* new_cells,
                       CellsOf(current, "current"));

  DiffReport report;
  report.baseline_suite = SuiteOf(baseline);
  report.current_suite = SuiteOf(current);
  report.baseline_commit = CommitOf(baseline);
  report.current_commit = CommitOf(current);
  report.wall_tolerance = options.wall_tolerance;
  report.fail_on_wall = options.fail_on_wall;

  std::map<std::string, const JsonValue*> current_by_key;
  for (size_t i = 0; i < new_cells->size(); ++i) {
    const JsonValue& cell = new_cells->at(i);
    if (!current_by_key.emplace(CellKey(cell), &cell).second) {
      return InvalidArgument("current report has duplicate cell key \"" +
                             CellKey(cell) + "\"");
    }
  }
  std::map<std::string, bool> matched;  // key -> seen in baseline
  for (size_t i = 0; i < old_cells->size(); ++i) {
    const JsonValue& cell = old_cells->at(i);
    std::string key = CellKey(cell);
    if (!matched.emplace(key, true).second) {
      return InvalidArgument("baseline report has duplicate cell key \"" +
                             key + "\"");
    }
    auto it = current_by_key.find(key);
    if (it == current_by_key.end()) {
      report.only_in_baseline.push_back(key);
      continue;
    }
    DiffCell(key, cell, *it->second, options, &report);
  }
  // Current-side extras, in current file order for determinism.
  for (size_t i = 0; i < new_cells->size(); ++i) {
    std::string key = CellKey(new_cells->at(i));
    if (matched.count(key) == 0) {
      report.only_in_current.push_back(key);
    }
  }
  return report;
}

std::string DiffReportToMarkdown(const DiffReport& report) {
  std::ostringstream md;
  md << "# bench_diff: " << report.baseline_suite << " -> "
     << report.current_suite << "\n\n";
  if (!report.baseline_commit.empty() || !report.current_commit.empty()) {
    md << "commits: `" << report.baseline_commit << "` -> `"
       << report.current_commit << "`\n";
  }
  char tol[64];
  std::snprintf(tol, sizeof(tol), "%.1f%%", report.wall_tolerance * 100.0);
  md << "wall tolerance: " << tol << " ("
     << (report.fail_on_wall ? "gating" : "report-only") << ")\n\n";
  md << "| cell | field | baseline | current | delta | status |\n";
  md << "|---|---|---|---|---|---|\n";
  for (const FieldDelta& delta : report.deltas) {
    const char* status = !delta.regression        ? "ok"
                         : delta.deterministic    ? "FAIL"
                         : report.fail_on_wall    ? "FAIL"
                                                  : "warn";
    md << "| " << delta.cell << " | " << delta.field << " | "
       << FormatValue(delta, delta.baseline) << " | "
       << FormatValue(delta, delta.current) << " | " << FormatDelta(delta)
       << " | " << status << " |\n";
  }
  for (const std::string& key : report.only_in_baseline) {
    md << "\nFAIL: cell only in baseline: " << key << "\n";
  }
  for (const std::string& key : report.only_in_current) {
    md << "\nFAIL: cell only in current: " << key << "\n";
  }
  md << "\n" << report.deterministic_mismatches
     << " deterministic mismatch(es), " << report.wall_regressions
     << " wall regression(s), " << report.only_in_baseline.size()
     << "+" << report.only_in_current.size() << " unmatched cell(s)\n";
  md << "\nGATE: " << (report.gate_failed() ? "FAIL" : "PASS") << "\n";
  return md.str();
}

JsonValue DiffReportToJson(const DiffReport& report) {
  JsonValue json = JsonValue::Object();
  json.Set("baseline_suite", report.baseline_suite);
  json.Set("current_suite", report.current_suite);
  json.Set("baseline_commit", report.baseline_commit);
  json.Set("current_commit", report.current_commit);
  json.Set("wall_tolerance", report.wall_tolerance);
  json.Set("fail_on_wall", report.fail_on_wall);
  JsonValue deltas = JsonValue::Array();
  for (const FieldDelta& delta : report.deltas) {
    JsonValue entry = JsonValue::Object();
    entry.Set("cell", delta.cell);
    entry.Set("field", delta.field);
    entry.Set("baseline", delta.baseline);
    entry.Set("current", delta.current);
    entry.Set("rel_change", delta.rel_change);
    entry.Set("deterministic", delta.deterministic);
    entry.Set("regression", delta.regression);
    deltas.Append(std::move(entry));
  }
  json.Set("deltas", std::move(deltas));
  JsonValue only_old = JsonValue::Array();
  for (const std::string& key : report.only_in_baseline) {
    only_old.Append(key);
  }
  json.Set("only_in_baseline", std::move(only_old));
  JsonValue only_new = JsonValue::Array();
  for (const std::string& key : report.only_in_current) {
    only_new.Append(key);
  }
  json.Set("only_in_current", std::move(only_new));
  json.Set("deterministic_mismatches", report.deterministic_mismatches);
  json.Set("wall_regressions", report.wall_regressions);
  json.Set("gate_failed", report.gate_failed());
  return json;
}

}  // namespace benchdiff
}  // namespace ppa
