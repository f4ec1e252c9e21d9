#include "tools/bench_diff/bench_diff.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ppa {
namespace benchdiff {
namespace {

/// One schema-v2 benchmark cell; a negative `wall_seconds` leaves the
/// wall group out, as a --no_wall run does.
JsonValue MakeCell(int nodes, int64_t events, int64_t sinks,
                   int64_t recoveries, double wall_seconds = -1.0) {
  JsonValue params = JsonValue::Object();
  params.Set("nodes", nodes);
  params.Set("sim_seconds", 30.0);
  JsonValue counters = JsonValue::Object();
  counters.Set("events_processed", events);
  counters.Set("sink_records", sinks);
  counters.Set("recoveries", recoveries);
  JsonValue cell = JsonValue::Object();
  cell.Set("params", std::move(params));
  cell.Set("counters", std::move(counters));
  if (wall_seconds >= 0.0) {
    JsonValue wall = JsonValue::Object();
    wall.Set("wall_seconds", wall_seconds);
    cell.Set("wall", std::move(wall));
  }
  return cell;
}

/// `cell` with counter `name` set to `value` (added or replaced).
JsonValue WithCounter(JsonValue cell, std::string_view name,
                      JsonValue value) {
  JsonValue counters = *cell.Find("counters");
  counters.Set(name, std::move(value));
  cell.Set("counters", std::move(counters));
  return cell;
}

JsonValue MakeReport(std::vector<JsonValue> cells,
                     const std::string& commit = "abc",
                     int schema_version = kBenchSchemaVersion) {
  JsonValue report = JsonValue::Object();
  report.Set("schema_version", schema_version);
  report.Set("suite", "scale_cluster");
  report.Set("commit", commit);
  JsonValue array = JsonValue::Array();
  for (JsonValue& cell : cells) {
    array.Append(std::move(cell));
  }
  report.Set("cells", std::move(array));
  return report;
}

TEST(BenchDiffTest, SelfCompareIsClean) {
  JsonValue report =
      MakeReport({MakeCell(256, 1000, 100, 2, 0.5),
                  MakeCell(1024, 4000, 400, 2, 2.0)});
  auto diff = DiffBenchReports(report, report, DiffOptions{});
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ(diff->deterministic_mismatches, 0);
  EXPECT_EQ(diff->wall_regressions, 0);
  EXPECT_TRUE(diff->only_in_baseline.empty());
  EXPECT_TRUE(diff->only_in_current.empty());
  EXPECT_FALSE(diff->gate_failed());
  // 2 cells x (3 counters + 1 wall member).
  EXPECT_EQ(diff->deltas.size(), 8u);
}

TEST(BenchDiffTest, CounterChangeFailsGate) {
  JsonValue baseline = MakeReport({MakeCell(256, 1000, 100, 2)});
  JsonValue current = MakeReport({MakeCell(256, 1001, 100, 2)});
  auto diff = DiffBenchReports(baseline, current, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->deterministic_mismatches, 1);
  EXPECT_TRUE(diff->gate_failed());
  bool found = false;
  for (const FieldDelta& delta : diff->deltas) {
    if (delta.field == "events_processed") {
      found = true;
      EXPECT_TRUE(delta.deterministic);
      EXPECT_TRUE(delta.regression);
      EXPECT_DOUBLE_EQ(delta.baseline, 1000.0);
      EXPECT_DOUBLE_EQ(delta.current, 1001.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchDiffTest, MissingCounterOnOneSideIsAMismatch) {
  JsonValue baseline = MakeReport({MakeCell(256, 1000, 100, 2)});
  // The current cell has no "recoveries" counter.
  JsonValue cell = MakeCell(256, 1000, 100, 2);
  JsonValue counters = JsonValue::Object();
  counters.Set("events_processed", static_cast<int64_t>(1000));
  counters.Set("sink_records", static_cast<int64_t>(100));
  cell.Set("counters", std::move(counters));
  JsonValue current = MakeReport({std::move(cell)});
  auto diff = DiffBenchReports(baseline, current, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->deterministic_mismatches, 1);
  EXPECT_TRUE(diff->gate_failed());
  // ...and so is one present on the current side only.
  auto reverse = DiffBenchReports(current, baseline, DiffOptions{});
  ASSERT_TRUE(reverse.ok());
  EXPECT_EQ(reverse->deterministic_mismatches, 1);
}

TEST(BenchDiffTest, ChangedOutcomeCounterIsAMismatchNotAnUnmatchedCell) {
  // A recovery-latency regression in a mode_head_to_head-shaped cell must
  // surface as a named delta, not as a cell missing on either side.
  JsonValue baseline = MakeReport(
      {WithCounter(MakeCell(256, 1000, 100, 2), "recovery_latency_s", 0.6)});
  JsonValue current = MakeReport(
      {WithCounter(MakeCell(256, 1000, 100, 2), "recovery_latency_s", 0.7)});
  auto diff = DiffBenchReports(baseline, current, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->only_in_baseline.empty());
  EXPECT_TRUE(diff->only_in_current.empty());
  EXPECT_EQ(diff->deterministic_mismatches, 1);
  EXPECT_TRUE(diff->gate_failed());
  EXPECT_NE(DiffReportToMarkdown(*diff).find(
                "| recovery_latency_s | 0.6 | 0.7 | MISMATCH | FAIL |"),
            std::string::npos);
}

TEST(BenchDiffTest, NewCounterGatesWithoutToolChanges) {
  // A counter the tool has never heard of, added to both sides, is
  // compared like any other.
  JsonValue cell = WithCounter(MakeCell(256, 1000, 100, 2), "tuples_routed",
                               static_cast<int64_t>(4'000'000));
  JsonValue baseline = MakeReport({cell});
  auto same = DiffBenchReports(baseline, baseline, DiffOptions{});
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->only_in_baseline.empty());
  EXPECT_EQ(same->deltas.size(), 4u);
  EXPECT_EQ(same->deltas[3].field, "tuples_routed");
  EXPECT_FALSE(same->gate_failed());

  JsonValue current = MakeReport({WithCounter(
      cell, "tuples_routed", static_cast<int64_t>(4'000'001))});
  auto changed = DiffBenchReports(baseline, current, DiffOptions{});
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(changed->deterministic_mismatches, 1);
  EXPECT_TRUE(changed->gate_failed());
}

TEST(BenchDiffTest, ContextMembersAreNeverCompared) {
  JsonValue cell = MakeCell(256, 1000, 100, 2);
  cell.Set("hot_spans", JsonValue::Array().Append("recovery"));
  JsonValue other = MakeCell(256, 1000, 100, 2);
  other.Set("hot_spans", JsonValue::Array());
  auto diff = DiffBenchReports(MakeReport({std::move(cell)}),
                               MakeReport({std::move(other)}),
                               DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->deltas.size(), 3u);
  EXPECT_FALSE(diff->gate_failed());
}

TEST(BenchDiffTest, UnmatchedCellsFailGate) {
  JsonValue baseline = MakeReport(
      {MakeCell(256, 1000, 100, 2), MakeCell(1024, 4000, 400, 2)});
  JsonValue current = MakeReport(
      {MakeCell(256, 1000, 100, 2), MakeCell(4096, 9000, 900, 2)});
  auto diff = DiffBenchReports(baseline, current, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->only_in_baseline.size(), 1u);
  ASSERT_EQ(diff->only_in_current.size(), 1u);
  EXPECT_NE(diff->only_in_baseline[0].find("nodes=1024"), std::string::npos);
  EXPECT_NE(diff->only_in_current[0].find("nodes=4096"), std::string::npos);
  EXPECT_TRUE(diff->gate_failed());
  EXPECT_EQ(diff->deterministic_mismatches, 0);
}

TEST(BenchDiffTest, WallRegressionIsReportOnlyByDefault) {
  JsonValue baseline = MakeReport({MakeCell(256, 1000, 100, 2, 1.0)});
  JsonValue current = MakeReport({MakeCell(256, 1000, 100, 2, 2.5)});
  auto diff = DiffBenchReports(baseline, current, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->wall_regressions, 1);
  EXPECT_FALSE(diff->gate_failed());

  DiffOptions gating;
  gating.fail_on_wall = true;
  auto gated = DiffBenchReports(baseline, current, gating);
  ASSERT_TRUE(gated.ok());
  EXPECT_TRUE(gated->gate_failed());
}

TEST(BenchDiffTest, WallImprovementAndTolerantChangePass) {
  // wall_seconds -60% (good direction): no regression however large.
  JsonValue baseline = MakeReport({MakeCell(256, 1000, 100, 2, 1.0)});
  JsonValue faster = MakeReport({MakeCell(256, 1000, 100, 2, 0.4)});
  auto diff = DiffBenchReports(baseline, faster, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->wall_regressions, 0);

  // +10% stays inside the default 25% tolerance.
  JsonValue slightly = MakeReport({MakeCell(256, 1000, 100, 2, 1.1)});
  auto small = DiffBenchReports(baseline, slightly, DiffOptions{});
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->wall_regressions, 0);
}

TEST(BenchDiffTest, WallSecondsRisingIsTheBadDirection) {
  JsonValue baseline = MakeReport({MakeCell(256, 1000, 100, 2, 1.0)});
  JsonValue slower = MakeReport({MakeCell(256, 1000, 100, 2, 2.0)});
  auto diff = DiffBenchReports(baseline, slower, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->wall_regressions, 1);
}

TEST(BenchDiffTest, EveryWallMemberIsACost) {
  // A wall member the tool has never heard of rises: a regression.
  JsonValue cell = MakeCell(256, 1000, 100, 2);
  cell.Set("wall", JsonValue::Object().Set("cpu_seconds", 1.0));
  JsonValue slower = MakeCell(256, 1000, 100, 2);
  slower.Set("wall", JsonValue::Object().Set("cpu_seconds", 3.0));
  auto diff = DiffBenchReports(MakeReport({std::move(cell)}),
                               MakeReport({std::move(slower)}),
                               DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->wall_regressions, 1);
  EXPECT_EQ(diff->deltas.back().field, "cpu_seconds");
  EXPECT_TRUE(diff->deltas.back().regression);
}

TEST(BenchDiffTest, AbsentWallMetricsAreSkipped) {
  // A --no_wall current run against a baseline with wall data: counters
  // still gate, wall rows are simply absent.
  JsonValue baseline = MakeReport({MakeCell(256, 1000, 100, 2, 1.0)});
  JsonValue no_wall = MakeReport({MakeCell(256, 1000, 100, 2)});
  auto diff = DiffBenchReports(baseline, no_wall, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->deltas.size(), 3u);
  EXPECT_EQ(diff->wall_regressions, 0);
  EXPECT_FALSE(diff->gate_failed());
}

TEST(BenchDiffTest, MalformedReportsAreRejected) {
  JsonValue not_a_report = JsonValue::Object();
  JsonValue ok = MakeReport({MakeCell(256, 1000, 100, 2)});
  EXPECT_FALSE(DiffBenchReports(not_a_report, ok, DiffOptions{}).ok());
  EXPECT_FALSE(DiffBenchReports(ok, not_a_report, DiffOptions{}).ok());
  // Duplicate cell keys make the match ambiguous.
  JsonValue dup = MakeReport(
      {MakeCell(256, 1000, 100, 2), MakeCell(256, 999, 100, 2)});
  EXPECT_FALSE(DiffBenchReports(dup, ok, DiffOptions{}).ok());
  EXPECT_FALSE(DiffBenchReports(ok, dup, DiffOptions{}).ok());
}

TEST(BenchDiffTest, NonV2ReportsAreRejected) {
  JsonValue ok = MakeReport({MakeCell(256, 1000, 100, 2)});
  // A v1 report: flat cells under schema_version 1.
  JsonValue v1_cell = JsonValue::Object();
  v1_cell.Set("nodes", 256);
  v1_cell.Set("events_processed", static_cast<int64_t>(1000));
  JsonValue v1 = MakeReport({std::move(v1_cell)}, "abc", 1);
  auto rejected = DiffBenchReports(v1, ok, DiffOptions{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().ToString().find("schema_version 2"),
            std::string::npos);
  EXPECT_FALSE(DiffBenchReports(ok, v1, DiffOptions{}).ok());
  // A v1 cell under a v2 header still lacks params/counters.
  JsonValue flat = MakeReport({v1.Find("cells")->at(0)});
  EXPECT_FALSE(DiffBenchReports(flat, ok, DiffOptions{}).ok());

  JsonValue no_params = MakeCell(256, 1000, 100, 2);
  no_params.Set("params", 256);
  EXPECT_FALSE(
      DiffBenchReports(MakeReport({std::move(no_params)}), ok, DiffOptions{})
          .ok());
  JsonValue no_counters = JsonValue::Object();
  no_counters.Set("params", *ok.Find("cells")->at(0).Find("params"));
  EXPECT_FALSE(DiffBenchReports(ok, MakeReport({std::move(no_counters)}),
                                DiffOptions{})
                   .ok());
}

TEST(BenchDiffTest, MarkdownCarriesVerdictAndMismatchRows) {
  JsonValue baseline = MakeReport({MakeCell(256, 1000, 100, 2)}, "old");
  JsonValue current = MakeReport({MakeCell(256, 1000, 101, 2)}, "new");
  auto diff = DiffBenchReports(baseline, current, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  std::string md = DiffReportToMarkdown(*diff);
  EXPECT_NE(md.find("GATE: FAIL"), std::string::npos);
  EXPECT_NE(md.find("MISMATCH"), std::string::npos);
  EXPECT_NE(md.find("sink_records"), std::string::npos);
  EXPECT_NE(md.find("`old` -> `new`"), std::string::npos);

  auto clean = DiffBenchReports(baseline, baseline, DiffOptions{});
  ASSERT_TRUE(clean.ok());
  EXPECT_NE(DiffReportToMarkdown(*clean).find("GATE: PASS"),
            std::string::npos);
}

TEST(BenchDiffTest, JsonReportRoundTripsThroughTheParser) {
  JsonValue baseline = MakeReport({MakeCell(256, 1000, 100, 2, 1.0)});
  JsonValue current = MakeReport({MakeCell(256, 1001, 100, 2, 2.5)});
  auto diff = DiffBenchReports(baseline, current, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  JsonValue json = DiffReportToJson(*diff);
  auto parsed = JsonValue::Parse(json.Pretty());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* failed = parsed->Find("gate_failed");
  ASSERT_NE(failed, nullptr);
  EXPECT_TRUE(failed->AsBool());
  const JsonValue* deltas = parsed->Find("deltas");
  ASSERT_NE(deltas, nullptr);
  EXPECT_EQ(deltas->size(), 4u);
}

TEST(BenchDiffTest, DeltasAreInBaselineCellThenFieldOrder) {
  JsonValue baseline = MakeReport(
      {MakeCell(1024, 4000, 400, 2), MakeCell(256, 1000, 100, 2)});
  auto diff = DiffBenchReports(baseline, baseline, DiffOptions{});
  ASSERT_TRUE(diff.ok());
  ASSERT_EQ(diff->deltas.size(), 6u);
  EXPECT_NE(diff->deltas[0].cell.find("nodes=1024"), std::string::npos);
  EXPECT_EQ(diff->deltas[0].field, "events_processed");
  EXPECT_EQ(diff->deltas[1].field, "sink_records");
  EXPECT_EQ(diff->deltas[2].field, "recoveries");
  EXPECT_NE(diff->deltas[3].cell.find("nodes=256"), std::string::npos);
}

}  // namespace
}  // namespace benchdiff
}  // namespace ppa
