#include "obs/export.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ppa {
namespace obs {
namespace {

std::string LabelFor(const TaskLabeler& labeler, int64_t task) {
  if (task < 0) {
    return "";
  }
  return labeler != nullptr ? labeler(task) : std::to_string(task);
}

}  // namespace

JsonValue HistogramToJson(const Histogram& histogram) {
  JsonValue out = JsonValue::Object();
  out.Set("count", histogram.count());
  out.Set("sum", histogram.sum());
  out.Set("min", histogram.min());
  out.Set("max", histogram.max());
  out.Set("mean", histogram.Mean());
  out.Set("p50", histogram.Percentile(50));
  out.Set("p95", histogram.Percentile(95));
  out.Set("p99", histogram.Percentile(99));
  return out;
}

JsonValue MetricsToJson(const MetricsRegistry& registry) {
  JsonValue out = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, counter] : registry.counters()) {
    counters.Set(name, counter->value());
  }
  out.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gauge] : registry.gauges()) {
    JsonValue g = JsonValue::Object();
    g.Set("value", gauge->value());
    g.Set("min", gauge->min());
    g.Set("max", gauge->max());
    g.Set("samples", gauge->samples());
    gauges.Set(name, std::move(g));
  }
  out.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : registry.histograms()) {
    histograms.Set(name, HistogramToJson(*histogram));
  }
  out.Set("histograms", std::move(histograms));
  return out;
}

JsonValue TraceToJson(const TraceLog& trace, const TaskLabeler& labeler) {
  JsonValue out = JsonValue::Array();
  for (const TraceEvent& e : trace.events()) {
    JsonValue ev = JsonValue::Object();
    ev.Set("t_s", e.at.seconds());
    ev.Set("seq", static_cast<int64_t>(e.seq));
    ev.Set("kind", std::string(TraceEventKindToString(e.kind)));
    if (e.task >= 0) {
      ev.Set("task", LabelFor(labeler, e.task));
    }
    if (e.node >= 0) {
      ev.Set("node", e.node);
    }
    ev.Set("a", e.a);
    ev.Set("b", e.b);
    out.Append(std::move(ev));
  }
  return out;
}

JsonValue TimelinesToJson(const std::vector<RecoveryTimeline>& timelines,
                          const TaskLabeler& labeler) {
  JsonValue out = JsonValue::Array();
  for (const RecoveryTimeline& tl : timelines) {
    JsonValue t = JsonValue::Object();
    t.Set("task", LabelFor(labeler, tl.task));
    t.Set("recovery_kind", tl.recovery_kind);
    t.Set("failed_at_s", tl.failed_at.seconds());
    if (tl.detected) {
      t.Set("detected_at_s", tl.detected_at.seconds());
    }
    if (tl.restored) {
      t.Set("restored_at_s", tl.restored_at.seconds());
      t.Set("restore_latency_s", tl.RestoreLatency().seconds());
      t.Set("recovery_latency_s", tl.RecoveryLatency().seconds());
    }
    if (tl.caught_up) {
      t.Set("caught_up_at_s", tl.caught_up_at.seconds());
    }
    t.Set("complete", tl.caught_up);
    out.Append(std::move(t));
  }
  return out;
}

JsonValue TentativeWindowsToJson(
    const std::vector<TentativeWindow>& windows) {
  JsonValue out = JsonValue::Array();
  for (const TentativeWindow& w : windows) {
    JsonValue v = JsonValue::Object();
    v.Set("begin_s", w.begin.seconds());
    if (w.closed) {
      v.Set("end_s", w.end.seconds());
      v.Set("duration_s", (w.end - w.begin).seconds());
    }
    v.Set("first_batch", w.first_batch);
    v.Set("last_batch", w.last_batch);
    v.Set("closed", w.closed);
    out.Append(std::move(v));
  }
  return out;
}

JsonValue TraceStatsToJson(const TraceLog& trace) {
  JsonValue out = JsonValue::Object();
  out.Set("capacity", static_cast<int64_t>(trace.capacity()));
  out.Set("dropped", static_cast<int64_t>(trace.dropped()));
  out.Set("retained", static_cast<int64_t>(trace.size()));
  return out;
}

JsonValue FlightRecordToJson(const TraceLog& ring,
                             const TaskLabeler& labeler) {
  JsonValue out = JsonValue::Object();
  out.Set("capacity", static_cast<int64_t>(ring.capacity()));
  out.Set("dropped", static_cast<int64_t>(ring.dropped()));
  out.Set("recorded", static_cast<int64_t>(ring.size() + ring.dropped()));
  out.Set("events", TraceToJson(ring, labeler));
  return out;
}

JsonValue SpansToJson(const SpanProfiler& spans, const TaskLabeler& labeler) {
  JsonValue out = JsonValue::Array();
  for (const Span& span : spans.spans()) {
    JsonValue s = JsonValue::Object();
    s.Set("category", std::string(SpanCategoryToString(span.category)));
    if (span.task >= 0) {
      s.Set("task", LabelFor(labeler, span.task));
    }
    s.Set("begin_s", span.begin.seconds());
    s.Set("end_s", span.end.seconds());
    s.Set("total_s", span.Total().seconds());
    s.Set("self_s", span.Self().seconds());
    s.Set("depth", span.depth);
    out.Append(std::move(s));
  }
  return out;
}

JsonValue SpanAggregateToJson(const SpanProfiler& spans) {
  const std::vector<SpanStats> stats = spans.AggregateByCategory();
  JsonValue out = JsonValue::Object();
  for (size_t i = 0; i < stats.size(); ++i) {
    JsonValue s = JsonValue::Object();
    s.Set("count", stats[i].count);
    s.Set("total_s", stats[i].total.seconds());
    s.Set("self_s", stats[i].self.seconds());
    out.Set(std::string(SpanCategoryToString(static_cast<SpanCategory>(i))),
            std::move(s));
  }
  return out;
}

JsonValue HotSpansToJson(const SpanProfiler& spans, const TaskLabeler& labeler,
                         size_t top_n) {
  struct HotStats {
    int64_t count = 0;
    Duration total = Duration::Zero();
    Duration self = Duration::Zero();
  };
  // std::map keeps (category, task) keys ordered, so equal-self-time
  // rows already sit in the deterministic tie-break order before the
  // stable sort by self time.
  std::map<std::pair<uint8_t, int64_t>, HotStats> by_site;
  for (const Span& span : spans.spans()) {
    HotStats& stats =
        by_site[{static_cast<uint8_t>(span.category), span.task}];
    ++stats.count;
    stats.total += span.Total();
    stats.self += span.Self();
  }
  std::vector<std::pair<std::pair<uint8_t, int64_t>, HotStats>> rows(
      by_site.begin(), by_site.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& lhs, const auto& rhs) {
                     return lhs.second.self > rhs.second.self;
                   });
  if (rows.size() > top_n) {
    rows.resize(top_n);
  }
  JsonValue out = JsonValue::Array();
  for (const auto& [site, stats] : rows) {
    JsonValue row = JsonValue::Object();
    row.Set("category", std::string(SpanCategoryToString(
                            static_cast<SpanCategory>(site.first))));
    if (site.second >= 0) {
      row.Set("task", LabelFor(labeler, site.second));
    }
    row.Set("count", stats.count);
    row.Set("total_s", stats.total.seconds());
    row.Set("self_s", stats.self.seconds());
    out.Append(std::move(row));
  }
  return out;
}

JsonValue FidelityTimeseriesToJson(const FidelityTimeseries& series,
                                   const TaskLabeler& labeler) {
  JsonValue out = JsonValue::Array();
  for (const FidelitySample& sample : series.samples()) {
    JsonValue s = JsonValue::Object();
    s.Set("t_s", sample.at.seconds());
    s.Set("batch", sample.batch);
    s.Set("sink", LabelFor(labeler, sample.sink_task));
    s.Set("tentative", sample.tentative);
    s.Set("output_fidelity", sample.output_fidelity);
    s.Set("internal_completeness", sample.internal_completeness);
    s.Set("failed_tasks", sample.failed_tasks);
    out.Append(std::move(s));
  }
  return out;
}

JsonValue RunProfileToJson(const MetricsRegistry& registry,
                           const TraceLog& trace, const TaskLabeler& labeler,
                           const SpanProfiler* spans,
                           const FidelityTimeseries* fidelity) {
  JsonValue out = JsonValue::Object();
  out.Set("metrics", MetricsToJson(registry));
  out.Set("recovery_timelines",
          TimelinesToJson(BuildRecoveryTimelines(trace), labeler));
  out.Set("tentative_windows",
          TentativeWindowsToJson(ExtractTentativeWindows(trace)));
  if (spans != nullptr) {
    out.Set("span_aggregate", SpanAggregateToJson(*spans));
    out.Set("hot_spans", HotSpansToJson(*spans, labeler));
    out.Set("spans", SpansToJson(*spans, labeler));
  }
  if (fidelity != nullptr) {
    out.Set("fidelity_timeseries",
            FidelityTimeseriesToJson(*fidelity, labeler));
  }
  out.Set("trace_stats", TraceStatsToJson(trace));
  out.Set("trace", TraceToJson(trace, labeler));
  return out;
}

}  // namespace obs
}  // namespace ppa
