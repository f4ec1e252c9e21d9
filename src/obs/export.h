#ifndef PPA_OBS_EXPORT_H_
#define PPA_OBS_EXPORT_H_

#include <functional>
#include <string>

#include "obs/fidelity_timeseries.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/json.h"

namespace ppa {
namespace obs {

/// Resolves a task id to a display label ("mid[1]"); nullptr falls back
/// to the numeric id.
using TaskLabeler = std::function<std::string(int64_t)>;

/// {"count":..,"sum":..,"min":..,"max":..,"mean":..,
///  "p50":..,"p95":..,"p99":..}
JsonValue HistogramToJson(const Histogram& histogram);

/// {"counters":{name:value,...},"gauges":{name:{...}},
///  "histograms":{name:HistogramToJson,...}} in name order.
JsonValue MetricsToJson(const MetricsRegistry& registry);

/// Array of {"t_s":..,"seq":..,"kind":..,"task":..,"node":..,"a":..,
/// "b":..}; tasks labeled through `labeler` when provided.
JsonValue TraceToJson(const TraceLog& trace,
                      const TaskLabeler& labeler = nullptr);

/// Array of per-episode timelines with phase timestamps and latencies.
JsonValue TimelinesToJson(const std::vector<RecoveryTimeline>& timelines,
                          const TaskLabeler& labeler = nullptr);

/// Array of {"begin_s":..,"end_s":..,"first_batch":..,"last_batch":..,
/// "closed":..}.
JsonValue TentativeWindowsToJson(const std::vector<TentativeWindow>& windows);

/// {"capacity":..,"dropped":..,"retained":..} — how much of the run the
/// trace ring actually kept. capacity 0 means unbounded; a non-zero
/// dropped count flags that trace-derived views (timelines, windows) saw
/// a truncated history.
JsonValue TraceStatsToJson(const TraceLog& trace);

/// A flight record — the always-on bounded ring of a run's newest trace
/// events, fed as the mirror of its main TraceLog (TraceLog::set_mirror)
/// so it records even with observability off:
/// {"capacity":..,"dropped":..,"recorded":..,"events":[...]} where
/// `recorded` counts every event ever fed to the ring (retained +
/// dropped) and `events` is the retained tail in TraceToJson shape.
/// Contains only sim-time data, so identical runs serialize
/// byte-identically.
JsonValue FlightRecordToJson(const TraceLog& ring,
                             const TaskLabeler& labeler = nullptr);

/// Array of {"category":..,"task":..,"begin_s":..,"end_s":..,
/// "total_s":..,"self_s":..,"depth":..} in span-open order.
JsonValue SpansToJson(const SpanProfiler& spans,
                      const TaskLabeler& labeler = nullptr);

/// {"<category>":{"count":..,"total_s":..,"self_s":..},...} for every
/// span category (zeros included, in enum order).
JsonValue SpanAggregateToJson(const SpanProfiler& spans);

/// The hot-path table: spans aggregated per (category, task) and ranked
/// by self time descending (ties broken by category then task, so the
/// ranking is deterministic). At most `top_n` rows, each
/// {"category":..,"task":..,"count":..,"total_s":..,"self_s":..}; the
/// "task" key is omitted for taskless spans (e.g. the run root).
JsonValue HotSpansToJson(const SpanProfiler& spans,
                         const TaskLabeler& labeler = nullptr,
                         size_t top_n = 10);

/// Array of {"t_s":..,"batch":..,"sink":..,"tentative":..,
/// "output_fidelity":..,"internal_completeness":..,"failed_tasks":..}
/// — the OF(t)/IC(t) curve sampled per degraded sink delivery.
JsonValue FidelityTimeseriesToJson(const FidelityTimeseries& series,
                                   const TaskLabeler& labeler = nullptr);

/// The machine-readable profile of one run: metrics snapshot, recovery
/// timelines and tentative windows derived from the trace, the trace
/// itself, and — when provided — the span profile (with per-category
/// aggregate) and the fidelity timeseries.
JsonValue RunProfileToJson(const MetricsRegistry& registry,
                           const TraceLog& trace,
                           const TaskLabeler& labeler = nullptr,
                           const SpanProfiler* spans = nullptr,
                           const FidelityTimeseries* fidelity = nullptr);

}  // namespace obs
}  // namespace ppa

#endif  // PPA_OBS_EXPORT_H_
