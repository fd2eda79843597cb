#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sketch_params.h"
#include "report.h"
#include "stats.h"
#include "table/tiling.h"

/// The traced run's plumbing: turns on the program's own MetricsRegistry and
/// TraceRecorder, lets the workloads wrap their calls into each layer in
/// spans from this directory, and reads the counters and spans back out.
namespace perfbench {

/// One traced phase. The constructor resets and enables the global metrics
/// registry and starts the global flight recorder; Stop() stops both and
/// collects every recorded span, the program's and the benchmark's, on one
/// time base.
class TraceSession {
 public:
  explicit TraceSession(size_t events_per_thread);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Nanoseconds on the recorder's time base.
  uint64_t NowNs() const;
  /// First track id of the spans the benchmark builds itself (a request's
  /// life on a virtual per-request track); recorder threads number from 1.
  static constexpr uint32_t kVirtualTrack = 1u << 20;

  /// Stops recording; returns all spans. Events lost to ring wraparound are
  /// reported through dropped().
  std::vector<Span> Stop();
  uint64_t dropped() const { return dropped_; }

 private:
  bool stopped_ = false;
  uint64_t dropped_ = 0;
};

/// Reads of the global metrics registry (valid while and after a traced
/// phase, until the next one resets it).
double CounterValue(const std::string& name);
double HistogramSum(const std::string& name);
double HistogramCount(const std::string& name);
/// Approximate quantile (power-of-two bucket upper edge).
double HistogramQuantile(const std::string& name, double q);
/// Total seconds of the spans of one name, from the registry's
/// "span.<name>.seconds" histogram.
double SpanSeconds(const std::string& name);

/// Times SketchOf over a seed-derived tile sample of `grid` and
/// EstimateWithScratch over pairs of those sketches, reporting
/// core.sketcher.sketch_of_us and core.estimator.ns_per_call.
void ProbeSketcherAndEstimator(const tabsketch::core::SketchParams& params,
                               const tabsketch::table::TileGrid& grid,
                               uint64_t seed, Report* report);

/// Reports `unattributed_frac` — the share of the root spans' time (the
/// benchmark's "op.*" spans, one per operation) that no child span covers —
/// and notes every span name's count, total and self time.
void ReportAttribution(const std::vector<Span>& spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
