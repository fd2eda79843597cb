#include "layers.h"

#include <map>
#include <utility>

#include "core/estimator.h"
#include "core/sketcher.h"
#include "rng/splitmix64.h"
#include "util/metrics.h"
#include "util/trace_recorder.h"
#include "workloads.h"

namespace perfbench {

using tabsketch::util::MetricsRegistry;
using tabsketch::util::TraceRecorder;

TraceSession::TraceSession(size_t events_per_thread) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  tabsketch::util::PreregisterCoreMetrics(&registry);
  registry.ResetValues();
  MetricsRegistry::SetEnabled(true);
  TraceRecorder::Global().Start(events_per_thread);
}

TraceSession::~TraceSession() {
  if (!stopped_) Stop();
}

uint64_t TraceSession::NowNs() const { return TraceRecorder::Global().NowNs(); }


std::vector<Span> TraceSession::Stop() {
  TraceRecorder& recorder = TraceRecorder::Global();
  if (!stopped_) {
    recorder.Stop();
    MetricsRegistry::SetEnabled(false);
    stopped_ = true;
  }
  dropped_ = recorder.dropped();
  std::vector<Span> spans;
  for (const auto& [tid, event] : recorder.Snapshot()) {
    if (event.phase != 'X') continue;
    spans.push_back(
        Span{event.name, tid, event.ts_ns, event.ts_ns + event.dur_ns});
  }
  return spans;
}

double CounterValue(const std::string& name) {
  return static_cast<double>(
      MetricsRegistry::Global().GetCounter(name)->value());
}

double HistogramSum(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name)->sum();
}

double HistogramCount(const std::string& name) {
  return static_cast<double>(
      MetricsRegistry::Global().GetHistogram(name)->count());
}

double HistogramQuantile(const std::string& name, double q) {
  return MetricsRegistry::Global().GetHistogram(name)->Percentile(q);
}

double SpanSeconds(const std::string& name) {
  return HistogramSum("span." + name + ".seconds");
}

void ProbeSketcherAndEstimator(const tabsketch::core::SketchParams& params,
                               const tabsketch::table::TileGrid& grid,
                               uint64_t seed, Report* report) {
  constexpr size_t kTiles = 2048;
  constexpr size_t kPairs = 20000;
  auto sketcher = tabsketch::core::Sketcher::Create(params);
  auto estimator = tabsketch::core::DistanceEstimator::Create(params);
  if (!sketcher.ok() || !estimator.ok()) {
    report->CheckFailed("probe: cannot create sketcher/estimator");
    return;
  }
  tabsketch::rng::SplitMix64 rng(seed ^ 0x70726f6265ULL);
  std::vector<size_t> tiles(kTiles);
  for (size_t& t : tiles) t = rng.Next() % grid.num_tiles();
  sketcher->SketchOf(grid.Tile(tiles[0]));  // generate the kernels first
  std::vector<tabsketch::core::Sketch> sketches;
  sketches.reserve(tiles.size());
  const double sketch_s = TimeSeconds([&] {
    for (size_t t : tiles) sketches.push_back(sketcher->SketchOf(grid.Tile(t)));
  });
  report->Layer("core.sketcher.sketch_of_us",
                sketch_s / static_cast<double>(kTiles) * 1e6);
  std::vector<double> scratch;
  double sum = 0.0;
  const double estimate_s = TimeSeconds([&] {
    for (size_t i = 0; i < kPairs; ++i) {
      const auto& a = sketches[i % kTiles];
      const auto& b = sketches[(7 * i + 1) % kTiles];
      sum += estimator->EstimateWithScratch(a.values, b.values, &scratch);
    }
  });
  if (!(sum >= 0.0)) report->Note("estimator probe summed to " + std::to_string(sum));
  report->Layer("core.estimator.ns_per_call",
                estimate_s / static_cast<double>(kPairs) * 1e9);
}

void ReportAttribution(const std::vector<Span>& spans, Report* report) {
  auto is_root = [](const std::string& name) {
    return name.rfind("op.", 0) == 0;
  };
  report->Layer("unattributed_frac", UnattributedFraction(spans, is_root));
  std::map<std::string, std::pair<double, size_t>> total;
  for (const Span& span : spans) {
    auto& [seconds, count] = total[span.name];
    seconds += static_cast<double>(span.duration()) * 1e-9;
    ++count;
  }
  for (const auto& [name, self_s] : SelfSecondsByName(spans)) {
    const auto& [seconds, count] = total[name];
    report->Note("span " + name + " n=" + std::to_string(count) +
                 " total_s=" + std::to_string(seconds) +
                 " self_s=" + std::to_string(self_s));
  }
}

}  // namespace perfbench
