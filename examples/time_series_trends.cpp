// Representative trends in a long time series (the use case of the paper's
// predecessor, Indyk-Koudas-Muthukrishnan VLDB 2000): among all windows of a
// day's length in one station's multi-week series, find the *relaxation
// period* — the window whose total distance to all other windows is
// smallest, i.e. the most "typical" day — using O(k)-per-comparison
// sketches, and cross-check against the exact computation. The series is a
// 1 x n table, so its window sketches are 1 x window sketches of the 2-D
// family.
//
//   ./build/examples/time_series_trends

#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/sketcher.h"
#include "data/call_volume.h"
#include "table/matrix.h"
#include "util/timer.h"

int main() {
  using namespace tabsketch;  // NOLINT: example brevity

  // Twelve weeks of one station group's call volume.
  data::CallVolumeOptions options;
  options.num_stations = 32;
  options.bins_per_day = 144;
  options.num_days = 84;
  auto volume = data::GenerateCallVolume(options);
  if (!volume.ok()) {
    std::fprintf(stderr, "%s\n", volume.status().ToString().c_str());
    return 1;
  }
  // One busy station's series, as a 1 x n table.
  const std::span<const double> station = volume->Row(16);
  const table::Matrix row(1, station.size(),
                          std::vector<double>(station.begin(), station.end()));
  const std::span<const double> series = row.Row(0);
  const size_t window = 7 * options.bins_per_day;  // week-length windows
  const size_t stride = 72;                         // every 12 hours

  core::SketchParams params{.p = 1.0, .k = 128, .seed = 404};
  auto sketcher = core::Sketcher::Create(params);
  auto estimator = core::DistanceEstimator::Create(params);
  if (!sketcher.ok() || !estimator.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  // All-positions sketches via FFT (Theorem 3 over a one-row table).
  util::WallTimer prep_timer;
  auto field_or = sketcher->SketchAllPositions(row, 1, window,
                                               core::SketchAlgorithm::kFft);
  if (!field_or.ok()) {
    std::fprintf(stderr, "sketching failed: %s\n",
                 field_or.status().message().c_str());
    return 1;
  }
  const core::SketchField& field = *field_or;
  std::printf("series length %zu, %zu window positions, sketched in %.2fs\n",
              series.size(), field.position_cols(),
              prep_timer.ElapsedSeconds());

  std::vector<size_t> anchors;
  for (size_t pos = 0; pos + window <= series.size(); pos += stride) {
    anchors.push_back(pos);
  }

  // Representative window by sketched distances.
  util::WallTimer sketch_timer;
  size_t best_sketch = 0;
  double best_sketch_total = std::numeric_limits<double>::infinity();
  std::vector<double> scratch;
  for (size_t a : anchors) {
    const core::Sketch sa = field.SketchAt(0, a);
    double total = 0.0;
    for (size_t b : anchors) {
      if (a == b) continue;
      const core::Sketch sb = field.SketchAt(0, b);
      total += estimator->EstimateWithScratch(sa.values, sb.values, &scratch);
    }
    if (total < best_sketch_total) {
      best_sketch_total = total;
      best_sketch = a;
    }
  }
  const double sketch_seconds = sketch_timer.ElapsedSeconds();

  // Exact reference.
  util::WallTimer exact_timer;
  size_t best_exact = 0;
  double best_exact_total = std::numeric_limits<double>::infinity();
  for (size_t a : anchors) {
    double total = 0.0;
    for (size_t b : anchors) {
      if (a == b) continue;
      total += core::LpDistance(series.subspan(a, window),
                                series.subspan(b, window), params.p);
    }
    if (total < best_exact_total) {
      best_exact_total = total;
      best_exact = a;
    }
  }
  const double exact_seconds = exact_timer.ElapsedSeconds();

  // How good is the sketch's pick, measured exactly? (Several windows of a
  // periodic series are near-ties for "most typical", so compare totals,
  // not indices — the same yardstick the paper uses for clusterings.)
  double sketch_pick_exact_total = 0.0;
  for (size_t b : anchors) {
    if (b == best_sketch) continue;
    sketch_pick_exact_total +=
        core::LpDistance(series.subspan(best_sketch, window),
                         series.subspan(b, window), params.p);
  }

  std::printf(
      "\nrepresentative week-window (%zu anchors, all-pairs comparison):\n"
      "  sketched pick: start bin %5zu (day %4.1f)  found in %.3fs\n"
      "  exact pick:    start bin %5zu (day %4.1f)  found in %.3fs\n"
      "  sketched pick's exact total is %.1f%% of the optimal total\n",
      anchors.size(), best_sketch,
      static_cast<double>(best_sketch) / 144.0, sketch_seconds, best_exact,
      static_cast<double>(best_exact) / 144.0, exact_seconds,
      100.0 * best_exact_total / sketch_pick_exact_total);
  std::printf(
      "\nSeveral windows are near-ties for 'most typical', so the indices\n"
      "may differ while the totals agree to within a few percent. Each\n"
      "sketch comparison touches k = %zu doubles instead of %zu.\n",
      params.k, window);
  return 0;
}
