// pool_build: SketchPool::Build over a 1024x1024 six-region table, p=1,
// k=16, dyadic windows 8..64 per dimension (16 canonical sizes, 128 kernel
// pair correlates), threads = nproc. All of its time is RNG, FFT and pool
// assembly: no cache, estimator or socket.
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/sketch_pool.h"
#include "core/sketcher.h"
#include "core/stable_matrix.h"
#include "data/six_region.h"
#include "layers.h"
#include "rng/splitmix64.h"
#include "table/table_io.h"
#include "util/parallel.h"
#include "util/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tabsketch;

constexpr size_t kTableSide = 1024;
constexpr size_t kLog2MinWindow = 3;  // 8
constexpr size_t kLog2MaxWindow = 6;  // 64
constexpr size_t kSetupReps = 31;
constexpr size_t kMinBuilds = 2;
constexpr size_t kCheckedSketches = 32;
constexpr double kCheckRelTol = 1e-9;

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Sampled canonical sketches must equal a direct Sketcher::SketchOf of the
/// same window to 1e-9 relative (max-norm of the difference over the
/// max-norm of the direct sketch).
void CheckPool(const core::SketchPool& pool, const table::Matrix& data,
               const core::SketchParams& params, uint64_t seed,
               Report* report) {
  auto sketcher = core::Sketcher::Create(params);
  if (!sketcher.ok()) {
    report->CheckFailed("Sketcher::Create: " + sketcher.status().ToString());
    return;
  }
  const auto sizes = pool.CanonicalSizes();
  rng::SplitMix64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  size_t failures = 0;
  for (size_t i = 0; i < kCheckedSketches; ++i) {
    const auto [rows, cols] = sizes[rng.Next() % sizes.size()];
    const size_t row = rng.Next() % (data.rows() - rows + 1);
    const size_t col = rng.Next() % (data.cols() - cols + 1);
    auto pooled = pool.CanonicalSketchAt(row, col, rows, cols);
    if (!pooled.ok()) {
      ++failures;
      continue;
    }
    const core::Sketch direct =
        sketcher->SketchOf(data.Window(row, col, rows, cols));
    double diff = 0.0;
    double scale = 0.0;
    for (size_t j = 0; j < direct.size(); ++j) {
      diff = std::max(diff, std::abs(pooled->values[j] - direct.values[j]));
      scale = std::max(scale, std::abs(direct.values[j]));
    }
    if (!(diff <= kCheckRelTol * scale)) ++failures;
  }
  if (failures > 0) {
    report->CheckFailed(std::to_string(failures) + " of " +
                        std::to_string(kCheckedSketches) +
                        " sampled canonical sketches differ from SketchOf");
  }
}

}  // namespace

void RunPoolBuild(const RunArgs& args, Report* report) {
  // Input: generated from the seed, handed to the program as a table file.
  data::SixRegionOptions gen;
  gen.rows = kTableSide;
  gen.cols = kTableSide;
  gen.seed = args.seed;
  auto generated = data::GenerateSixRegion(gen);
  if (!generated.ok()) {
    report->CheckFailed("GenerateSixRegion: " + generated.status().ToString());
    return;
  }
  const std::string table_path = args.work_dir + "/table.tskt";
  if (auto st = table::WriteBinary(generated->table, table_path); !st.ok()) {
    report->CheckFailed("WriteBinary: " + st.ToString());
    return;
  }

  // Set-up: reading the table, as `tabsketch pool-build` does.
  std::vector<double> setup_s;
  std::optional<table::Matrix> data;
  for (size_t i = 0; i < kSetupReps; ++i) {
    data.reset();
    setup_s.push_back(TimeSeconds([&] {
      auto read = table::ReadBinary(table_path);
      if (read.ok()) data = std::move(read).value();
    }));
  }
  if (!data) {
    report->CheckFailed("ReadBinary failed");
    return;
  }

  core::SketchParams params;
  params.p = 1.0;
  params.k = 16;
  core::PoolOptions options;
  options.log2_min_rows = kLog2MinWindow;
  options.log2_max_rows = kLog2MaxWindow;
  options.log2_min_cols = kLog2MinWindow;
  options.log2_max_cols = kLog2MaxWindow;
  options.threads = util::DefaultThreadCount();

  PhaseCount builds;
  std::optional<core::SketchPool> last_pool;
  auto build_once = [&]() -> double {
    last_pool.reset();  // one ~2 GB pool alive at a time
    ++builds.sent;
    const double start = NowSeconds();
    std::optional<core::SketchPool> pool;
    {
      util::ScopedSpan op(std::string("op.pool_build"));
      util::ScopedSpan call(std::string("bench.core.pool.Build"));
      auto built = core::SketchPool::Build(*data, params, options);
      if (built.ok()) pool = std::move(built).value();
    }
    const double seconds = NowSeconds() - start;
    if (pool) {
      ++builds.succeeded;
      last_pool = std::move(pool);
    } else {
      ++builds.failed;
    }
    return seconds;
  };

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<double> build_s =
      RepeatWithin(untraced_budget, kMinBuilds, build_once);
  std::vector<double> build_ms;
  for (double s : build_s) build_ms.push_back(s * 1e3);

  if (!args.trace) {
    report->Phase("build", builds);
    ReportEndToEnd(report, setup_s, build_ms, "SketchPool::Build");
    report->Figure("pool_build_s", Median(build_s), "s", build_s.size());
  } else {
    // Traced half: the program's counters and spans plus the benchmark's
    // own span around every Build.
    std::vector<double> traced_ms;
    std::vector<Span> spans;
    double cpu_s = 0.0;
    double wall_s = 0.0;
    {
      TraceSession session(1u << 14);
      const double cpu_start = ProcessCpuSeconds();
      const std::vector<double> traced_s =
          RepeatWithin(args.seconds / 2, kMinBuilds, build_once);
      cpu_s = ProcessCpuSeconds() - cpu_start;
      for (double s : traced_s) {
        traced_ms.push_back(s * 1e3);
        wall_s += s;
      }
      spans = session.Stop();
      if (session.dropped() > 0) {
        report->Note("trace dropped " + std::to_string(session.dropped()) +
                     " events");
      }
    }
    report->Phase("build", builds);
    const double n = static_cast<double>(traced_ms.size());
    report->Layer("core.pool.build_s", SpanSeconds("bench.core.pool.Build") / n);
    report->Layer("fft.plan_s", SpanSeconds("fft.plan") / n);
    report->Layer("fft.plan_constructions",
                  CounterValue("fft.plan.constructions") / n);
    const double pair_calls = CounterValue("fft.correlate_pair.calls");
    const double single_calls = CounterValue("fft.correlate.calls");
    const double correlate_s = SpanSeconds("fft.correlate");
    report->Layer("fft.correlate_pair_calls", pair_calls / n);
    report->Layer("fft.correlate_busy_s", correlate_s / n);
    const double calls = HistogramCount("span.fft.correlate.seconds");
    if (calls > 0) {
      report->Layer("fft.correlate_ms_per_call", correlate_s / calls * 1e3);
      // Computed, not counted: a pair call runs one forward and one inverse
      // complex transform of the padded table (P points, 5 P log2 P flops
      // each); a single-kernel call does the same.
      const double p = static_cast<double>(NextPowerOfTwo(data->rows()) *
                                           NextPowerOfTwo(data->cols()));
      const double flops =
          (pair_calls + single_calls) * 2.0 * 5.0 * p * std::log2(p);
      report->Layer("fft.gflops", flops / correlate_s * 1e-9);
    }
    if (last_pool) {
      double bytes = 0.0;
      for (const auto& [size, field] : last_pool->fields()) {
        bytes += static_cast<double>(field.position_rows() *
                                     field.position_cols() * field.k()) *
                 sizeof(double);
      }
      report->Layer("core.pool.canonical_sizes",
                    static_cast<double>(last_pool->CanonicalSizes().size()));
      report->Layer("core.pool.mb", bytes / (1024.0 * 1024.0));
      for (const auto& [rows, cols] : last_pool->CanonicalSizes()) {
        const std::string size =
            std::to_string(rows) + "x" + std::to_string(cols);
        report->Layer("core.pool.size_s." + size,
                      HistogramSum("span.pool.build.size_" + size +
                                   ".seconds") /
                          n);
      }
    }
    report->Layer("util.parallel.busy_frac",
                  cpu_s / (wall_s * static_cast<double>(options.threads)));
    ReportAttribution(spans, report);
    report->Layer("trace_overhead_frac", OverheadFraction(build_ms, traced_ms));

    // RNG layer: the stable kernels of every canonical size, generated
    // directly (the pool build draws the same ones through its Sketcher).
    double rng_s = 0.0;
    for (size_t i = kLog2MinWindow; i <= kLog2MaxWindow; ++i) {
      for (size_t j = kLog2MinWindow; j <= kLog2MaxWindow; ++j) {
        rng_s += TimeSeconds([&] {
          auto kernels = core::StableRandomMatrices(params, size_t{1} << i,
                                                    size_t{1} << j);
          if (kernels.size() != params.k) report->CheckFailed("kernel count");
        });
      }
    }
    report->Layer("rng.kernel_gen_s", rng_s);
  }

  // Output check, outside the timed window, on the last pool built.
  if (last_pool) {
    CheckPool(*last_pool, *data, params, args.seed, report);
  } else {
    report->CheckFailed("no pool was built");
  }
}

}  // namespace perfbench
