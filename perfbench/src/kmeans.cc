// kmeans: the paper's mining job (Fig 3 timing, Fig 4b quality). 1024x1024
// six-region tables with 1% outliers in 8x8 tiles (16384 tiles), p=0.5,
// sketch k=64, 6 clusters, precomputed sketches, at most 50 iterations,
// threads = nproc. Time goes to tile sketching, the median estimator and
// the Lloyd loops; no FFT or socket.
//
// Lloyd's loop usually runs into the 50-iteration cap on these tables but
// converges after ~10 iterations on about one table in ten, a 4x faster
// job. So each run clusters five tables derived from its seed in turn: the
// median job then stays put when one of them converges early, instead of
// the whole run jumping with its seed.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/sketch_backend.h"
#include "data/six_region.h"
#include "eval/confusion.h"
#include "layers.h"
#include "rng/splitmix64.h"
#include "table/table_io.h"
#include "table/tiling.h"
#include "util/parallel.h"
#include "util/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tabsketch;

constexpr size_t kTableSide = 1024;
constexpr size_t kTileSide = 8;
constexpr size_t kClusters = 6;
constexpr size_t kTables = 5;
constexpr size_t kSetupReps = 41;

struct Input {
  data::SixRegionData generated;
  std::string path;
  std::unique_ptr<table::Matrix> data;
  std::unique_ptr<table::TileGrid> grid;
  std::vector<std::vector<int>> assignments;  // one per job on this table
  size_t iterations = 0;
  size_t distance_evaluations = 0;
};

}  // namespace

void RunKMeans(const RunArgs& args, Report* report) {
  std::vector<Input> inputs(kTables);
  for (size_t t = 0; t < kTables; ++t) {
    data::SixRegionOptions gen;
    gen.rows = kTableSide;
    gen.cols = kTableSide;
    gen.outlier_fraction = 0.01;
    gen.seed = rng::MixSeeds(args.seed, t);
    auto generated = data::GenerateSixRegion(gen);
    if (!generated.ok()) {
      report->CheckFailed("GenerateSixRegion: " +
                          generated.status().ToString());
      return;
    }
    inputs[t].generated = std::move(generated).value();
    inputs[t].path = args.work_dir + "/table" + std::to_string(t) + ".tskt";
    if (auto st = table::WriteBinary(inputs[t].generated.table, inputs[t].path);
        !st.ok()) {
      report->CheckFailed("WriteBinary: " + st.ToString());
      return;
    }
  }

  // Set-up: read the tables and tile them, as `tabsketch cluster` does.
  std::vector<double> setup_s;
  for (size_t i = 0; i < kSetupReps; ++i) {
    setup_s.push_back(TimeSeconds([&] {
      for (Input& input : inputs) {
        input.grid.reset();
        input.data.reset();
        auto read = table::ReadBinary(input.path);
        if (!read.ok()) return;
        input.data = std::make_unique<table::Matrix>(std::move(read).value());
        auto tiled =
            table::TileGrid::Create(input.data.get(), kTileSide, kTileSide);
        if (tiled.ok()) input.grid = std::make_unique<table::TileGrid>(*tiled);
      }
    }));
  }
  for (const Input& input : inputs) {
    if (!input.grid) {
      report->CheckFailed("ReadBinary/TileGrid::Create failed");
      return;
    }
  }

  core::SketchParams params;
  params.p = 0.5;
  params.k = 64;
  cluster::KMeansOptions kmeans;
  kmeans.k = kClusters;
  kmeans.max_iterations = 50;
  kmeans.threads = util::DefaultThreadCount();

  PhaseCount jobs;
  auto job_once = [&](Input& input) -> double {
    ++jobs.sent;
    const double start = NowSeconds();
    std::optional<cluster::KMeansResult> result;
    {
      util::ScopedSpan op(std::string("op.kmeans"));
      std::optional<cluster::SketchBackend> backend;
      {
        util::ScopedSpan call(std::string("bench.cluster.SketchBackend"));
        auto created = cluster::SketchBackend::Create(
            input.grid.get(), params, cluster::SketchMode::kPrecomputed,
            core::EstimatorKind::kAuto, kmeans.threads);
        if (created.ok()) backend.emplace(std::move(created).value());
      }
      if (backend) {
        util::ScopedSpan call(std::string("bench.cluster.RunKMeans"));
        auto run = cluster::RunKMeans(&*backend, kmeans);
        if (run.ok()) result = std::move(run).value();
      }
    }
    const double seconds = NowSeconds() - start;
    if (result) {
      ++jobs.succeeded;
      input.iterations = result->iterations;
      input.distance_evaluations = result->distance_evaluations;
      input.assignments.push_back(std::move(result->assignment));
    } else {
      ++jobs.failed;
    }
    return seconds;
  };

  // Jobs run in whole rounds over the tables, so every table weighs the
  // same in a run's figures and per-job counts are exact.
  auto rounds_within = [&](double budget_s, size_t min_rounds,
                           std::vector<double>* ms) {
    return RepeatWithin(budget_s, min_rounds, [&] {
             double round_s = 0.0;
             for (Input& input : inputs) {
               const double s = job_once(input);
               ms->push_back(s * 1e3);
               round_s += s;
             }
             return round_s;
           })
        .size();
  };

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> job_ms;
  // At least two rounds: on a loaded machine one round can take more than
  // half the budget, and a median of five jobs jumps with a single one.
  rounds_within(untraced_budget, args.trace ? 1 : 2, &job_ms);

  if (!args.trace) {
    report->Phase("kmeans", jobs);
    ReportEndToEnd(report, setup_s, job_ms,
                   "SketchBackend::Create + RunKMeans");
    report->Figure("kmeans_s", Median(job_ms) * 1e-3, "s", job_ms.size());
  } else {
    std::vector<double> traced_ms;
    std::vector<Span> spans;
    double cpu_s = 0.0;
    size_t rounds = 0;
    {
      TraceSession session(1u << 14);
      const double cpu_start = ProcessCpuSeconds();
      rounds = rounds_within(args.seconds / 2, 1, &traced_ms);
      cpu_s = ProcessCpuSeconds() - cpu_start;
      spans = session.Stop();
    }
    double wall_s = 0.0;
    for (double ms : traced_ms) wall_s += ms * 1e-3;
    report->Phase("kmeans", jobs);
    const double n = static_cast<double>(rounds * kTables);
    double iterations = 0.0;
    double evaluations = 0.0;
    for (const Input& input : inputs) {
      iterations += static_cast<double>(input.iterations);
      evaluations += static_cast<double>(input.distance_evaluations);
    }
    report->Layer("cluster.iterations", iterations / kTables);
    report->Layer("cluster.distance_evals", evaluations / kTables);
    report->Layer("cluster.assign_s", SpanSeconds("cluster.assign") / n);
    report->Layer("cluster.update_s", SpanSeconds("cluster.update") / n);
    report->Layer("core.estimator.calls",
                  CounterValue("estimator.estimate.calls") / n);
    report->Layer("core.sketcher.sketch_tiles_s",
                  SpanSeconds("sketcher.sketch_tiles") / n);
    report->Layer("core.sketcher.sketch_of_calls",
                  CounterValue("sketcher.sketch_of.calls") / n);
    const double scanned = CounterValue("quant.scan.tiles");
    report->Layer("core.quant.scan_tiles", scanned / n);
    report->Layer("core.quant.kept_frac",
                  scanned > 0 ? CounterValue("quant.candidates.kept") / scanned
                              : 0.0);
    report->Layer("core.quant.scan_busy_s", SpanSeconds("quant.scan") / n);
    report->Layer("util.parallel.busy_frac",
                  cpu_s / (wall_s * static_cast<double>(kmeans.threads)));
    ReportAttribution(spans, report);
    report->Layer("trace_overhead_frac", OverheadFraction(job_ms, traced_ms));
    ProbeSketcherAndEstimator(params, *inputs[0].grid, args.seed, report);
  }

  // Output checks, outside the timed window: every tile assigned and every
  // repetition on a table identical; the Fig 4b agreement with the ground
  // truth, per table.
  std::vector<double> agreement;
  std::vector<double> iterations;
  for (size_t t = 0; t < kTables; ++t) {
    const Input& input = inputs[t];
    if (input.assignments.empty()) {
      report->CheckFailed("no k-means job completed on table " +
                          std::to_string(t));
      continue;
    }
    const std::vector<int>& assignment = input.assignments.front();
    size_t unassigned = 0;
    for (int cluster : assignment) unassigned += cluster < 0 ? 1 : 0;
    if (assignment.size() != input.grid->num_tiles() || unassigned > 0) {
      report->CheckFailed("table " + std::to_string(t) + ": " +
                          std::to_string(unassigned) + " of " +
                          std::to_string(input.grid->num_tiles()) +
                          " tiles unassigned");
    }
    for (const std::vector<int>& other : input.assignments) {
      if (other != assignment) {
        report->CheckFailed("table " + std::to_string(t) +
                            ": k-means repetitions disagree");
        break;
      }
    }
    const std::vector<int> truth =
        data::GroundTruthForTiles(input.generated, *input.grid);
    agreement.push_back(eval::BestMatchAgreement(assignment, truth, kClusters));
    iterations.push_back(static_cast<double>(input.iterations));
  }
  report->Figure("kmeans_agreement", Median(agreement), "fraction",
                 agreement.size(), "median over tables");
  report->Figure("kmeans_iterations", Median(iterations), "count",
                 iterations.size(), "median over tables");
}

}  // namespace perfbench
