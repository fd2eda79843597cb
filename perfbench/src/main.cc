// perfbench: the repository's end-to-end, layer-attributed benchmark.
//
//   perfbench --workload <pool_build|kmeans|serve_knn|serve_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--commit <id>]
//
// Normally started through perfbench/run.py, which builds it first. Prints
// a fingerprint line, one line per metric and, last, one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. Exits nonzero when an
// output check fails.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.h"
#include "rng/splitmix64.h"
#include "workloads.h"

namespace perfbench {

std::vector<double> RepeatWithin(double budget_s, size_t min_reps,
                                 const std::function<double()>& op) {
  std::vector<double> durations;
  const double start = NowSeconds();
  for (;;) {
    const double elapsed = NowSeconds() - start;
    if (durations.size() >= min_reps &&
        (durations.empty() || elapsed + durations.back() > budget_s)) {
      break;
    }
    durations.push_back(op());
  }
  return durations;
}

double TimeSeconds(const std::function<void()>& fn) {
  const double start = NowSeconds();
  fn();
  return NowSeconds() - start;
}

void ReportTiming(Report* report, const std::string& name,
                  const std::vector<double>& ms) {
  const Tail tail = TailOf(ms);
  report->Figure(name + "_p50_ms", Median(ms), "ms", ms.size());
  report->Figure(name + "_p99_ms", tail.value, "ms", ms.size(),
                 tail.quantile == 0.99
                     ? std::string()
                     : "fewer than 1000 samples: " +
                           QuantileLabel(tail.quantile));
}

void ReportEndToEnd(Report* report, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms, const std::string& op) {
  const Quartiles setup = ComputeQuartiles(setup_s);
  report->EndToEnd("setup_s", Median(setup_s), setup_s.size(),
                   "q1 " + std::to_string(setup.q1) + " q3 " +
                       std::to_string(setup.q3));
  report->EndToEnd("peak_rss_mb", PeakRssMb(), 1);
  report->EndToEnd("op_p50_ms", Median(op_ms), op_ms.size(), op);
}

double OverheadFraction(const std::vector<double>& untraced,
                        const std::vector<double>& traced) {
  const double base = Median(untraced);
  return base > 0.0 ? (Median(traced) - base) / base : 0.0;
}

namespace {

/// Milliseconds a fixed single-threaded integer loop takes. The machine's
/// speed can change by 1.6-2x for minutes at a time with little steal
/// (another tenant on the same cores), so every run notes it before and
/// after its work: compare timings only between runs whose notes agree.
volatile uint64_t reference_sink = 0;  // keeps the loop from being elided

double ReferenceLoopMs() {
  tabsketch::rng::SplitMix64 rng(1);
  uint64_t x = 0;
  const double start = NowSeconds();
  for (int i = 0; i < (1 << 25); ++i) x ^= rng.Next();
  reference_sink = x;
  return (NowSeconds() - start) * 1e3;
}

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload <pool_build|kmeans|serve_knn|"
               "serve_ingest> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--commit <id>]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  void (*run)(const RunArgs&, Report*) = nullptr;
  if (args.workload == "pool_build") run = RunPoolBuild;
  if (args.workload == "kmeans") run = RunKMeans;
  if (args.workload == "serve_knn") run = RunServeKnn;
  if (args.workload == "serve_ingest") run = RunServeIngest;
  if (run == nullptr) return Usage("unknown workload '" + args.workload + "'");

  // Every input file lives in a per-process directory under the work dir,
  // removed again before exit.
  const std::filesystem::path dir =
      std::filesystem::path(args.work_dir) /
      (args.workload + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  args.work_dir = std::filesystem::absolute(dir).string();
  Report report(args);
  const double reference_before_ms = ReferenceLoopMs();
  const CpuTicks before = ReadCpuTicks();
  run(args, &report);
  const CpuTicks after = ReadCpuTicks();
  report.Note("machine reference loop " + std::to_string(reference_before_ms) +
              " ms before the run, " + std::to_string(ReferenceLoopMs()) +
              " ms after");
  // Time the hypervisor took from this machine's vCPUs while they had work:
  // a run with a large share measured the host as much as the program.
  const double busy = static_cast<double>(after.busy - before.busy);
  const double steal = static_cast<double>(after.steal - before.steal);
  if (busy + steal > 0) {
    report.Note("machine steal " + std::to_string(steal / (busy + steal)) +
                " of demanded CPU time during the run");
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  return report.Print();
}
