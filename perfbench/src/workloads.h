#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"

/// The four workloads. Each generates its inputs from the seed, times the
/// program's set-up calls, runs its timed phase (untraced; with --trace 1
/// half untraced and half traced), checks its outputs outside the timed
/// window and fills `report`.
namespace perfbench {

void RunPoolBuild(const RunArgs& args, Report* report);
void RunKMeans(const RunArgs& args, Report* report);
void RunServeKnn(const RunArgs& args, Report* report);
void RunServeIngest(const RunArgs& args, Report* report);

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `op` (which returns its own duration in seconds) repeatedly for
/// `budget_s`: another repetition starts only if the previous one would
/// still fit, and at least `min_reps` run. Returns the durations.
std::vector<double> RepeatWithin(double budget_s, size_t min_reps,
                                 const std::function<double()>& op);

/// Times `fn` in seconds.
double TimeSeconds(const std::function<void()>& fn);

/// Adds the figure lines `<name>_p50_ms` and `<name>_p99_ms` for a latency
/// sample; the latter is the tail under the ten-samples-beyond rule, with
/// its actual quantile noted when the sample is too small for a p99.
void ReportTiming(Report* report, const std::string& name,
                  const std::vector<double>& ms);

/// End-to-end metrics shared by every workload: setup_s (median of the
/// set-up repetitions), peak_rss_mb, and op_p50_ms of the workload's
/// primary operation.
void ReportEndToEnd(Report* report, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms, const std::string& op);

/// Relative difference (traced - untraced) / untraced of two medians.
double OverheadFraction(const std::vector<double>& untraced,
                        const std::vector<double>& traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
