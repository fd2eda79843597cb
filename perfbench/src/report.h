#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// What one invocation was asked to do (the driver's four flags plus the
/// run.py-supplied scratch directory and source identity).
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
  std::string commit = "unknown";
};

/// Operation accounting for one phase of a workload.
struct PhaseCount {
  size_t sent = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  size_t shed = 0;
  size_t deadline_expired = 0;
  PhaseCount& operator+=(const PhaseCount& other) {
    sent += other.sent;
    succeeded += other.succeeded;
    failed += other.failed;
    shed += other.shed;
    deadline_expired += other.deadline_expired;
    return *this;
  }
};

/// Collects one run's metrics, checks and accounting and prints them: one
/// human-readable line per metric (name, value, unit, sample count), then
/// the final JSON line with exactly `correct`, `attempted`, `failed` and
/// `metrics` — the end-to-end metrics untraced, the per-layer metrics
/// traced.
class Report {
 public:
  explicit Report(const RunArgs& args) : args_(args) {}

  /// An end-to-end metric (reported only by untraced runs). `detail` is a
  /// free-form note for the human line, e.g. the tail's actual quantile.
  void EndToEnd(const std::string& name, double value, size_t samples,
                const std::string& detail = "");
  /// A workload-specific figure printed for people (issue-level names such
  /// as `knn_p99_ms`); not part of the JSON line.
  void Figure(const std::string& name, double value, const std::string& unit,
              size_t samples, const std::string& detail = "");
  /// A per-layer metric (reported only by traced runs). Unset layer metrics
  /// read 0: the workload bypasses that layer.
  void Layer(const std::string& name, double value);

  void Phase(const std::string& name, const PhaseCount& count);
  /// Records a failed output check; the run then prints `correct: false`
  /// and exits nonzero.
  void CheckFailed(const std::string& what);
  /// Marks the run invalid (the load generator fell behind its schedule):
  /// its timings measure the generator as well as the program. Printed as
  /// an `INVALID RUN` line before the result.
  void Invalid(const std::string& why);
  void Note(const std::string& line);

  bool correct() const { return check_failures_ == 0; }
  bool valid() const { return invalid_reason_.empty(); }

  /// Prints everything; returns the process exit code.
  int Print() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
    std::string detail;
  };
  RunArgs args_;
  std::map<std::string, Value> e2e_;
  std::vector<std::pair<std::string, Value>> figures_;
  std::map<std::string, double> layers_;
  std::vector<std::pair<std::string, PhaseCount>> phases_;
  std::vector<std::string> notes_;
  size_t check_failures_ = 0;
  std::string invalid_reason_;
};

/// Names and units of the end-to-end and per-layer metrics, in
/// BENCHMARK.json order (run.py checks the two agree).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& LayerMetrics();

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();

/// Machine-wide CPU ticks from /proc/stat: busy (user + nice + system +
/// irq + softirq) and steal. Zero where unavailable.
struct CpuTicks {
  uint64_t busy = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// One JSON object describing the machine and build: nproc, CPU model,
/// L2/L3 sizes, compiler, build type, TABSKETCH_SIMD/TABSKETCH_METRICS and
/// the source identity.
std::string FingerprintJson(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
