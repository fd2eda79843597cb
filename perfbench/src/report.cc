#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Full-precision JSON number; non-finite values (never expected) print 0
/// so the line stays valid JSON.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Size of the first cpu0 cache of `level` holding data ("32K"-style as
/// sysfs prints it), or "unknown".
std::string CacheSize(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string lvl = ReadFirstLine(dir + "/level");
    if (lvl.empty()) break;
    if (std::stoi(lvl) != level) continue;
    if (ReadFirstLine(dir + "/type") == "Instruction") continue;
    return ReadFirstLine(dir + "/size");
  }
  return "unknown";
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"op_p50_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"rng.kernel_gen_s", "s"},
        {"fft.plan_s", "s"},
        {"fft.plan_constructions", "count"},
        {"fft.correlate_pair_calls", "count"},
        {"fft.correlate_busy_s", "s"},
        {"fft.correlate_ms_per_call", "ms"},
        {"fft.gflops", "GFLOP/s"},
        {"core.pool.build_s", "s"},
        {"core.pool.canonical_sizes", "count"},
        {"core.pool.mb", "MB"},
    };
    static const char* const kSizes[] = {
        "core.pool.size_s.8x8",   "core.pool.size_s.8x16",
        "core.pool.size_s.8x32",  "core.pool.size_s.8x64",
        "core.pool.size_s.16x8",  "core.pool.size_s.16x16",
        "core.pool.size_s.16x32", "core.pool.size_s.16x64",
        "core.pool.size_s.32x8",  "core.pool.size_s.32x16",
        "core.pool.size_s.32x32", "core.pool.size_s.32x64",
        "core.pool.size_s.64x8",  "core.pool.size_s.64x16",
        "core.pool.size_s.64x32", "core.pool.size_s.64x64",
    };
    for (const char* name : kSizes) s.push_back({name, "s"});
    const std::vector<MetricSpec> rest = {
        {"util.parallel.busy_frac", "fraction"},
        {"core.sketcher.sketch_tiles_s", "s"},
        {"core.sketcher.sketch_of_calls", "count"},
        {"core.sketcher.sketch_of_us", "us"},
        {"core.estimator.calls", "count"},
        {"core.estimator.ns_per_call", "ns"},
        {"core.cache.lookups", "count"},
        {"core.cache.hit_ratio", "fraction"},
        {"core.cache.evictions", "count"},
        {"core.cache.compute_busy_s", "s"},
        {"core.quant.scan_tiles", "count"},
        {"core.quant.kept_frac", "fraction"},
        {"core.quant.scan_busy_s", "s"},
        {"cluster.iterations", "count"},
        {"cluster.distance_evals", "count"},
        {"cluster.assign_s", "s"},
        {"cluster.update_s", "s"},
        {"serve.engine.distance_us", "us"},
        {"serve.engine.knn_ms", "ms"},
        {"serve.server.overhead_us", "us"},
        {"serve.server.queue_wait_p99_ms", "ms"},
        {"serve.server.shed", "count"},
        {"serve.server.deadline_expired", "count"},
        {"serve.server.errors", "count"},
        {"serve.snapshot.create_s", "s"},
        {"serve.snapshot.swaps", "count"},
        {"serve.ingest.append_p50_ms", "ms"},
        {"serve.ingest.append_p99_ms", "ms"},
        {"core.growing.tiles_sketched", "count"},
        {"serve.ingest.tiles_reused", "count"},
        {"serve.ingest.codes_rebuilt", "count"},
        {"client.sent", "count"},
        {"client.failed", "count"},
        {"client.lateness_p99_ms", "ms"},
        {"unattributed_frac", "fraction"},
        {"trace_overhead_frac", "fraction"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

void Report::EndToEnd(const std::string& name, double value, size_t samples,
                      const std::string& detail) {
  for (const MetricSpec& spec : EndToEndMetrics()) {
    if (name == spec.name) {
      e2e_[name] = Value{value, spec.unit, samples, detail};
      return;
    }
  }
  CheckFailed("internal: unknown end-to-end metric " + name);
}

void Report::Figure(const std::string& name, double value,
                    const std::string& unit, size_t samples,
                    const std::string& detail) {
  figures_.emplace_back(name, Value{value, unit, samples, detail});
}

void Report::Layer(const std::string& name, double value) {
  for (const MetricSpec& spec : LayerMetrics()) {
    if (name == spec.name) {
      layers_[name] = value;
      return;
    }
  }
  CheckFailed("internal: unknown layer metric " + name);
}

void Report::Phase(const std::string& name, const PhaseCount& count) {
  phases_.emplace_back(name, count);
}

void Report::CheckFailed(const std::string& what) {
  ++check_failures_;
  notes_.push_back("CHECK FAILED: " + what);
}

void Report::Invalid(const std::string& why) {
  if (invalid_reason_.empty()) invalid_reason_ = why;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

int Report::Print() const {
  std::ostream& out = std::cout;
  out << "fingerprint " << FingerprintJson(args_) << "\n";
  out << "run workload=" << args_.workload << " seed=" << args_.seed
      << " seconds=" << args_.seconds << " trace=" << (args_.trace ? 1 : 0)
      << "\n";
  for (const std::string& note : notes_) out << "note " << note << "\n";
  size_t attempted = 0;
  size_t failed = check_failures_;
  for (const auto& [name, c] : phases_) {
    out << "phase " << name << " sent=" << c.sent
        << " succeeded=" << c.succeeded << " failed=" << c.failed
        << " shed=" << c.shed << " deadline_expired=" << c.deadline_expired
        << "\n";
    attempted += c.sent;
    failed += c.failed + c.shed + c.deadline_expired;
  }
  attempted += check_failures_;
  if (attempted == 0) attempted = 1;
  auto line = [&](const char* kind, const std::string& name, const Value& v) {
    out << kind << " " << name << " = " << Num(v.value) << " " << v.unit
        << " (n=" << v.samples << ")";
    if (!v.detail.empty()) out << " [" << v.detail << "]";
    out << "\n";
  };
  for (const auto& [name, v] : figures_) line("figure", name, v);
  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  auto emit = [&](const std::string& name, double value, const char* unit) {
    metrics << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << Num(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (args_.trace) {
    for (const MetricSpec& spec : LayerMetrics()) {
      const auto it = layers_.find(spec.name);
      const double value = it == layers_.end() ? 0.0 : it->second;
      line("layer", spec.name, Value{value, spec.unit, 1, ""});
      emit(spec.name, value, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : EndToEndMetrics()) {
      const auto it = e2e_.find(spec.name);
      if (it == e2e_.end()) {
        out << "CHECK FAILED: internal: end-to-end metric " << spec.name
            << " was not measured\n";
        return 1;
      }
      line("metric", spec.name, it->second);
      emit(spec.name, it->second.value, spec.unit);
    }
  }
  metrics << "}";
  if (!valid()) {
    // The load generator missed its schedule, so these timings measure the
    // generator as much as the program. The result line still follows (the
    // run's outputs were checked); readers must not take it as a slowdown.
    out << "INVALID RUN: " << invalid_reason_ << "\n";
  }
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": " << metrics.str() << "}\n";
  out.flush();
  return correct() && failed == 0 ? 0 : 1;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!in || cpu != "cpu") return CpuTicks{};
  return CpuTicks{user + nice + system + irq + softirq, steal};
}

std::string FingerprintJson(const RunArgs& args) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu\": \""
     << JsonEscape(CpuModel()) << "\", \"l2\": \"" << CacheSize(2)
     << "\", \"l3\": \"" << CacheSize(3) << "\", \"compiler\": \""
     << JsonEscape(__VERSION__) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"TABSKETCH_SIMD\": "
     << (PERFBENCH_SIMD ? "true" : "false")
     << ", \"TABSKETCH_METRICS\": " << (PERFBENCH_METRICS ? "true" : "false")
     << ", \"commit\": \"" << JsonEscape(args.commit) << "\", \"seed\": "
     << args.seed << "}";
  return os.str();
}

}  // namespace perfbench
