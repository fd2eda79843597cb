#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

/// The benchmark's statistics: percentiles under the ten-samples-beyond rule,
/// quartiles, self time of nested spans, the unattributed remainder and the
/// rate-ladder search. Pure functions over plain data, unit-tested in
/// perfbench/tests/stats_test.cc.
namespace perfbench {

/// Linear-interpolation quantile (numpy's default): position q * (n - 1) in
/// the sorted samples. q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method). Needs at least two samples; with fewer
/// all three quartiles are the single sample (or 0 when empty).
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> samples);

/// The tail a timing is reported at: the highest quantile, capped at
/// `cap` (0.99), that still leaves at least ten samples strictly beyond it,
/// i.e. q = min(cap, 1 - 10/n). A p99 therefore needs n >= 1000. With
/// n <= 20 no quantile above the median qualifies; the tail is then the
/// third quartile (p75), which a handful of repetitions measures far more
/// steadily than their maximum.
struct Tail {
  double quantile = 0.0;  // the quantile actually used
  double value = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> samples, double cap = 0.99);

/// Human label of a quantile: 0.99 -> "p99", 0.875 -> "p87.5", 1 -> "max".
std::string QuantileLabel(double q);

/// One closed interval of a trace. `track` is a thread (or a virtual
/// per-request track); spans of one track nest properly.
struct Span {
  std::string name;
  uint32_t track = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t duration() const { return end_ns - start_ns; }
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi);

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. A child is a span of the same track
/// inside the parent's interval with no closer enclosing span. Returned in
/// input order.
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, double> SelfSecondsByName(const std::vector<Span>& spans);

/// Share of the root spans' time (spans whose name satisfies `is_root`) not
/// covered by any child span: sum of root self times over sum of root
/// durations. 0 when there is no root time.
double UnattributedFraction(const std::vector<Span>& spans,
                            const std::function<bool(const std::string&)>& is_root);

/// A fixed geometric rate ladder: rung i is base * ratio^i, i < rungs.
struct RateLadder {
  double base = 1.0;
  double ratio = 1.1;
  size_t rungs = 1;
  double Rate(size_t rung) const;
};

/// Bisection over the ladder for the highest rung that passes, assuming a
/// rung passes iff every lower one does. `probe(rung)` runs the load at
/// that rung and reports pass/fail; it is called O(log rungs) times and the
/// sequence of probed rungs is returned in `probed` when non-null. Returns
/// -1 when even rung 0 fails.
int HighestPassingRung(size_t rungs, const std::function<bool(size_t)>& probe,
                       std::vector<size_t>* probed = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
