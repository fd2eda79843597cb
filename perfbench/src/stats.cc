#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

Quartiles ComputeQuartiles(std::vector<double> samples) {
  Quartiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n < 2) {
    out.q1 = out.q2 = out.q3 = samples[0];
    return out;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i at
  // 1-based position i * m / 4, j clamped to [1, n - 1].
  const size_t m = n + 1;
  double cuts[3];
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cuts[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  out.q1 = cuts[0];
  out.q2 = cuts[1];
  out.q3 = cuts[2];
  return out;
}

Tail TailOf(std::vector<double> samples, double cap) {
  Tail out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const double n = static_cast<double>(samples.size());
  double q = std::min(cap, 1.0 - 10.0 / n);
  if (q <= 0.5) q = 0.75;  // no quantile above the median qualifies
  out.quantile = q;
  out.value = Quantile(std::move(samples), q);
  return out;
}

std::string QuantileLabel(double q) {
  if (q >= 1.0) return "max";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%.4g", q * 100.0);
  return buf;
}

uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                   uint64_t lo, uint64_t hi) {
  if (hi <= lo) return 0;
  for (auto& [start, end] : intervals) {
    start = std::clamp(start, lo, hi);
    end = std::clamp(end, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const uint64_t from = std::max(start, cursor);
    if (end > from) {
      covered += end - from;
      cursor = end;
    }
  }
  return covered;
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  // Order each track's spans by start, outer (longer) first on ties, then
  // walk them with a stack of open ancestors: the parent of a span is the
  // innermost open span that contains it.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.track != y.track) return x.track < y.track;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.end_ns > y.end_ns;
  });
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  std::vector<size_t> stack;
  uint32_t track = 0;
  for (size_t idx : order) {
    const Span& span = spans[idx];
    if (stack.empty() || span.track != track) {
      stack.clear();
      track = span.track;
    }
    while (!stack.empty() &&
           !(spans[stack.back()].start_ns <= span.start_ns &&
             span.end_ns <= spans[stack.back()].end_ns)) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      children[stack.back()].emplace_back(span.start_ns, span.end_ns);
    }
    stack.push_back(idx);
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              CoveredNs(std::move(children[i]), spans[i].start_ns,
                        spans[i].end_ns);
  }
  return self;
}

std::map<std::string, double> SelfSecondsByName(
    const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

double UnattributedFraction(
    const std::vector<Span>& spans,
    const std::function<bool(const std::string&)>& is_root) {
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  double root_ns = 0.0;
  double root_self_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!is_root(spans[i].name)) continue;
    root_ns += static_cast<double>(spans[i].duration());
    root_self_ns += static_cast<double>(self[i]);
  }
  return root_ns > 0.0 ? root_self_ns / root_ns : 0.0;
}

double RateLadder::Rate(size_t rung) const {
  return base * std::pow(ratio, static_cast<double>(rung));
}

int HighestPassingRung(size_t rungs, const std::function<bool(size_t)>& probe,
                       std::vector<size_t>* probed) {
  // Invariant: every rung < lo passes (known or assumed), every rung >= hi
  // fails.
  size_t lo = 0;
  size_t hi = rungs;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (probed != nullptr) probed->push_back(mid);
    if (probe(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<int>(lo) - 1;
}

}  // namespace perfbench
