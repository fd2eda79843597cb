// serve_knn: the daemon on loopback over 10000 8x8 tiles, p=1, k=64, with an
// LRU sketch cache of a quarter of the tile-sketch working set. An
// open-loop stream — distance requests with a 10% minority of `knn A 10`,
// each kind on its own connection — arrives at a fixed rate; then a fixed
// geometric rate ladder finds the highest rate that meets the latency
// limit. A knn full scan misses the cache on almost every lookup, so LRU
// and SketchOf recomputation dominate it; a distance request is bound by
// parse, format and socket cost.
#include <string>
#include <vector>

#include "core/lru_sketch_cache.h"
#include "data/six_region.h"
#include "serve_common.h"
#include "table/table_io.h"
#include "table/tiling.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tabsketch;

constexpr size_t kTableSide = 800;
constexpr size_t kTileSide = 8;
constexpr size_t kSetupReps = 41;
constexpr double kKnnShare = 0.1;
/// The fixed measuring rate (requests/s over both connections).
constexpr double kMeasureRate = 80.0;
constexpr double kWarmupSeconds = 1.0;
/// The capacity ladder: rung i offers kLadderBase * kLadderRatio^i req/s.
/// A rung passes when the tail latency of each kind of query (p99, or the
/// highest quantile with ten samples beyond it) stays within
/// kLatencyLimitMs, no
/// request fails, and on each connection the backlog left at the end of the
/// probe is at most one plus the limit's worth of its requests (so it is
/// not growing). Rungs are 10% apart.
constexpr RateLadder kLadder{40.0, 1.1, 28};
constexpr double kLatencyLimitMs = 250.0;
constexpr size_t kLadderProbes = 5;  // ceil(log2(28 + 1))
constexpr int64_t kDrainNs = int64_t{5} * 1000000000;

struct Probe {
  bool pass = false;
  double tail_ms = 0.0;
  size_t backlog = 0;
  PhaseCount count;
};

Probe RunProbe(uint16_t port, double rate, double seconds, size_t tiles,
               uint64_t seed) {
  Probe probe;
  auto client = LoopbackClient::Connect(port, 2);
  if (!client.ok()) {
    probe.count.sent = probe.count.failed = 1;
    return probe;
  }
  const int64_t start = SteadyNowNs() + 20000000;
  const std::vector<ScheduledRequest> schedule =
      QuerySchedule(rate, kKnnShare, tiles, start, seconds, seed);
  // A failing rung leaves a backlog; wait it out so it cannot load the
  // next probe.
  const std::vector<RequestOutcome> outcomes =
      (*client)->Play(schedule, 2 * kDrainNs, false);
  const PhaseStats stats = Summarize(schedule, outcomes);
  probe.count = stats.count;
  // Requests still queued when the probe gives up measure capacity, not
  // correctness: they fail the rung but are left out of the accounting.
  probe.count.sent -= stats.unanswered;
  probe.count.failed -= stats.unanswered;
  // Judged per kind: with 90% distance requests, a tail over all queries
  // taken from a short probe would never reach the knn requests.
  probe.tail_ms =
      std::max(TailOf(stats.distance_ms).value, TailOf(stats.knn_ms).value);
  // Backlog per connection at the last due time: more than the limit's
  // worth of that connection's requests still unanswered means its queue
  // is growing.
  const int64_t end = schedule.empty() ? start : schedule.back().due_ns;
  size_t backlog[2] = {0, 0};
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].reply_ns < 0 || outcomes[i].reply_ns > end) {
      ++backlog[schedule[i].conn];
    }
  }
  probe.backlog = backlog[kDistanceConn] + backlog[kKnnConn];
  const double allowed_s = kLatencyLimitMs * 1e-3;
  const bool backlog_ok =
      backlog[kDistanceConn] <= 1 + rate * (1 - kKnnShare) * allowed_s &&
      backlog[kKnnConn] <= 1 + rate * kKnnShare * allowed_s;
  const bool failures = stats.count.succeeded != stats.count.sent;
  probe.pass = !failures && probe.tail_ms <= kLatencyLimitMs && backlog_ok;
  return probe;
}

}  // namespace

void RunServeKnn(const RunArgs& args, Report* report) {
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
  auto grid = table::TileGrid::Create(&generated->table, kTileSide, kTileSide);
  if (!grid.ok()) {
    report->CheckFailed("TileGrid::Create: " + grid.status().ToString());
    return;
  }
  const size_t tiles = grid->num_tiles();

  serve::SnapshotSpec spec;
  spec.table_path = table_path;
  spec.tile_rows = kTileSide;
  spec.tile_cols = kTileSide;
  spec.params.p = 1.0;
  spec.params.k = 64;
  spec.cache_bytes = tiles * core::LruSketchCache::EntryBytes(spec.params.k) / 4;

  std::vector<double> setup_s;
  std::vector<double> create_s;
  auto stack = StartServing(spec, /*ingest=*/false, kSetupReps, &setup_s,
                            &create_s);
  if (!stack.ok()) {
    report->CheckFailed("serving set-up: " + stack.status().ToString());
    return;
  }
  const uint16_t port = stack->server->port();
  auto connected = LoopbackClient::Connect(port, 2);
  if (!connected.ok()) {
    report->CheckFailed("connect: " + connected.status().ToString());
    return;
  }
  LoopbackClient& client = **connected;

  // Warm-up (not recorded): the kernels are generated and the cache fills.
  auto play = [&](double seconds, uint64_t stream_seed,
                  std::vector<ScheduledRequest>* schedule) {
    *schedule = QuerySchedule(kMeasureRate, kKnnShare, tiles,
                              SteadyNowNs() + 20000000, seconds, stream_seed);
    return client.Play(*schedule, kDrainNs, false);
  };
  std::vector<ScheduledRequest> schedule;
  play(kWarmupSeconds, args.seed + 1, &schedule);

  // Untraced: 70% of the time at the measuring rate, 30% on the ladder.
  // Traced: half untraced, half traced, both at the measuring rate.
  const double measure_s = args.seconds * (args.trace ? 0.5 : 0.7);
  const std::vector<RequestOutcome> outcomes =
      play(measure_s, args.seed + 2, &schedule);
  const PhaseStats measured = Summarize(schedule, outcomes);
  report->Phase("measure", measured.count);
  if (TailOf(measured.lateness_ms).value > 10.0) {
    report->Invalid("load generator ran late (" +
                    std::to_string(TailOf(measured.lateness_ms).value) +
                    " ms at the tail)");
  }

  if (!args.trace) {
    // Capacity: bisection over the fixed ladder.
    const double probe_s = args.seconds * 0.3 / kLadderProbes;
    std::vector<size_t> probed;
    PhaseCount ladder;
    const int top = HighestPassingRung(
        kLadder.rungs,
        [&](size_t rung) {
          const Probe probe = RunProbe(port, kLadder.Rate(rung), probe_s,
                                       tiles, args.seed + 100 + rung);
          ladder += probe.count;
          report->Note("ladder rung " + std::to_string(rung) + " " +
                       std::to_string(kLadder.Rate(rung)) + " req/s: " +
                       (probe.pass ? "pass" : "fail") + " tail " +
                       std::to_string(probe.tail_ms) + " ms backlog " +
                       std::to_string(probe.backlog));
          return probe.pass;
        },
        &probed);
    report->Phase("ladder", ladder);
    report->Figure("query_max_rps", top < 0 ? 0.0 : kLadder.Rate(top), "req/s",
                   probed.size(), "rungs probed");
    ReportEndToEnd(report, setup_s, measured.knn_ms, "knn request");
    ReportTiming(report, "distance", measured.distance_ms);
    ReportTiming(report, "knn", measured.knn_ms);
    ReportTiming(report, "lateness", measured.lateness_ms);
  } else {
    std::vector<Span> spans;
    PhaseStats traced;
    {
      TraceSession session(1u << 20);
      const int64_t offset = SteadyNowNs() - static_cast<int64_t>(session.NowNs());
      const auto markers = SendMarkers(&client, 2);
      const std::vector<RequestOutcome> traced_outcomes =
          play(measure_s, args.seed + 3, &schedule);
      spans = session.Stop();
      traced = Summarize(schedule, traced_outcomes);
      AddRequestSpans(schedule, traced_outcomes, markers, offset, &spans,
                      report);
      if (session.dropped() > 0) {
        report->Note("trace dropped " + std::to_string(session.dropped()) +
                     " events");
      }
    }
    report->Phase("traced", traced.count);
    std::vector<double> engine_distance_ms;
    std::vector<double> engine_knn_ms;
    const auto snapshot = stack->holder->Current();
    (void)ReplayInProcess(*snapshot, SampleLines(tiles, 200, 0, args.seed),
                          &engine_distance_ms);
    (void)ReplayInProcess(*snapshot, SampleLines(tiles, 0, 16, args.seed),
                          &engine_knn_ms);
    ReportServeLayers(measured, traced, engine_distance_ms, engine_knn_ms,
                      create_s, spans, report);
    report->Layer("trace_overhead_frac",
                  OverheadFraction(measured.knn_ms, traced.knn_ms));
    ProbeSketcherAndEstimator(spec.params, *grid, args.seed, report);
  }

  // Output check, outside the timed window: sampled answers over the socket
  // must be byte-identical to an in-process engine over an unbounded cache
  // with quant off.
  serve::SnapshotSpec reference_spec = spec;
  reference_spec.cache_bytes = 0;
  auto reference = serve::Snapshot::Create(reference_spec);
  if (!reference.ok()) {
    report->CheckFailed("reference snapshot: " +
                        reference.status().ToString());
    return;
  }
  const std::vector<std::string> lines = SampleLines(tiles, 48, 16, args.seed);
  auto expected = ReplayInProcess(**reference, lines, nullptr);
  if (!expected.ok()) {
    report->CheckFailed("reference engine: " + expected.status().ToString());
    return;
  }
  CheckAnswers(&client, lines, *expected,
               "an in-process engine over an unbounded cache", report);
}

}  // namespace perfbench
