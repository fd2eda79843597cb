// serve_ingest: the daemon with StreamingIngest over a 256-row stream of
// 16x16 tiles and a window of 96 tile columns (1536 tiles). One writer
// sends `append <one tile-column piece>` at a fixed cadence and `retire 1`
// once the append is acknowledged, never with a request outstanding, while
// the distance/knn query stream arrives open-loop at a fixed rate:
// successor snapshots, RCU swaps and aliased sketches, with writes beside
// reads.
#include <algorithm>
#include <string>
#include <vector>

#include "data/six_region.h"
#include "serve_common.h"
#include "table/table_io.h"
#include "table/tiling.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tabsketch;

constexpr size_t kRows = 256;
constexpr size_t kTileSide = 16;
constexpr size_t kWindowCols = 96;  // tile columns
constexpr size_t kSetupReps = 15;
constexpr double kSlidesPerSecond = 40.0;
constexpr double kQueryRate = 200.0;
constexpr double kKnnShare = 0.1;
constexpr double kWarmupSeconds = 1.0;
/// The last tenth of an untraced run writes each slide's `retire` right
/// behind its `append`, beside the same query stream. The server's sockets
/// keep Nagle on, so the retire acknowledgement can wait for the client's
/// delayed ACK of the append's (~40 ms); whether it does changes from run
/// to run, so these slides are reported as figures, not as the gated
/// operation.
constexpr double kPipelinedShare = 0.1;
constexpr double kPipelinedSlidesPerSecond = 20.0;
constexpr int64_t kDrainNs = int64_t{5} * 1000000000;

/// Columns [first_col, first_col + cols) of `stream`.
table::Matrix Columns(const table::Matrix& stream, size_t first_col,
                      size_t cols) {
  return stream.Window(0, first_col, stream.rows(), cols).ToMatrix();
}

struct SlideStats {
  std::vector<double> slide_ms;      // due time to both acknowledgements
  std::vector<double> append_rtt_ms;  // append sent to its acknowledgement
  PhaseCount count;
};

SlideStats SummarizeSlides(const std::vector<ScheduledRequest>& schedule,
                           const std::vector<RequestOutcome>& outcomes) {
  SlideStats stats;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].kind != kAppend) continue;
    // The retire of the same slide is the next writer request.
    size_t j = i + 1;
    while (j < schedule.size() && schedule[j].kind != kRetire) ++j;
    ++stats.count.sent;
    if (j == schedule.size()) {
      ++stats.count.failed;
      continue;
    }
    const RequestOutcome& append = outcomes[i];
    const RequestOutcome& retire = outcomes[j];
    if (append.reply_ns < 0 || retire.reply_ns < 0 || append.error ||
        retire.error) {
      ++stats.count.failed;
      continue;
    }
    ++stats.count.succeeded;
    stats.slide_ms.push_back(
        static_cast<double>(std::max(append.reply_ns, retire.reply_ns) -
                            schedule[i].due_ns) *
        1e-6);
    stats.append_rtt_ms.push_back(
        static_cast<double>(append.reply_ns - append.sent_ns) * 1e-6);
  }
  return stats;
}

}  // namespace

void RunServeIngest(const RunArgs& args, Report* report) {
  // The stream: the initial window plus one piece per slide the run can
  // make, all cut from one seeded six-region table.
  const size_t slides_needed =
      static_cast<size_t>((args.seconds + kWarmupSeconds) * kSlidesPerSecond) +
      8;
  data::SixRegionOptions gen;
  gen.rows = kRows;
  gen.cols = kTileSide * (kWindowCols + slides_needed);
  gen.seed = args.seed;
  auto generated = data::GenerateSixRegion(gen);
  if (!generated.ok()) {
    report->CheckFailed("GenerateSixRegion: " + generated.status().ToString());
    return;
  }
  const table::Matrix& stream = generated->table;
  const table::Matrix initial = Columns(stream, 0, kTileSide * kWindowCols);
  const std::string initial_path = args.work_dir + "/window0.tskt";
  if (auto st = table::WriteBinary(initial, initial_path); !st.ok()) {
    report->CheckFailed("WriteBinary: " + st.ToString());
    return;
  }
  std::vector<std::string> pieces;
  for (size_t j = 0; j < slides_needed; ++j) {
    pieces.push_back(args.work_dir + "/piece" + std::to_string(j) + ".tskt");
    const table::Matrix piece =
        Columns(stream, kTileSide * (kWindowCols + j), kTileSide);
    if (auto st = table::WriteBinary(piece, pieces.back()); !st.ok()) {
      report->CheckFailed("WriteBinary: " + st.ToString());
      return;
    }
  }
  const size_t tiles = (kRows / kTileSide) * kWindowCols;

  serve::SnapshotSpec spec;
  spec.table_path = initial_path;
  spec.tile_rows = kTileSide;
  spec.tile_cols = kTileSide;
  spec.params.p = 1.0;
  spec.params.k = 64;

  std::vector<double> setup_s;
  std::vector<double> create_s;
  auto stack =
      StartServing(spec, /*ingest=*/true, kSetupReps, &setup_s, &create_s);
  if (!stack.ok()) {
    report->CheckFailed("serving set-up: " + stack.status().ToString());
    return;
  }
  auto connected = LoopbackClient::Connect(stack->server->port(), 3);
  if (!connected.ok()) {
    report->CheckFailed("connect: " + connected.status().ToString());
    return;
  }
  LoopbackClient& client = **connected;

  // One phase: the query stream at `query_rate` plus `slide_rate` slides
  // per second. The writer is synchronous: each append waits for the
  // previous acknowledgement, so a late slide delays the next one (its
  // latency still counts from its due time), and unless `pipelined` each
  // retire waits for its append's, so a failed append never shrinks the
  // window.
  size_t slides_made = 0;
  auto play = [&](double seconds, double slide_rate, bool pipelined,
                  double query_rate, uint64_t stream_seed,
                  std::vector<ScheduledRequest>* schedule) {
    const int64_t start = SteadyNowNs() + 20000000;
    std::vector<ScheduledRequest> writes;
    const size_t slides = static_cast<size_t>(seconds * slide_rate);
    for (size_t s = 0; s < slides && slides_made < pieces.size(); ++s) {
      const int64_t due =
          start + static_cast<int64_t>((static_cast<double>(s) + 0.5) /
                                       slide_rate * 1e9);
      writes.push_back({kWriterConn, due, "append " + pieces[slides_made],
                        kAppend, /*after_reply=*/true});
      writes.push_back({kWriterConn, due, "retire 1", kRetire,
                        /*after_reply=*/!pipelined});
      ++slides_made;
    }
    *schedule = MergeSchedules(
        QuerySchedule(query_rate, kKnnShare, tiles, start, seconds,
                      stream_seed),
        writes);
    return client.Play(*schedule, kDrainNs, false);
  };

  std::vector<ScheduledRequest> schedule;
  play(kWarmupSeconds, kSlidesPerSecond, false, kQueryRate, args.seed + 1,
       &schedule);
  const double measure_s =
      args.seconds * (args.trace ? 0.5 : 1.0 - kPipelinedShare);
  const std::vector<RequestOutcome> outcomes =
      play(measure_s, kSlidesPerSecond, false, kQueryRate, args.seed + 2,
           &schedule);
  const PhaseStats queries = Summarize(schedule, outcomes);
  const SlideStats slides = SummarizeSlides(schedule, outcomes);
  report->Phase("queries", queries.count);
  report->Phase("slides", slides.count);
  if (TailOf(queries.lateness_ms).value > 10.0) {
    report->Invalid("load generator ran late (" +
                    std::to_string(TailOf(queries.lateness_ms).value) +
                    " ms at the tail)");
  }

  if (!args.trace) {
    const std::vector<RequestOutcome> pipelined_outcomes =
        play(args.seconds * kPipelinedShare, kPipelinedSlidesPerSecond, true,
             kQueryRate, args.seed + 4, &schedule);
    const SlideStats pipelined = SummarizeSlides(schedule, pipelined_outcomes);
    report->Phase("pipelined_queries",
                  Summarize(schedule, pipelined_outcomes).count);
    report->Phase("pipelined_slides", pipelined.count);
    // The gated operation is the knn request served beside the slides. The
    // slide itself is a figure: its append takes 2.3 ms in some runs and
    // 6 ms in others (the allocator's state when each generation copies the
    // window table), a split no run length averages away.
    ReportEndToEnd(report, setup_s, queries.knn_ms, "knn request beside slides");
    ReportTiming(report, "slide", slides.slide_ms);
    ReportTiming(report, "append_rtt", slides.append_rtt_ms);
    ReportTiming(report, "pipelined_slide", pipelined.slide_ms);
    ReportTiming(report, "distance", queries.distance_ms);
    ReportTiming(report, "knn", queries.knn_ms);
    ReportTiming(report, "lateness", queries.lateness_ms);
  } else {
    std::vector<Span> spans;
    PhaseStats traced;
    SlideStats traced_slides;
    {
      TraceSession session(1u << 18);
      const int64_t offset =
          SteadyNowNs() - static_cast<int64_t>(session.NowNs());
      const auto markers = SendMarkers(&client, 2);
      const std::vector<RequestOutcome> traced_outcomes =
          play(measure_s, kSlidesPerSecond, false, kQueryRate, args.seed + 3,
               &schedule);
      spans = session.Stop();
      traced = Summarize(schedule, traced_outcomes);
      traced_slides = SummarizeSlides(schedule, traced_outcomes);
      AddRequestSpans(schedule, traced_outcomes, markers, offset, &spans,
                      report);
    }
    report->Phase("traced_queries", traced.count);
    report->Phase("traced_slides", traced_slides.count);
    std::vector<double> engine_distance_ms;
    std::vector<double> engine_knn_ms;
    const auto snapshot = stack->holder->Current();
    (void)ReplayInProcess(*snapshot, SampleLines(tiles, 200, 0, args.seed),
                          &engine_distance_ms);
    (void)ReplayInProcess(*snapshot, SampleLines(tiles, 0, 50, args.seed),
                          &engine_knn_ms);
    ReportServeLayers(queries, traced, engine_distance_ms, engine_knn_ms,
                      create_s, spans, report);
    report->Layer("serve.ingest.append_p50_ms",
                  Median(traced_slides.append_rtt_ms));
    report->Layer("serve.ingest.append_p99_ms",
                  TailOf(traced_slides.append_rtt_ms).value);
    report->Layer("core.growing.tiles_sketched",
                  CounterValue("ingest.tiles.sketched"));
    report->Layer("serve.ingest.tiles_reused",
                  CounterValue("ingest.tiles.reused"));
    report->Layer("serve.ingest.codes_rebuilt",
                  CounterValue("ingest.codes.rebuilt"));
    report->Layer("trace_overhead_frac",
                  OverheadFraction(queries.knn_ms, traced.knn_ms));
    auto grid = table::TileGrid::Create(&initial, kTileSide, kTileSide);
    if (grid.ok()) {
      ProbeSketcherAndEstimator(spec.params, *grid, args.seed, report);
    }
  }

  // Output check, outside the timed window: after the last slide, sampled
  // answers must be byte-identical to a cold Snapshot::Create over the
  // stitched window table.
  const table::Matrix window =
      Columns(stream, kTileSide * slides_made, kTileSide * kWindowCols);
  const std::string window_path = args.work_dir + "/window.tskt";
  if (auto st = table::WriteBinary(window, window_path); !st.ok()) {
    report->CheckFailed("WriteBinary: " + st.ToString());
    return;
  }
  serve::SnapshotSpec cold_spec = spec;
  cold_spec.table_path = window_path;
  auto cold = serve::Snapshot::Create(cold_spec);
  if (!cold.ok()) {
    report->CheckFailed("cold snapshot: " + cold.status().ToString());
    return;
  }
  const std::vector<std::string> lines = SampleLines(tiles, 48, 16, args.seed);
  auto expected = ReplayInProcess(**cold, lines, nullptr);
  if (!expected.ok()) {
    report->CheckFailed("cold engine: " + expected.status().ToString());
    return;
  }
  CheckAnswers(&client, lines, *expected,
               "a cold snapshot over the stitched window", report);
}

}  // namespace perfbench
