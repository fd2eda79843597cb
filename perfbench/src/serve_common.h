#ifndef PERFBENCH_SERVE_COMMON_H_
#define PERFBENCH_SERVE_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "core/sketch_params.h"
#include "layers.h"
#include "report.h"
#include "serve/ingest.h"
#include "serve/server.h"
#include "serve/snapshot.h"

/// Pieces the two serving workloads share: the open-loop query stream, the
/// daemon set-up, latency summaries, the in-process engine replay, the
/// byte-identity check and the per-request span tree of a traced phase.
namespace perfbench {

enum RequestKind : uint8_t {
  kDistance = 0,
  kKnn = 1,
  kAppend = 2,
  kRetire = 3,
};

/// Connections of the query stream: distance requests on one, knn on the
/// other, so a distance answer never queues behind a knn scan. The ingest
/// writer, when present, has its own third connection.
constexpr uint32_t kDistanceConn = 0;
constexpr uint32_t kKnnConn = 1;
constexpr uint32_t kWriterConn = 2;
constexpr size_t kKnnK = 10;

/// An open-loop query stream at `rate` requests/s over [start_ns,
/// start_ns + seconds): a `knn_share` minority of `knn A 10` and the rest
/// `distance A B`, each kind evenly spaced on its own connection, tile
/// indices drawn from `seed`.
std::vector<ScheduledRequest> QuerySchedule(double rate, double knn_share,
                                            size_t tiles, int64_t start_ns,
                                            double seconds, uint64_t seed);

/// Merges schedules into one, ordered by due time.
std::vector<ScheduledRequest> MergeSchedules(
    std::vector<ScheduledRequest> a, const std::vector<ScheduledRequest>& b);

/// Latency (due time to reply, ms) per query kind, generator lateness and
/// the phase's query accounting; writer requests are left out. Failed or
/// unanswered requests count in `count` and are left out of the latency
/// samples.
struct PhaseStats {
  std::vector<double> distance_ms;
  std::vector<double> knn_ms;
  std::vector<double> lateness_ms;
  PhaseCount count;
  size_t unanswered = 0;
};
PhaseStats Summarize(const std::vector<ScheduledRequest>& schedule,
                     const std::vector<RequestOutcome>& outcomes);

/// A running daemon and what it serves. Members are destroyed in reverse
/// order: the server stops before the snapshots and the ingest driver it
/// reads.
struct ServeStack {
  std::unique_ptr<tabsketch::serve::StreamingIngest> ingest;
  std::unique_ptr<tabsketch::serve::SnapshotHolder> holder;
  std::unique_ptr<tabsketch::serve::Server> server;
};

/// Builds the stack `reps` times (Snapshot::Create or StreamingIngest::Create,
/// then Server::Start), keeping the last; records each repetition's
/// set-up seconds and its snapshot-creation seconds.
tabsketch::util::Result<ServeStack> StartServing(
    const tabsketch::serve::SnapshotSpec& spec, bool ingest, size_t reps,
    std::vector<double>* setup_s, std::vector<double>* create_s);

/// Replays `lines` one request per QueryEngine::Run through `snapshot`'s
/// engine and returns each answer; `ms` (when non-null) gets the time of
/// each call.
tabsketch::util::Result<std::vector<std::string>> ReplayInProcess(
    const tabsketch::serve::Snapshot& snapshot,
    const std::vector<std::string>& lines, std::vector<double>* ms);

/// A fixed seed-derived sample of request lines (distance and knn) for the
/// byte-identity checks and the engine replay.
std::vector<std::string> SampleLines(size_t tiles, size_t distance,
                                     size_t knn, uint64_t seed);

/// Sends `lines` over `client` one at a time and compares each answer with
/// `expected`; mismatches are failed checks.
void CheckAnswers(LoopbackClient* client, const std::vector<std::string>& lines,
                  const std::vector<std::string>& expected,
                  const std::string& what, Report* report);

/// Adds one request tree per answered request to `spans`, each on its own
/// virtual track: the root `op.<kind>` from due time to reply, with
/// children `client.lateness` (due to sent), `serve.conn_queue` (sent until
/// the connection's previous reply) and `serve.engine` (the program's own
/// query.batch span of that request, matched in FIFO order on the server
/// thread that owns the connection). `marker_windows[c]` is the
/// [send, reply] window of a lone request sent on connection c right after
/// the session started, which identifies that thread.
void AddRequestSpans(const std::vector<ScheduledRequest>& schedule,
                     const std::vector<RequestOutcome>& outcomes,
                     const std::vector<std::pair<int64_t, int64_t>>& marker_windows,
                     int64_t steady_minus_trace_ns, std::vector<Span>* spans,
                     Report* report);

/// Sends one lone request on every query connection (outside the measured
/// stream) and returns each one's [send, reply] window in steady ns.
std::vector<std::pair<int64_t, int64_t>> SendMarkers(LoopbackClient* client,
                                                     size_t connections);

/// Layer metrics every serving workload reports from a traced phase.
void ReportServeLayers(const PhaseStats& untraced, const PhaseStats& traced,
                       const std::vector<double>& engine_distance_ms,
                       const std::vector<double>& engine_knn_ms,
                       const std::vector<double>& create_s,
                       const std::vector<Span>& spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_COMMON_H_
