#include "serve_common.h"

#include <algorithm>
#include <map>
#include <span>

#include "rng/splitmix64.h"
#include "serve/query_engine.h"
#include "workloads.h"

namespace perfbench {

using namespace tabsketch;

std::vector<ScheduledRequest> QuerySchedule(double rate, double knn_share,
                                            size_t tiles, int64_t start_ns,
                                            double seconds, uint64_t seed) {
  rng::SplitMix64 rng(seed);
  std::vector<ScheduledRequest> out;
  auto stream = [&](double kind_rate, uint8_t kind, uint32_t conn) {
    if (kind_rate <= 0.0) return;
    const size_t n = static_cast<size_t>(seconds * kind_rate);
    for (size_t i = 0; i < n; ++i) {
      ScheduledRequest request;
      request.conn = conn;
      request.kind = kind;
      request.due_ns =
          start_ns + static_cast<int64_t>((static_cast<double>(i) + 0.5) /
                                          kind_rate * 1e9);
      const size_t a = rng.Next() % tiles;
      if (kind == kKnn) {
        request.line = "knn " + std::to_string(a) + " " + std::to_string(kKnnK);
      } else {
        const size_t b = (a + 1 + rng.Next() % (tiles - 1)) % tiles;
        request.line =
            "distance " + std::to_string(a) + " " + std::to_string(b);
      }
      out.push_back(std::move(request));
    }
  };
  stream(rate * (1.0 - knn_share), kDistance, kDistanceConn);
  stream(rate * knn_share, kKnn, kKnnConn);
  std::stable_sort(out.begin(), out.end(),
                   [](const ScheduledRequest& x, const ScheduledRequest& y) {
                     return x.due_ns < y.due_ns;
                   });
  return out;
}

std::vector<ScheduledRequest> MergeSchedules(
    std::vector<ScheduledRequest> a, const std::vector<ScheduledRequest>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::stable_sort(a.begin(), a.end(),
                   [](const ScheduledRequest& x, const ScheduledRequest& y) {
                     return x.due_ns < y.due_ns;
                   });
  return a;
}

PhaseStats Summarize(const std::vector<ScheduledRequest>& schedule,
                     const std::vector<RequestOutcome>& outcomes) {
  PhaseStats stats;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledRequest& request = schedule[i];
    const RequestOutcome& outcome = outcomes[i];
    if (request.kind != kDistance && request.kind != kKnn) continue;
    ++stats.count.sent;
    if (outcome.sent_ns >= 0) {
      stats.lateness_ms.push_back(
          static_cast<double>(outcome.sent_ns - request.due_ns) * 1e-6);
    }
    if (outcome.reply_ns < 0) {
      ++stats.unanswered;
      ++stats.count.failed;
    } else if (outcome.shed) {
      ++stats.count.shed;
    } else if (outcome.deadline_expired) {
      ++stats.count.deadline_expired;
    } else if (outcome.error) {
      ++stats.count.failed;
    } else {
      ++stats.count.succeeded;
      const double ms =
          static_cast<double>(outcome.reply_ns - request.due_ns) * 1e-6;
      if (request.kind == kDistance) stats.distance_ms.push_back(ms);
      if (request.kind == kKnn) stats.knn_ms.push_back(ms);
    }
  }
  return stats;
}

util::Result<ServeStack> StartServing(const serve::SnapshotSpec& spec,
                                      bool ingest, size_t reps,
                                      std::vector<double>* setup_s,
                                      std::vector<double>* create_s) {
  ServeStack stack;
  for (size_t i = 0; i < reps; ++i) {
    // Tear the previous stack down server first: it reads the others.
    stack.server.reset();
    stack.holder.reset();
    stack.ingest.reset();
    const double start = NowSeconds();
    std::shared_ptr<const serve::Snapshot> first;
    if (ingest) {
      auto created = serve::StreamingIngest::Create(spec);
      if (!created.ok()) return created.status();
      stack.ingest = std::move(created).value();
      first = stack.ingest->initial();
    } else {
      auto created = serve::Snapshot::Create(spec);
      if (!created.ok()) return created.status();
      first = std::move(created).value();
    }
    create_s->push_back(NowSeconds() - start);
    stack.holder = std::make_unique<serve::SnapshotHolder>(std::move(first));
    serve::ServerOptions options;
    options.ingest = stack.ingest.get();
    auto started = serve::Server::Start(stack.holder.get(), options);
    if (!started.ok()) return started.status();
    stack.server = std::move(started).value();
    setup_s->push_back(NowSeconds() - start);
  }
  return stack;
}

util::Result<std::vector<std::string>> ReplayInProcess(
    const serve::Snapshot& snapshot, const std::vector<std::string>& lines,
    std::vector<double>* ms) {
  std::vector<std::string> answers;
  for (const std::string& line : lines) {
    auto parsed = serve::ParseBatchLine(line, 1);
    if (!parsed.ok()) return parsed.status();
    if (!parsed->has_value()) {
      return util::Status::InvalidArgument("blank request '" + line + "'");
    }
    const serve::QueryRequest request = **parsed;
    const double start = NowSeconds();
    auto answer = snapshot.engine().Run(
        std::span<const serve::QueryRequest>(&request, 1));
    if (ms != nullptr) ms->push_back((NowSeconds() - start) * 1e3);
    if (!answer.ok()) return answer.status();
    answers.push_back(answer->front());
  }
  return answers;
}

std::vector<std::string> SampleLines(size_t tiles, size_t distance, size_t knn,
                                     uint64_t seed) {
  rng::SplitMix64 rng(seed ^ 0x73616d706c65ULL);
  std::vector<std::string> lines;
  for (size_t i = 0; i < distance + knn; ++i) {
    const size_t a = rng.Next() % tiles;
    if (i < distance) {
      const size_t b = rng.Next() % tiles;
      lines.push_back("distance " + std::to_string(a) + " " +
                      std::to_string(b));
    } else {
      lines.push_back("knn " + std::to_string(a) + " " + std::to_string(kKnnK));
    }
  }
  return lines;
}

void CheckAnswers(LoopbackClient* client, const std::vector<std::string>& lines,
                  const std::vector<std::string>& expected,
                  const std::string& what, Report* report) {
  size_t mismatches = 0;
  std::string first;
  for (size_t i = 0; i < lines.size(); ++i) {
    auto reply = client->Call(lines[i]);
    const bool same = reply.ok() && i < expected.size() && *reply == expected[i];
    if (!same) {
      ++mismatches;
      if (first.empty()) {
        first = "'" + lines[i] + "' -> '" +
                (reply.ok() ? *reply : reply.status().ToString()) + "'";
      }
    }
  }
  if (mismatches > 0) {
    report->CheckFailed(std::to_string(mismatches) + " of " +
                        std::to_string(lines.size()) + " answers differ from " +
                        what + " (first: " + first + ")");
  }
}

std::vector<std::pair<int64_t, int64_t>> SendMarkers(LoopbackClient* client,
                                                     size_t connections) {
  std::vector<std::pair<int64_t, int64_t>> windows;
  for (size_t c = 0; c < connections; ++c) {
    const int64_t start = SteadyNowNs();
    (void)client->Call("distance 0 1", static_cast<uint32_t>(c));
    windows.emplace_back(start, SteadyNowNs());
  }
  return windows;
}

void AddRequestSpans(
    const std::vector<ScheduledRequest>& schedule,
    const std::vector<RequestOutcome>& outcomes,
    const std::vector<std::pair<int64_t, int64_t>>& marker_windows,
    int64_t steady_minus_trace_ns, std::vector<Span>* spans, Report* report) {
  auto to_trace = [&](int64_t steady_ns) -> uint64_t {
    return static_cast<uint64_t>(
        std::max<int64_t>(steady_ns - steady_minus_trace_ns, 0));
  };
  static const char* const kRootNames[] = {"op.distance", "op.knn",
                                           "op.append", "op.retire"};
  // The program's query.batch spans, per server thread, in start order.
  std::map<uint32_t, std::vector<Span>> engine_by_track;
  for (const Span& span : *spans) {
    if (span.name == "query.batch") engine_by_track[span.track].push_back(span);
  }
  for (auto& [track, list] : engine_by_track) {
    std::sort(list.begin(), list.end(), [](const Span& a, const Span& b) {
      return a.start_ns < b.start_ns;
    });
  }
  // Connection c's server thread is the one whose query.batch span falls
  // inside marker c's window; its later spans pair with c's requests.
  std::map<uint32_t, std::vector<Span>> engine_by_conn;
  for (size_t c = 0; c < marker_windows.size(); ++c) {
    const uint64_t lo = to_trace(marker_windows[c].first);
    const uint64_t hi = to_trace(marker_windows[c].second);
    for (const auto& [track, list] : engine_by_track) {
      const auto marker =
          std::find_if(list.begin(), list.end(), [&](const Span& s) {
            return s.start_ns >= lo && s.end_ns <= hi;
          });
      if (marker == list.end()) continue;
      engine_by_conn[static_cast<uint32_t>(c)] =
          std::vector<Span>(marker + 1, list.end());
      break;
    }
  }
  std::map<uint32_t, std::vector<size_t>> by_conn;
  for (size_t i = 0; i < schedule.size(); ++i) {
    by_conn[schedule[i].conn].push_back(i);
  }
  for (const auto& [conn, indices] : by_conn) {
    const std::vector<Span>* engine = nullptr;
    if (const auto it = engine_by_conn.find(conn); it != engine_by_conn.end()) {
      size_t engine_requests = 0;
      for (size_t i : indices) {
        engine_requests += outcomes[i].reply_ns >= 0 && !outcomes[i].error &&
                                   schedule[i].kind <= kKnn
                               ? 1
                               : 0;
      }
      if (it->second.size() == engine_requests) {
        engine = &it->second;
      } else {
        report->Note("connection " + std::to_string(conn) + ": " +
                     std::to_string(it->second.size()) +
                     " engine spans for " + std::to_string(engine_requests) +
                     " requests; engine time left unattributed");
      }
    }
    size_t next_engine = 0;
    int64_t previous_reply = 0;
    for (size_t i : indices) {
      const ScheduledRequest& request = schedule[i];
      const RequestOutcome& outcome = outcomes[i];
      if (outcome.reply_ns < 0 || outcome.sent_ns < 0) continue;
      // One track per request: requests of one connection overlap in time
      // (an append and its retire even share a due time), so they cannot
      // share a track whose spans must nest.
      const uint32_t track =
          TraceSession::kVirtualTrack + static_cast<uint32_t>(i);
      const uint64_t due = to_trace(request.due_ns);
      const uint64_t sent = to_trace(outcome.sent_ns);
      const uint64_t reply = to_trace(outcome.reply_ns);
      spans->push_back(Span{kRootNames[request.kind], track, due, reply});
      if (sent > due) spans->push_back(Span{"client.lateness", track, due, sent});
      const uint64_t service_start =
          std::max(sent, to_trace(std::max(previous_reply, outcome.sent_ns)));
      if (service_start > sent) {
        spans->push_back(Span{"serve.conn_queue", track, sent, service_start});
      }
      if (engine != nullptr && !outcome.error && request.kind <= kKnn &&
          next_engine < engine->size()) {
        const Span& e = (*engine)[next_engine++];
        const uint64_t start = std::clamp(e.start_ns, service_start, reply);
        const uint64_t end = std::clamp(e.end_ns, start, reply);
        spans->push_back(Span{"serve.engine", track, start, end});
      }
      previous_reply = outcome.reply_ns;
    }
  }
}

void ReportServeLayers(const PhaseStats& untraced, const PhaseStats& traced,
                       const std::vector<double>& engine_distance_ms,
                       const std::vector<double>& engine_knn_ms,
                       const std::vector<double>& create_s,
                       const std::vector<Span>& spans, Report* report) {
  report->Layer("serve.engine.distance_us", Median(engine_distance_ms) * 1e3);
  report->Layer("serve.engine.knn_ms", Median(engine_knn_ms));
  report->Layer("serve.server.overhead_us",
                (Median(untraced.distance_ms) - Median(engine_distance_ms)) *
                    1e3);
  report->Layer("serve.server.queue_wait_p99_ms",
                HistogramQuantile("serve.request.queue_wait.seconds", 0.99) *
                    1e3);
  report->Layer("serve.server.shed", CounterValue("serve.requests.shed"));
  report->Layer("serve.server.deadline_expired",
                CounterValue("serve.requests.deadline_expired"));
  report->Layer("serve.server.errors", CounterValue("serve.requests.errors"));
  report->Layer("serve.snapshot.create_s", Median(create_s));
  report->Layer("serve.snapshot.swaps", CounterValue("serve.snapshot.swaps"));

  const double hits =
      CounterValue("lru.cache.hits") + CounterValue("ondemand.cache.hits");
  const double lookups = hits + CounterValue("lru.cache.misses") +
                         CounterValue("ondemand.cache.misses");
  report->Layer("core.cache.lookups", lookups);
  report->Layer("core.cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  report->Layer("core.cache.evictions",
                CounterValue("lru.cache.evictions") +
                    CounterValue("ondemand.cache.evictions"));
  report->Layer("core.cache.compute_busy_s", SpanSeconds("lru.cache.compute"));
  report->Layer("core.sketcher.sketch_of_calls",
                CounterValue("sketcher.sketch_of.calls"));
  report->Layer("core.estimator.calls",
                CounterValue("estimator.estimate.calls"));
  const double scanned = CounterValue("quant.scan.tiles");
  report->Layer("core.quant.scan_tiles", scanned);
  report->Layer("core.quant.kept_frac",
                scanned > 0 ? CounterValue("quant.candidates.kept") / scanned
                            : 0.0);
  report->Layer("core.quant.scan_busy_s", SpanSeconds("quant.scan"));

  report->Layer("client.sent", static_cast<double>(traced.count.sent));
  report->Layer("client.failed",
                static_cast<double>(traced.count.failed + traced.count.shed +
                                    traced.count.deadline_expired));
  report->Layer("client.lateness_p99_ms", TailOf(traced.lateness_ms).value);
  ReportAttribution(spans, report);
}

}  // namespace perfbench
