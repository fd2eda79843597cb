#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

/// Open-loop load generator over loopback TCP: one thread drives every
/// connection with poll(), sends each request line at its scheduled time
/// whatever the backlog, and matches replies to requests in per-connection
/// FIFO order (the server answers one line per request, in order).
namespace perfbench {

/// Steady-clock nanoseconds (the time base of every schedule).
int64_t SteadyNowNs();

struct ScheduledRequest {
  uint32_t conn = 0;
  int64_t due_ns = 0;  // absolute, steady clock
  std::string line;    // without the trailing newline
  uint8_t kind = 0;    // caller-defined tag
  // Held back, once due, until every earlier request on its connection
  // has its reply (a request that depends on the previous answer).
  bool after_reply = false;
};

struct RequestOutcome {
  int64_t sent_ns = -1;   // when the whole line was written
  int64_t reply_ns = -1;  // when the reply line arrived; -1: never
  std::string reply;      // kept only when requested
  bool error = false;     // reply started with "error"
  bool shed = false;      // "error overloaded"
  bool deadline_expired = false;  // "error deadline-exceeded"
};

class LoopbackClient {
 public:
  static tabsketch::util::Result<std::unique_ptr<LoopbackClient>> Connect(
      uint16_t port, size_t connections);
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  /// Plays `schedule` (sorted by due_ns) and returns one outcome per
  /// request; each is sent at its due time, or for an `after_reply` request
  /// at the later of that and the previous reply on its connection. Returns
  /// once every request has its reply, or `drain_ns` after
  /// the last due time (requests still unanswered keep reply_ns = -1).
  std::vector<RequestOutcome> Play(const std::vector<ScheduledRequest>& schedule,
                                   int64_t drain_ns, bool keep_replies);

  /// Sends one line on connection `conn` and waits (up to 60 s) for its
  /// reply. Used outside the timed window.
  tabsketch::util::Result<std::string> Call(const std::string& line,
                                            uint32_t conn = 0);

 private:
  explicit LoopbackClient(std::vector<int> fds);
  std::vector<int> fds_;
  std::vector<std::string> inbox_;  // partial reply bytes per connection
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
