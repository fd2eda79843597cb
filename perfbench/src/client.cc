#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

namespace perfbench {

using tabsketch::util::Result;
using tabsketch::util::Status;

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

void Classify(const std::string& reply, RequestOutcome* outcome) {
  outcome->error = reply.rfind("error", 0) == 0;
  outcome->shed = reply.rfind("error overloaded", 0) == 0;
  outcome->deadline_expired = reply.rfind("error deadline-exceeded", 0) == 0;
}

/// Writes as much of `buf` from `*pos` as the socket takes; false on a hard
/// error.
bool FlushSome(int fd, const std::string& buf, size_t* pos) {
  while (*pos < buf.size()) {
    const ssize_t n = ::send(fd, buf.data() + *pos, buf.size() - *pos,
                             MSG_NOSIGNAL);
    if (n > 0) {
      *pos += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  return true;
}

/// Reads everything available into `inbox`, then pops complete lines into
/// `lines`. False on a hard error or EOF.
bool ReadLines(int fd, std::string* inbox, std::vector<std::string>* lines) {
  char buf[65536];
  bool open = true;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      inbox->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    open = false;  // EOF or error
    break;
  }
  size_t start = 0;
  for (;;) {
    const size_t nl = inbox->find('\n', start);
    if (nl == std::string::npos) break;
    size_t end = nl;
    if (end > start && (*inbox)[end - 1] == '\r') --end;
    lines->emplace_back(inbox->substr(start, end - start));
    start = nl + 1;
  }
  inbox->erase(0, start);
  return open;
}

constexpr int64_t kSpinNs = 500000;

/// Blocking `ping` round trip on a fresh connection.
bool Ping(int fd) {
  static const char kPing[] = "ping\n";
  if (::send(fd, kPing, sizeof(kPing) - 1, MSG_NOSIGNAL) !=
      static_cast<ssize_t>(sizeof(kPing) - 1)) {
    return false;
  }
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return true;
  }
  return false;
}

timespec ToTimespec(int64_t ns) {
  ns = std::max<int64_t>(ns, 0);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  return ts;
}

}  // namespace

LoopbackClient::LoopbackClient(std::vector<int> fds)
    : fds_(std::move(fds)), inbox_(fds_.size()) {}

LoopbackClient::~LoopbackClient() {
  for (int fd : fds_) ::close(fd);
}

Result<std::unique_ptr<LoopbackClient>> LoopbackClient::Connect(
    uint16_t port, size_t connections) {
  std::vector<int> fds;
  for (size_t i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      for (int open_fd : fds) ::close(open_fd);
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string error = std::strerror(errno);
      for (int open_fd : fds) ::close(open_fd);
      return Status::Internal("connect: " + error);
    }
    // The client's own requests go out at once, as an RPC client's do;
    // its ACKs keep the kernel's default (delayed) timing, so a reply the
    // server holds back under Nagle is measured as the server's latency.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // One blocking round trip before the next connection opens: the
    // server's per-connection threads then start (and take their allocator
    // arenas) in a fixed order instead of racing, a race that otherwise
    // shows up as run-to-run bimodal latency.
    if (!Ping(fd)) {
      for (int open_fd : fds) ::close(open_fd);
      return Status::Internal("no reply to ping");
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return std::unique_ptr<LoopbackClient>(new LoopbackClient(std::move(fds)));
}

std::vector<RequestOutcome> LoopbackClient::Play(
    const std::vector<ScheduledRequest>& schedule, int64_t drain_ns,
    bool keep_replies) {
  // Wake up on time: the default 50 us timer slack would show up as
  // generator lateness on every request.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const size_t conns = fds_.size();
  std::vector<RequestOutcome> outcomes(schedule.size());
  std::vector<std::deque<size_t>> awaiting(conns);
  // Bytes queued per connection, with the request whose line ends at each
  // offset, so sent_ns is stamped when the last byte is written.
  std::vector<std::string> outbuf(conns);
  std::vector<size_t> outpos(conns, 0);
  std::vector<std::deque<std::pair<size_t, size_t>>> unsent(conns);
  // Due requests not yet queued for sending: an `after_reply` request (and
  // whatever follows it on its connection) waits here for the reply.
  std::vector<std::deque<size_t>> held(conns);
  const int64_t give_up =
      (schedule.empty() ? SteadyNowNs() : schedule.back().due_ns) + drain_ns;
  size_t next = 0;
  size_t answered = 0;
  std::vector<std::string> lines;
  std::vector<pollfd> pfds(conns);
  bool broken = false;
  while (answered < schedule.size() && !broken) {
    int64_t now = SteadyNowNs();
    while (next < schedule.size() && schedule[next].due_ns <= now) {
      held[schedule[next].conn].push_back(next);
      ++next;
    }
    for (size_t c = 0; c < conns; ++c) {
      while (!held[c].empty()) {
        const ScheduledRequest& request = schedule[held[c].front()];
        if (request.after_reply && !awaiting[c].empty()) break;
        outbuf[c] += request.line;
        outbuf[c] += '\n';
        unsent[c].emplace_back(held[c].front(), outbuf[c].size());
        awaiting[c].push_back(held[c].front());
        held[c].pop_front();
      }
    }
    for (size_t c = 0; c < conns; ++c) {
      if (outpos[c] == outbuf[c].size()) continue;
      if (!FlushSome(fds_[c], outbuf[c], &outpos[c])) broken = true;
      now = SteadyNowNs();
      while (!unsent[c].empty() && unsent[c].front().second <= outpos[c]) {
        outcomes[unsent[c].front().first].sent_ns = now;
        unsent[c].pop_front();
      }
      if (outpos[c] == outbuf[c].size()) {
        outbuf[c].clear();
        outpos[c] = 0;
        unsent[c].clear();
      }
    }
    if (next == schedule.size() && now >= give_up) break;
    const int64_t wake =
        next < schedule.size() ? std::min(schedule[next].due_ns, give_up)
                               : give_up;
    for (size_t c = 0; c < conns; ++c) {
      pfds[c].fd = fds_[c];
      pfds[c].events = static_cast<short>(
          POLLIN | (outpos[c] < outbuf[c].size() ? POLLOUT : 0));
      pfds[c].revents = 0;
    }
    // Sleep until shortly before the next send, then spin on a zero-timeout
    // poll: waking a sleeping thread here costs ~0.2 ms, which would
    // otherwise be charged to every request as lateness.
    const timespec timeout = ToTimespec(wake - now - kSpinNs);
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (size_t c = 0; c < conns; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      const bool open = ReadLines(fds_[c], &inbox_[c], &lines);
      const int64_t arrived = SteadyNowNs();
      for (std::string& line : lines) {
        if (awaiting[c].empty()) continue;  // unsolicited; never expected
        RequestOutcome& outcome = outcomes[awaiting[c].front()];
        awaiting[c].pop_front();
        outcome.reply_ns = arrived;
        Classify(line, &outcome);
        if (keep_replies) outcome.reply = std::move(line);
        ++answered;
      }
      if (!open) broken = true;
    }
  }
  return outcomes;
}

Result<std::string> LoopbackClient::Call(const std::string& line,
                                         uint32_t conn) {
  if (conn >= fds_.size()) return Status::InvalidArgument("no such connection");
  const ScheduledRequest request{conn, SteadyNowNs(), line, 0};
  std::vector<RequestOutcome> outcome =
      Play({request}, int64_t{60} * 1000000000, /*keep_replies=*/true);
  if (outcome[0].reply_ns < 0) {
    return Status::Internal("no reply to '" + line + "'");
  }
  return std::move(outcome[0].reply);
}

}  // namespace perfbench
