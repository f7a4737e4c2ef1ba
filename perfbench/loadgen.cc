#include "loadgen.h"

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
#include <ctime>
#include <deque>

#include "common.h"

namespace perfbench {

struct OpenLoop::Conn {
  int fd = -1;
  std::string out;          // bytes not yet written
  std::size_t out_off = 0;
  std::string in;           // bytes of an incomplete response line
  std::deque<std::size_t> pending;  // request indexes awaiting a response, FIFO

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  std::size_t outstanding() const { return pending.size(); }

  // Writes as much of `out` as the socket takes. False on a hard error.
  bool flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    return true;
  }

  // Reads what is available; calls on_line(line) per complete line. False
  // on EOF or a hard error.
  template <class F>
  bool drain(F&& on_line) {
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        std::size_t begin = 0;
        for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
          if (buf[i] != '\n') continue;
          if (in.empty()) {
            on_line(std::string_view(buf + begin, i - begin));
          } else {
            in.append(buf + begin, i - begin);
            on_line(std::string_view(in));
            in.clear();
          }
          begin = i + 1;
        }
        in.append(buf + begin, static_cast<std::size_t>(n) - begin);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
  }
};

namespace {

constexpr std::uint64_t kSpinNs = 1000000;
// How long a phase waits for responses past its last due time.
constexpr std::uint64_t kDrainTimeoutNs = 5000000000ULL;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

OpenLoop::OpenLoop(std::uint16_t port, std::size_t connections, bool admin) {
  // Sleep precisely until the next due time instead of the default 50us
  // timer slack, so the generator's own lag stays small.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  for (std::size_t i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = connect_loopback(port);
    ok_ = ok_ && c->fd >= 0;
    conns_.push_back(std::move(c));
  }
  if (admin) {
    admin_ = std::make_unique<Conn>();
    admin_->fd = connect_loopback(port);
    ok_ = ok_ && admin_->fd >= 0;
  }
}

OpenLoop::~OpenLoop() = default;

PhaseResult OpenLoop::run(const std::vector<std::string>& corpus,
                          const std::vector<std::uint32_t>& order, std::size_t first,
                          std::size_t count, double rate, const AdminPlan* admin,
                          std::vector<RequestLog> log) {
  PhaseResult res;
  res.rate = rate;
  res.log = std::move(log);
  res.log.resize(count);
  const std::size_t nconn = conns_.size();
  for (auto& c : conns_) c->pending.clear();
  const double gap_ns = 1e9 / rate;
  const std::size_t admin_ops = admin == nullptr ? 0 : admin->due_offset_ns.size();
  res.admin.reserve(admin_ops);
  bool admin_inflight = false;

  std::vector<pollfd> pfds(nconn + (admin_ ? 1 : 0));
  const std::uint64_t start = now_ns() + 1000000;  // first request due in 1 ms
  res.start_ns = start;
  const std::uint64_t last_due = start + static_cast<std::uint64_t>(gap_ns * static_cast<double>(count));
  const std::uint64_t give_up = last_due + kDrainTimeoutNs;
  std::size_t next = 0;

  const auto outstanding = [&] {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c->outstanding();
    return n;
  };

  while (true) {
    std::uint64_t now = now_ns();
    // Queue every request that has come due.
    const std::size_t due_upto = now < start ? 0
        : std::min(count, static_cast<std::size_t>(static_cast<double>(now - start) / gap_ns) + 1);
    for (; next < due_upto; ++next) {
      Conn& c = *conns_[next % nconn];
      c.out += corpus[order[first + next]];
      c.out += '\n';
      c.pending.push_back(next);
      RequestLog& l = res.log[next];
      l.due_ns = start + static_cast<std::uint64_t>(gap_ns * static_cast<double>(next));
      l.sent_ns = now;
    }
    res.sent = next;
    // Admin op, when due and the previous one has answered.
    if (admin != nullptr && !admin_inflight && res.admin.size() < admin_ops &&
        now >= start + admin->due_offset_ns[res.admin.size()]) {
      AdminLog a;
      a.request = admin->make_line(res.admin.size(), res.admin);
      a.due_ns = start + admin->due_offset_ns[res.admin.size()];
      a.sent_ns = now;
      admin_->out += a.request;
      admin_->out += '\n';
      res.admin.push_back(std::move(a));
      admin_inflight = true;
    }
    for (auto& c : conns_)
      if (!c->flush()) res.io_failed = true;
    if (admin_ && !admin_->flush()) res.io_failed = true;
    res.backlog_max = std::max(res.backlog_max, outstanding());

    const bool traffic_done = next == count && outstanding() == 0;
    const bool admin_done = admin == nullptr || (res.admin.size() == admin_ops && !admin_inflight);
    if ((traffic_done && admin_done) || res.io_failed || now > give_up) break;

    // Wait until readable, writable (if output is queued), or the next due
    // time. Within kSpinNs of a due time the loop polls without sleeping:
    // a sleeping thread on a virtual CPU is sometimes woken milliseconds
    // late, which would show up as generator lag rather than server time.
    for (std::size_t i = 0; i < nconn; ++i)
      pfds[i] = pollfd{conns_[i]->fd, static_cast<short>(POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT)), 0};
    if (admin_) pfds[nconn] = pollfd{admin_->fd, static_cast<short>(POLLIN | (admin_->out.empty() ? 0 : POLLOUT)), 0};
    std::uint64_t wake = give_up;
    if (next < count) wake = std::min(wake, start + static_cast<std::uint64_t>(gap_ns * static_cast<double>(next)));
    if (admin != nullptr && !admin_inflight && res.admin.size() < admin_ops)
      wake = std::min(wake, start + admin->due_offset_ns[res.admin.size()]);
    now = now_ns();
    const std::uint64_t wait =
        wake > now + kSpinNs ? std::min<std::uint64_t>(wake - now - kSpinNs / 2, 10000000) : 0;
    const timespec ts{static_cast<time_t>(wait / 1000000000ULL), static_cast<long>(wait % 1000000000ULL)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      res.io_failed = true;
      break;
    }
    const std::uint64_t t_read = now_ns();
    for (std::size_t i = 0; i < nconn; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = *conns_[i];
      const bool alive = c.drain([&](std::string_view line) {
        if (c.pending.empty()) {
          res.io_failed = true;  // a response nobody asked for
          return;
        }
        RequestLog& l = res.log[c.pending.front()];
        c.pending.pop_front();
        l.recv_ns = t_read;
        l.response_hash = fnv1a(line);
        ++res.answered;
      });
      if (!alive) res.io_failed = true;
    }
    if (admin_ && (pfds[nconn].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const bool alive = admin_->drain([&](std::string_view line) {
        if (!admin_inflight) {
          res.io_failed = true;
          return;
        }
        res.admin.back().response = std::string(line);
        res.admin.back().recv_ns = t_read;
        admin_inflight = false;
      });
      if (!alive) res.io_failed = true;
    }
  }
  return res;
}

}  // namespace perfbench
