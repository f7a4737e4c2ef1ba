// Open-loop load generator: one thread, a few non-blocking loopback
// connections, requests sent on a fixed schedule whatever the server does.
//
// Request i of a phase is due at start + i / rate. It is written to
// connection i % connections as soon as the loop reaches it; its latency is
// measured from the due time to the moment its response line is read, so a
// stall in the server (or in the generator) is charged to every request it
// delays. The generator records how late it ran (lag = write time - due
// time) and the outstanding backlog (sent - answered).
//
// An optional admin connection runs beside the traffic: op k is sent at
// start + AdminPlan::due_offset_ns[k], or as soon as op k-1 has answered if
// that is later.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct RequestLog {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t recv_ns = 0;       // 0 = no response
  std::uint64_t response_hash = 0;
};

struct AdminLog {
  std::string request;
  std::string response;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t recv_ns = 0;  // 0 = no response
};

struct AdminPlan {
  std::vector<std::uint64_t> due_offset_ns;  // per op, from the phase start
  // Builds op k's request line from the responses so far (DELTA files name
  // the generation the preceding RELOAD published).
  std::function<std::string(std::size_t k, const std::vector<AdminLog>& done)> make_line;
};

struct PhaseResult {
  double rate = 0;
  std::uint64_t start_ns = 0;
  std::size_t sent = 0, answered = 0;
  std::size_t backlog_max = 0;       // max outstanding requests during the phase
  bool io_failed = false;
  std::vector<RequestLog> log;       // one per request of the phase
  std::vector<AdminLog> admin;
};

class OpenLoop {
 public:
  OpenLoop(std::uint16_t port, std::size_t connections, bool admin);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  bool ok() const { return ok_; }

  // Sends corpus[order[first + i]] for i in [0, count) at `rate`
  // requests/s and waits (at most 5 s past the last due time) for every
  // response. Responses are fingerprinted with fnv1a. `log` becomes the
  // phase's log, resized to `count`: a caller that sizes it beforehand keeps
  // its allocation out of a memory measurement of the phase.
  PhaseResult run(const std::vector<std::string>& corpus, const std::vector<std::uint32_t>& order,
                  std::size_t first, std::size_t count, double rate,
                  const AdminPlan* admin = nullptr, std::vector<RequestLog> log = {});

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::unique_ptr<Conn> admin_;
  bool ok_ = true;
};

}  // namespace perfbench
