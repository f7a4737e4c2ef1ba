#include "serve/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "serve/protocol.h"
#include "util/failpoint.h"

namespace hoiho::serve {

namespace {

constexpr std::uint64_t kListenToken = 0;
constexpr std::uint64_t kWakeToken = 1;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t now_ms() { return now_ns() / 1000000u; }

bool epoll_add(int epfd, int fd, std::uint64_t token, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token;
  return ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

}  // namespace

Server::Server(ModelStore& store, ServerConfig config)
    : store_(store),
      config_(std::move(config)),
      metrics_(config_.registry),
      fuse_metrics_(metrics_.registry()),
      audit_agree_(metrics_.registry().counter("audit_agree")),
      audit_refute_(metrics_.registry().counter("audit_refute")),
      audit_unknown_(metrics_.registry().counter("audit_unknown")) {
  // The store's canary/rollback counters land in this server's registry.
  store_.set_metrics(&metrics_);
}

Server::~Server() {
  // Drain the worker pool before tearing down the members its tasks touch
  // (wake_fd_, completions_). Pool destruction runs queued batches to
  // completion; their results are simply never flushed.
  pool_.reset();
}

bool Server::start(std::string* error) {
  listen_fd_ = util::listen_tcp(config_.port, error, config_.bind_any);
  if (!listen_fd_) return false;
  if (!util::set_nonblocking(listen_fd_.get())) {
    if (error != nullptr) *error = "cannot set listen socket non-blocking";
    return false;
  }
  const auto bound = util::local_port(listen_fd_.get());
  if (!bound) {
    if (error != nullptr) *error = "getsockname failed";
    return false;
  }
  port_ = *bound;

  epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
  wake_fd_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!epoll_fd_ || !wake_fd_) {
    if (error != nullptr) *error = std::string("epoll/eventfd: ") + std::strerror(errno);
    return false;
  }
  if (!epoll_add(epoll_fd_.get(), listen_fd_.get(), kListenToken, EPOLLIN) ||
      !epoll_add(epoll_fd_.get(), wake_fd_.get(), kWakeToken, EPOLLIN)) {
    if (error != nullptr) *error = std::string("epoll_ctl: ") + std::strerror(errno);
    return false;
  }
  pool_ = std::make_unique<util::WorkStealingPool>(
      util::WorkStealingPool::resolve(config_.workers));
  return true;
}

void Server::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

void Server::stop() {
  stopping_.store(true, std::memory_order_release);
  wake();
}

void Server::drain() {
  draining_.store(true, std::memory_order_release);
  wake();
}

int Server::loop_timeout_ms(std::chrono::steady_clock::time_point next_tick) const {
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  long long timeout = -1;
  const auto clamp = [&timeout](long long ms) {
    ms = std::max<long long>(0, ms);
    if (timeout < 0 || ms < timeout) timeout = ms;
  };
  const auto now = std::chrono::steady_clock::now();
  if (config_.tick_ms > 0)
    clamp(duration_cast<milliseconds>(next_tick - now).count());
  if (config_.idle_timeout_ms > 0 && !conns_.empty())
    // Sweep at half the timeout so a connection is reaped at most 1.5x late.
    clamp(std::max(config_.idle_timeout_ms / 2, 10));
  if (drain_started_)
    clamp(duration_cast<milliseconds>(drain_deadline_ - now).count());
  return static_cast<int>(std::min<long long>(timeout, 1 << 30));
}

void Server::run() {
  using Clock = std::chrono::steady_clock;
  auto next_tick = Clock::now() + std::chrono::milliseconds(
                                      config_.tick_ms > 0 ? config_.tick_ms : 0);
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, loop_timeout_ms(next_tick));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (config_.tick_ms > 0 && Clock::now() >= next_tick) {
      next_tick = Clock::now() + std::chrono::milliseconds(config_.tick_ms);
      // Watchdog: a worker wedged on one batch (slow model, livelocked
      // lookup) is surfaced as a counter instead of silently eating a
      // thread. One episode per batch (see util::Heartbeat).
      if (config_.worker_stall_ms > 0 && pool_ != nullptr) {
        metrics_.worker_stalled.add(
            pool_->scan_stalled(static_cast<std::uint64_t>(config_.worker_stall_ms)));
      }
      if (config_.on_tick) config_.on_tick();
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t token = events[i].data.u64;
      if (token == kWakeToken) {
        std::uint64_t count = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_.get(), &count, sizeof(count));
        drain_completions();
      } else if (token == kListenToken) {
        accept_ready();
      } else {
        const auto it = conns_.find(token);
        if (it == conns_.end()) continue;  // closed earlier this wakeup
        Connection& c = *it->second;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
            (events[i].events & EPOLLIN) == 0) {
          close_connection(c);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) on_writable(c);
        if (conns_.find(token) == conns_.end()) continue;
        if ((events[i].events & EPOLLIN) != 0) on_readable(c);
      }
    }
    if (config_.idle_timeout_ms > 0) sweep_idle();
    if (draining_.load(std::memory_order_acquire)) drain_step();
  }
}

void Server::sweep_idle() {
  const std::uint64_t now = now_ms();
  const auto limit = static_cast<std::uint64_t>(config_.idle_timeout_ms);
  std::vector<std::uint64_t> reap;
  for (const auto& [id, conn] : conns_) {
    if (conn->idle() && conn->done.empty() && now - conn->last_activity_ms > limit)
      reap.push_back(id);
  }
  for (const std::uint64_t id : reap) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    metrics_.idle_closed.inc();
    close_connection(*it->second);
  }
}

void Server::drain_step() {
  if (!drain_started_) {
    drain_started_ = true;
    drain_deadline_ = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(std::max(config_.drain_timeout_ms, 0));
    // Stop accepting; connections already established keep being served.
    // Closing the listen socket (not just deregistering it) makes new
    // connects fail outright instead of parking in the kernel backlog.
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listen_fd_.get(), nullptr);
    listen_fd_.reset();
  }
  // Close connections as they go quiet. A connection with in-flight batches
  // or unflushed output is left alone — its answers land first.
  std::vector<std::uint64_t> done_ids;
  for (const auto& [id, conn] : conns_) {
    if (conn->idle() && conn->done.empty()) done_ids.push_back(id);
  }
  for (const std::uint64_t id : done_ids) {
    const auto it = conns_.find(id);
    if (it != conns_.end()) close_connection(*it->second);
  }
  if (conns_.empty() || std::chrono::steady_clock::now() >= drain_deadline_)
    stopping_.store(true, std::memory_order_release);
}

void Server::accept_ready() {
  for (;;) {
    if (util::failpoint::any_active()) {
      const auto f = util::failpoint::hit("serve.accept");
      if (f.kind != util::failpoint::Kind::kOff)
        metrics_.injected_faults.inc();
      if (f.kind == util::failpoint::Kind::kError)
        return;  // simulated EMFILE/ENFILE: listen socket stays armed
    }
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listen socket stays armed
    }
    util::set_tcp_nodelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd.reset(fd);
    conn->last_activity_ms = now_ms();
    if (!epoll_add(epoll_fd_.get(), fd, conn->id, EPOLLIN)) continue;
    metrics_.connections_opened.inc();
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::on_readable(Connection& c) {
  const std::uint64_t t0 = now_ns();
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      c.in_buf.append(buf, static_cast<std::size_t>(n));
      c.last_activity_ms = now_ms();
      if (c.in_buf.size() >= config_.max_line) break;  // parse before reading on
    } else if (n == 0) {
      // EOF: deregister EPOLLIN immediately — a level-triggered fd at EOF
      // stays readable forever and would spin the loop while in-flight
      // batches finish.
      c.peer_closed = true;
      update_epoll(c);
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      close_connection(c);
      return;
    }
  }

  std::vector<std::string> lines;
  std::size_t start = 0;
  bool oversized = false;
  for (;;) {
    const std::size_t pos = c.in_buf.find('\n', start);
    if (pos == std::string::npos) break;
    if (pos - start > config_.max_line) {
      oversized = true;
      break;
    }
    const std::string_view line(c.in_buf.data() + start, pos - start);
    if (const auto count = parse_geob_count(line)) {
      // GEOB group framing: the header and its `count` subject lines enter
      // one batch together or not at all. An incomplete group stays in
      // in_buf (start is not advanced) until the subjects arrive; the
      // group may push the batch past max_batch — it is never split. A
      // *malformed* header takes the ordinary path below and is answered
      // ERR without consuming any subject lines.
      std::vector<std::pair<std::size_t, std::size_t>> subjects;
      subjects.reserve(*count);
      std::size_t scan = pos + 1;
      bool complete = true;
      while (subjects.size() < *count) {
        const std::size_t eol = c.in_buf.find('\n', scan);
        if (eol == std::string::npos) {
          complete = false;
          break;
        }
        if (eol - scan > config_.max_line) {
          oversized = true;
          complete = false;
          break;
        }
        subjects.emplace_back(scan, eol - scan);
        scan = eol + 1;
      }
      if (!complete) break;
      lines.emplace_back(line);
      for (const auto& [s, len] : subjects) lines.emplace_back(c.in_buf, s, len);
      start = scan;
    } else {
      lines.emplace_back(line);
      start = pos + 1;
    }
    if (lines.size() >= config_.max_batch) {
      dispatch(c, std::move(lines));
      lines.clear();
    }
  }
  c.in_buf.erase(0, start);
  if (!lines.empty()) dispatch(c, std::move(lines));

  // A retained incomplete GEOB group keeps complete (bounded) lines in
  // in_buf, so the oversize check applies to the trailing partial line
  // only — exactly what the pre-GEOB `in_buf.size()` check measured.
  const std::size_t last_nl = c.in_buf.rfind('\n');
  const std::size_t partial =
      last_nl == std::string::npos ? c.in_buf.size() : c.in_buf.size() - last_nl - 1;
  if (oversized || partial >= config_.max_line) {
    // A line over the cap — terminated or still streaming in — is a
    // protocol violation. Answer through the ordered completion path
    // (after any lines dispatched above), then drop the connection once
    // everything is flushed.
    metrics_.errors.inc();
    c.done[c.next_submit_seq++] = format_error("oversized line") + "\n";
    c.in_buf.clear();
    c.peer_closed = true;
    update_epoll(c);
  }
  metrics_.parse_ns.add(now_ns() - t0);

  const std::uint64_t id = c.id;
  drain_completions();
  const auto it = conns_.find(id);
  if (it != conns_.end()) flush_ready(*it->second);  // stashed errors + close
}

void Server::dispatch(Connection& c, std::vector<std::string> lines) {
  const std::uint64_t seq = c.next_submit_seq++;
  if (config_.max_inflight > 0 && inflight_lines_ >= config_.max_inflight) {
    // Shed at admission: answer every line ERR,busy through the ordered
    // completion path without touching the worker pool, so an overloaded
    // server degrades to fast rejections instead of unbounded queueing.
    metrics_.shed_busy.add(lines.size());
    std::string out;
    out.reserve(lines.size() * 10);
    for (std::size_t i = 0; i < lines.size(); ++i) out += format_error("busy") + "\n";
    c.done[seq] = std::move(out);
    return;
  }
  inflight_lines_ += lines.size();
  metrics_.batches.inc();
  metrics_.batched_lines.add(lines.size());
  pool_->submit(
      [this, id = c.id, seq, t0 = now_ns(), lines = std::move(lines)]() mutable {
        process_batch(id, seq, t0, std::move(lines));
      });
}

void Server::process_batch(std::uint64_t conn_id, std::uint64_t seq,
                           std::uint64_t enqueue_ns, std::vector<std::string> lines) {
  if (util::failpoint::any_active()) {
    // Artificial worker latency ("serve.process=delay:50"): the lever chaos
    // tests use to force deadline expiry and inflight shedding on demand.
    const auto f = util::failpoint::hit("serve.process");
    if (f.kind != util::failpoint::Kind::kOff)
      metrics_.injected_faults.inc();
  }
  const std::uint64_t t0 = now_ns();
  if (config_.request_deadline_ms > 0 &&
      t0 - enqueue_ns > static_cast<std::uint64_t>(config_.request_deadline_ms) * 1000000u) {
    // The batch sat queued past its deadline; the client has likely timed
    // out, so answer cheaply rather than burn lookup time on dead requests.
    metrics_.deadline_expired.add(lines.size());
    std::string out;
    out.reserve(lines.size() * 14);
    for (std::size_t i = 0; i < lines.size(); ++i) out += format_error("deadline") + "\n";
    {
      std::lock_guard lock(completions_mu_);
      completions_.push_back(Completion{conn_id, seq, lines.size(), std::move(out)});
    }
    wake();
    return;
  }
  // One snapshot per batch: lookups within a batch see one model generation
  // even if a reload lands mid-batch.
  std::shared_ptr<const ModelSnapshot> snap = store_.current();
  std::string out;
  out.reserve(lines.size() * 24);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Request req = parse_request(lines[i]);
    if (!req.error.empty()) {
      // Shared named-error emission: the verb table (protocol.cc) did the
      // arity/argument checking; every malformed verb answers here so the
      // handlers below only ever see well-formed requests.
      if (req.kind == RequestKind::kGeo || req.kind == RequestKind::kGeoBatch) {
        metrics_.requests.inc();
      } else {
        metrics_.admin.inc();
      }
      metrics_.errors.inc();
      out += format_error(req.error);
      out += '\n';
      continue;
    }
    switch (req.kind) {
      case RequestKind::kLookup: {
        metrics_.requests.inc();
        const auto loc = snap->geolocator.locate(req.hostname);
        if (loc) {
          metrics_.hits.inc();
          out += format_hit(*loc);
        } else {
          metrics_.misses.inc();
          out += format_miss();
        }
        break;
      }
      case RequestKind::kGeo: {
        metrics_.requests.inc();
        std::optional<geo::Coordinate> claimed;
        if (req.has_claimed) claimed = req.claimed;
        // Cheap per-batch facade over the pinned snapshot: the Fuser itself
        // holds only references + config, so constructing one here keeps
        // every GEO line in this batch on one (model, context) generation.
        const fuse::Fuser fuser(snap->geolocator, snap->fuse.get(),
                                config_.audit.fuse, fuse_metrics_);
        const fuse::FuseResult fused = fuser.fuse(req.subject, claimed);
        std::optional<fuse::AuditOutcome> audit;
        if (req.has_claimed) {
          audit = fuse::classify_claim(fused, req.claimed, config_.audit.agree_km);
          switch (*audit) {
            case fuse::AuditOutcome::kAgree: audit_agree_.inc(); break;
            case fuse::AuditOutcome::kRefute: audit_refute_.inc(); break;
            case fuse::AuditOutcome::kUnknown: audit_unknown_.inc(); break;
          }
        }
        if (fused.answered()) {
          metrics_.hits.inc();
        } else {
          metrics_.misses.inc();
        }
        out += format_geo(fused, audit);
        break;
      }
      case RequestKind::kGeoBatch: {
        // The framing in on_readable guarantees the subject lines follow
        // the header inside this batch; a short group can only mean a bug,
        // answered as a named error rather than misreading subjects.
        const std::size_t n = req.geob_count;
        if (lines.size() - i - 1 < n) {
          metrics_.requests.inc();
          metrics_.errors.inc();
          out += format_error("geob_truncated");
          break;
        }
        metrics_.geob_batches.inc();
        metrics_.geob_subjects.add(n);
        out += format_geob_header(n);
        out += '\n';
        // One Fuser — one snapshot, one RTT-filter context — for the whole
        // block: the batch verb's point is amortizing this over n subjects.
        const fuse::Fuser fuser(snap->geolocator, snap->fuse.get(),
                                config_.audit.fuse, fuse_metrics_);
        for (std::size_t k = 0; k < n; ++k) {
          std::string_view subject = lines[++i];
          if (!subject.empty() && subject.back() == '\r') subject.remove_suffix(1);
          metrics_.requests.inc();
          const fuse::FuseResult fused = fuser.fuse(subject, std::nullopt);
          if (fused.answered()) {
            metrics_.hits.inc();
          } else {
            metrics_.misses.inc();
          }
          out += format_geo(fused);
          if (k + 1 < n) out += '\n';  // the shared tail adds the last one
        }
        break;
      }
      case RequestKind::kDelta: {
        metrics_.admin.inc();
        ModelStore::DeltaApply applied;
        if (const auto err = store_.apply_delta_file(std::string(req.path), &applied)) {
          out += format_delta_error(*err);
        } else {
          out += format_delta_ok(applied.new_generation, applied.base_generation,
                                 applied.upserts, applied.removes, applied.conventions);
          snap = store_.current();  // later lines in this batch see the new model
        }
        break;
      }
      case RequestKind::kStats:
        metrics_.admin.inc();
        out += format_stats(metrics_.snapshot(), snap->generation,
                            snap->convention_count, snap->program_count);
        break;
      case RequestKind::kStats2:
        metrics_.admin.inc();
        out += format_stats_v2(metrics_.registry().snapshot(), snap->generation,
                               snap->convention_count, snap->program_count);
        break;
      case RequestKind::kMetrics:
        metrics_.admin.inc();
        out += format_metrics_text(metrics_.registry().snapshot(), snap->generation,
                                   snap->convention_count, snap->program_count);
        break;
      case RequestKind::kReload: {
        metrics_.admin.inc();
        const auto err = store_.reload();
        if (err) {
          metrics_.reload_failures.inc();
          out += format_reload_error(*err);
        } else {
          metrics_.reloads.inc();
          const auto fresh = store_.current();
          out += format_reload_ok(fresh->generation, fresh->convention_count);
          snap = fresh;  // later lines in this batch see the new model
        }
        break;
      }
      case RequestKind::kGens:
        metrics_.admin.inc();
        out += format_gens(store_.generation(), store_.list_generations());
        break;
      case RequestKind::kRollback: {
        metrics_.admin.inc();
        std::uint64_t published = 0;
        const std::uint64_t from = req.rollback_gen;
        if (const auto err = store_.rollback(from, &published)) {
          out += format_rollback_error(*err);
        } else {
          const auto fresh = store_.current();
          out += format_rollback_ok(published, from, fresh->convention_count);
          snap = fresh;  // later lines in this batch see the restored model
        }
        break;
      }
      case RequestKind::kEmpty:
        metrics_.errors.inc();
        out += format_error("empty request");
        break;
      case RequestKind::kUnknownVerb:
        metrics_.errors.inc();
        out += format_error("unknown_verb");
        break;
    }
    out += '\n';
  }
  const std::uint64_t batch_ns = now_ns() - t0;
  metrics_.lookup_ns.add(batch_ns);
  metrics_.batch_ns.observe(static_cast<double>(batch_ns));
  {
    std::lock_guard lock(completions_mu_);
    completions_.push_back(Completion{conn_id, seq, lines.size(), std::move(out)});
  }
  wake();
}

void Server::drain_completions() {
  std::vector<Completion> done;
  {
    std::lock_guard lock(completions_mu_);
    done.swap(completions_);
  }
  for (Completion& comp : done) {
    // Credit the inflight budget even for closed connections — their
    // batches consumed worker capacity all the same.
    inflight_lines_ -= std::min(inflight_lines_, comp.line_count);
    const auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;  // connection closed while in flight
    it->second->done[comp.seq] = std::move(comp.data);
  }
  // Flush every connection that received data (re-find: flush can close).
  for (Completion& comp : done) {
    const auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;
    flush_ready(*it->second);
  }
}

void Server::flush_ready(Connection& c) {
  while (true) {
    const auto dit = c.done.find(c.next_flush_seq);
    if (dit == c.done.end()) break;
    c.out_buf += dit->second;
    c.done.erase(dit);
    ++c.next_flush_seq;
  }
  const std::uint64_t id = c.id;
  flush(c);  // may close and destroy c
  const auto again = conns_.find(id);
  if (again != conns_.end()) maybe_close(*again->second);
}

void Server::flush(Connection& c) {
  const std::uint64_t t0 = now_ns();
  while (c.out_off < c.out_buf.size()) {
    std::size_t want = c.out_buf.size() - c.out_off;
    if (util::failpoint::any_active()) {
      const auto f = util::failpoint::hit("serve.write");
      if (f.kind != util::failpoint::Kind::kOff)
        metrics_.injected_faults.inc();
      if (f.kind == util::failpoint::Kind::kEintr) continue;
      if (f.kind == util::failpoint::Kind::kError) {
        metrics_.write_ns.add(now_ns() - t0);
        close_connection(c);  // simulated peer reset
        return;
      }
      if (f.kind == util::failpoint::Kind::kShort) want = (want + 1) / 2;
    }
    const ssize_t n =
        ::send(c.fd.get(), c.out_buf.data() + c.out_off, want, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      c.last_activity_ms = now_ms();
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      metrics_.write_ns.add(now_ns() - t0);
      close_connection(c);
      return;
    }
  }
  if (c.out_off == c.out_buf.size()) {
    c.out_buf.clear();
    c.out_off = 0;
  } else if (c.out_off > (1u << 16)) {
    c.out_buf.erase(0, c.out_off);
    c.out_off = 0;
  }
  const bool want_write = c.out_off < c.out_buf.size();
  const bool pause = c.out_buf.size() - c.out_off > config_.max_output_buffer;
  const bool resume = c.reads_paused &&
                      c.out_buf.size() - c.out_off < config_.max_output_buffer / 2;
  if (want_write != c.want_write || pause != c.reads_paused || resume) {
    c.want_write = want_write;
    c.reads_paused = pause;
    update_epoll(c);
  }
  metrics_.write_ns.add(now_ns() - t0);
}

void Server::update_epoll(Connection& c) {
  epoll_event ev{};
  ev.data.u64 = c.id;
  ev.events = 0;
  if (!c.reads_paused && !c.peer_closed) ev.events |= EPOLLIN;
  if (c.want_write) ev.events |= EPOLLOUT;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, c.fd.get(), &ev);
}

void Server::on_writable(Connection& c) { flush(c); }

void Server::maybe_close(Connection& c) {
  if (c.peer_closed && c.idle() && c.done.empty()) close_connection(c);
}

void Server::close_connection(Connection& c) {
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, c.fd.get(), nullptr);
  metrics_.connections_closed.inc();
  conns_.erase(c.id);  // destroys c
}

}  // namespace hoiho::serve
