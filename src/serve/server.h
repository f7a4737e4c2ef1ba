// hoihod's network front end: a non-blocking epoll event loop over the
// line-oriented lookup protocol (serve/protocol.h).
//
// Threading model — one I/O thread, N lookup workers:
//
//   event loop (run())      util::WorkStealingPool workers
//   ─────────────────       ──────────────────────────────
//   accept / read bytes
//   split complete lines
//   batch -> submit ──────> grab ModelStore snapshot once per batch,
//   (blocks while           answer every line, time the lookups
//    kMaxQueued = 256
//    batches wait)
//   drain completions <──── push result + wake via eventfd
//   reorder per-connection
//   write / backpressure
//
// Batches from one connection are sequenced, so pipelined clients get
// responses in request order even though batches complete out of order
// across workers. Admin verbs (STATS/RELOAD) ride the same batch path,
// which is what makes a RELOAD mid-pipeline ordered and lossless: requests
// before it are answered by the old snapshot, requests after it by the new
// one, and nothing is dropped.
//
// The Server owns no model: it borrows a ModelStore (hot-reloadable, see
// serve/model_store.h) and a Metrics block that STATS reports from.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fuse/audit.h"
#include "serve/metrics.h"
#include "serve/model_store.h"
#include "util/net.h"
#include "util/thread_pool.h"

namespace hoiho::serve {

struct ServerConfig {
  std::uint16_t port = 0;   // 0 = ephemeral; read back with Server::port()
  bool bind_any = false;    // false = loopback only (the safe default)
  std::size_t workers = 0;  // lookup threads; 0 = hardware concurrency

  std::size_t max_batch = 256;   // request lines per dispatched batch
  std::size_t max_line = 1024;   // a longer line is a protocol violation
  std::size_t max_output_buffer = 1 << 20;  // pause reading a conn above this

  // Fault tolerance (DESIGN.md §9). All default off so tests and embedders
  // opt in explicitly.
  int request_deadline_ms = 0;   // >0: batches queued longer answer ERR,deadline
  int idle_timeout_ms = 0;       // >0: reap connections idle this long
  std::size_t max_inflight = 0;  // >0: lines in flight above this answer ERR,busy
  int drain_timeout_ms = 5000;   // drain() waits at most this for in-flight work

  // GEO verb tuning: fusion weights/slack plus the agree radius a claimed
  // coordinate is audited against. The measurement context itself rides in
  // the ModelSnapshot (ModelStore::set_fuse_context).
  fuse::AuditConfig audit;

  // If > 0, on_tick runs every tick_ms on the event-loop thread (used by
  // the daemon for SIGHUP polling and model-file mtime watching).
  int tick_ms = 0;
  std::function<void()> on_tick;

  // Worker watchdog (0 = off): each tick, lookup workers busy on one batch
  // longer than this are counted in serve_worker_stalled (one episode per
  // batch). Needs tick_ms > 0 — the scan rides the tick.
  int worker_stall_ms = 0;

  // Metrics registry the server's counters land in. Null (default) gives
  // the Server a private registry; pass a shared one to merge the serve_*
  // metrics into a process-wide snapshot (must outlive the Server).
  obs::Registry* registry = nullptr;
};

class Server {
 public:
  Server(ModelStore& store, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens and builds the worker pool; false (with *error) on
  // failure. Must succeed before run().
  bool start(std::string* error = nullptr);

  // The bound port (valid after start(); useful with port = 0).
  std::uint16_t port() const { return port_; }

  // Runs the event loop until stop(). Blocking; call from a dedicated
  // thread if the caller needs to keep working.
  void run();

  // Requests loop exit. Safe from any thread and from signal context is
  // NOT guaranteed — signal handlers should set a flag an on_tick checks,
  // or write to their own descriptor.
  void stop();

  // Graceful drain (what SIGTERM should do): stop accepting, let in-flight
  // batches finish and flush, close connections as they go idle, then exit
  // run(). Bounded by config.drain_timeout_ms — a client that never stops
  // pipelining cannot wedge shutdown. Safe from any thread (same caveat as
  // stop() for signal context).
  void drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  Metrics& metrics() { return metrics_; }
  const ModelStore& store() const { return store_; }

 private:
  struct Connection {
    std::uint64_t id = 0;
    util::Fd fd;
    std::string in_buf;
    std::string out_buf;
    std::size_t out_off = 0;  // bytes of out_buf already sent
    std::uint64_t next_submit_seq = 0;
    std::uint64_t next_flush_seq = 0;
    std::map<std::uint64_t, std::string> done;  // out-of-order completions
    bool peer_closed = false;
    bool want_write = false;
    bool reads_paused = false;
    std::uint64_t last_activity_ms = 0;  // steady ms of last byte in/out

    bool idle() const {
      return next_flush_seq == next_submit_seq && out_off == out_buf.size();
    }
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::size_t line_count = 0;  // credits returned to the inflight budget
    std::string data;
  };

  void accept_ready();
  void on_readable(Connection& c);
  void on_writable(Connection& c);
  void dispatch(Connection& c, std::vector<std::string> lines);
  void process_batch(std::uint64_t conn_id, std::uint64_t seq,
                     std::uint64_t enqueue_ns, std::vector<std::string> lines);
  void drain_completions();
  void sweep_idle();   // close connections idle past idle_timeout_ms
  void drain_step();   // progress graceful drain; may set stopping_
  int loop_timeout_ms(std::chrono::steady_clock::time_point next_tick) const;
  void flush_ready(Connection& c);  // reorder done batches, flush, maybe close
  void flush(Connection& c);
  void update_epoll(Connection& c);
  void maybe_close(Connection& c);
  void close_connection(Connection& c);
  void wake();

  ModelStore& store_;
  ServerConfig config_;
  Metrics metrics_;  // constructed over config_.registry (or a private one)

  // GEO verb instrumentation, registered once at construction so workers
  // never take the registry mutex per request. The STATS v1 surface is
  // frozen; these land in STATS2/METRICS only.
  fuse::FuseMetrics fuse_metrics_;
  obs::Counter audit_agree_, audit_refute_, audit_unknown_;

  util::Fd epoll_fd_;
  util::Fd listen_fd_;
  util::Fd wake_fd_;  // eventfd: worker completions + stop()
  std::uint16_t port_ = 0;

  std::unique_ptr<util::WorkStealingPool> pool_;
  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool drain_started_ = false;  // loop thread only: listen fd deregistered
  std::chrono::steady_clock::time_point drain_deadline_{};
  std::size_t inflight_lines_ = 0;  // loop thread only: dispatched - completed
  std::uint64_t next_conn_id_ = 2;  // 0 = listen token, 1 = wake token
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
};

}  // namespace hoiho::serve
