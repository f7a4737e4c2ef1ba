// hoihod — the geolocation serving daemon.
//
// Serve a saved convention file over the line protocol:
//
//   hoihod --model conv.txt --port 9009
//   printf 'ae2.cr1.lhr1.example.net\n' | nc 127.0.0.1 9009
//
// The model hot-reloads: SIGHUP forces a reload, and --watch-ms polls the
// file's mtime so an atomic rename() deploy is picked up automatically.
// In-flight requests keep the snapshot they started with (see
// serve/model_store.h); a reload never drops a request.
//
// The GEO verb fuses hostname extraction with RTT feasibility and a
// population prior (DESIGN.md §13). Feed it measurements with:
//
//   hoihod --model conv.txt --subjects subj.csv --rtt rtt.txt [--population pop.csv]
//
// --subjects maps servable subjects (addresses/hostnames) to the router
// ids the RTT file samples; without it GEO still answers from the
// hostname + population signals alone.
//
// For demos/CI without a learned model on hand, --write-demo-model runs
// the full learning pipeline on a synthetic world and writes a convention
// file plus (with --hosts-out) a hostname list that the model answers —
// ready-made input for bench/serve_loadgen. --rtt-out and --subjects-out
// additionally dump the synthetic RTT campaign and subject map, so a
// fully fused GEO daemon can be stood up from nothing.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/geolocate.h"
#include "core/hoiho.h"
#include "core/nc_io.h"
#include "core/ncb.h"
#include "fuse/fuser.h"
#include "fuse/rank.h"
#include "measure/rtt_io.h"
#include "serve/metrics_http.h"
#include "serve/server.h"
#include "sim/probing.h"
#include "util/cli.h"
#include "util/failpoint.h"

using namespace hoiho;

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

constexpr const char* kUsage =
    "usage: hoihod --model FILE [--port N] [--workers N] [--bind-any]\n"
    "              [--port-file FILE] [--watch-ms N] [--deadline-ms N]\n"
    "              [--idle-timeout-ms N] [--max-inflight N] [--drain-timeout-ms N]\n"
    "              [--metrics-port N] [--subjects FILE] [--rtt FILE]\n"
    "              [--population FILE] [--rtt-slack-ms X]\n"
    "              [--keep-generations N] [--canary-file FILE]\n"
    "              [--worker-stall-ms N] [--delta-watch FILE]\n"
    "       hoihod --write-demo-model FILE [--operators N] [--hosts-out FILE]\n"
    "              [--rtt-out FILE] [--subjects-out FILE]\n"
    "--subjects + --rtt arm the GEO verb with RTT feasibility filtering\n"
    "(subject,router[,hostname] CSV + a V/R measurement file); --population\n"
    "overrides dictionary populations (city[,state],country,population).\n"
    "--metrics-port serves Prometheus text over HTTP (GET /metrics); the\n"
    "same data is available in-protocol via the METRICS and STATS2 verbs.\n"
    "--keep-generations archives the last N published models next to\n"
    "--model (GENS lists them, ROLLBACK <gen> re-serves one);\n"
    "--canary-file replays pinned queries before publishing a reload and\n"
    "rejects the new model on any divergence; --worker-stall-ms counts\n"
    "lookup workers stuck on one batch longer than N ms.\n"
    "--delta-watch (or HOIHO_DELTA=FILE) polls FILE for model deltas:\n"
    "each rewrite is applied onto the serving generation via DELTA\n"
    "semantics (stale-base and torn files are rejected, not served).\n"
    "HOIHO_FAILPOINTS=site=spec;... injects faults (testing only).\n";

int write_demo_model(const std::string& model_path, std::size_t operators,
                     const std::string& hosts_path, const std::string& rtt_path,
                     const std::string& subjects_path) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  sim::WorldConfig config;
  config.seed = 20260805;
  config.operators = operators;
  config.geohint_scheme_rate = 0.8;
  const sim::World world = sim::generate_world(dict, config);
  const measure::Measurements pings = sim::probe_pings(world, {});

  const core::Hoiho hoiho(dict);
  const core::HoihoResult result = hoiho.run(world.topology, pings);
  std::vector<core::StoredConvention> stored;
  core::Geolocator check(dict);
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    stored.push_back(core::StoredConvention{sr.nc, sr.cls});
    check.add(sr.nc);
  }
  // Extension-dispatched: FILE ending in .ncb gets the binary format the
  // store mmaps; anything else stays text.
  std::string save_error;
  if (!core::save_model_to_file(model_path, stored, dict, &save_error)) {
    std::fprintf(stderr, "hoihod: %s\n", save_error.c_str());
    return 2;
  }
  std::printf("hoihod: wrote %zu conventions to %s\n", stored.size(), model_path.c_str());

  if (!hosts_path.empty()) {
    std::ofstream hosts(hosts_path);
    if (!hosts) {
      std::fprintf(stderr, "hoihod: cannot write '%s'\n", hosts_path.c_str());
      return 2;
    }
    std::size_t n = 0;
    for (const sim::HostnameTruth& truth : world.truths) {
      if (!check.locate(truth.hostname)) continue;
      hosts << truth.hostname << '\n';
      ++n;
    }
    std::printf("hoihod: wrote %zu answerable hostnames to %s\n", n, hosts_path.c_str());
  }

  if (!rtt_path.empty()) {
    std::ofstream rtt(rtt_path);
    if (!rtt) {
      std::fprintf(stderr, "hoihod: cannot write '%s'\n", rtt_path.c_str());
      return 2;
    }
    measure::save_measurements(rtt, pings);
    std::printf("hoihod: wrote %zu-VP RTT campaign to %s\n", pings.vps.size(),
                rtt_path.c_str());
  }

  if (!subjects_path.empty()) {
    std::ofstream subj(subjects_path);
    if (!subj) {
      std::fprintf(stderr, "hoihod: cannot write '%s'\n", subjects_path.c_str());
      return 2;
    }
    std::size_t n = 0;
    for (const topo::Router& router : world.topology.routers()) {
      std::string first_hostname;
      for (const topo::Interface& ifc : router.interfaces)
        if (ifc.hostname) {
          first_hostname = ifc.hostname->full;
          break;
        }
      for (const topo::Interface& ifc : router.interfaces) {
        if (ifc.hostname) {
          subj << ifc.hostname->full << ',' << router.id << '\n';
          ++n;
        }
        if (!ifc.address.empty()) {
          subj << ifc.address << ',' << router.id << ',' << first_hostname << '\n';
          ++n;
        }
      }
    }
    std::printf("hoihod: wrote %zu subject bindings to %s\n", n, subjects_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_path, demo_path, hosts_path, port_file;
  std::string rtt_path, subjects_path, population_path, rtt_out, subjects_out;
  std::uint16_t port = 9009;
  std::size_t workers = 0, operators = 60;
  int watch_ms = 1000;
  int deadline_ms = 0, idle_timeout_ms = 0, drain_timeout_ms = 5000;
  std::size_t max_inflight = 0;
  bool bind_any = false;
  int metrics_port = -1;  // < 0 = exporter off; 0 = ephemeral
  double rtt_slack_ms = 0.0;
  std::size_t keep_generations = 0;
  std::string canary_path, delta_path;
  int worker_stall_ms = 0;

  util::Args args(argc, argv, kUsage);
  while (args.next()) {
    if (args.is("--model")) {
      model_path = args.value();
    } else if (args.is("--write-demo-model")) {
      demo_path = args.value();
    } else if (args.is("--hosts-out")) {
      hosts_path = args.value();
    } else if (args.is("--rtt-out")) {
      rtt_out = args.value();
    } else if (args.is("--subjects-out")) {
      subjects_out = args.value();
    } else if (args.is("--rtt")) {
      rtt_path = args.value();
    } else if (args.is("--subjects")) {
      subjects_path = args.value();
    } else if (args.is("--population")) {
      population_path = args.value();
    } else if (args.is("--rtt-slack-ms")) {
      rtt_slack_ms = std::atof(args.value());
    } else if (args.is("--port-file")) {
      port_file = args.value();
    } else if (args.is("--port")) {
      port = static_cast<std::uint16_t>(std::atoi(args.value()));
    } else if (args.is("--workers")) {
      workers = static_cast<std::size_t>(std::atoi(args.value()));
    } else if (args.is("--operators")) {
      operators = static_cast<std::size_t>(std::atoi(args.value()));
    } else if (args.is("--watch-ms")) {
      watch_ms = std::atoi(args.value());
    } else if (args.is("--deadline-ms")) {
      deadline_ms = std::atoi(args.value());
    } else if (args.is("--idle-timeout-ms")) {
      idle_timeout_ms = std::atoi(args.value());
    } else if (args.is("--max-inflight")) {
      max_inflight = static_cast<std::size_t>(std::atoi(args.value()));
    } else if (args.is("--drain-timeout-ms")) {
      drain_timeout_ms = std::atoi(args.value());
    } else if (args.is("--metrics-port")) {
      metrics_port = std::atoi(args.value());
    } else if (args.is("--keep-generations")) {
      keep_generations = static_cast<std::size_t>(std::atoi(args.value()));
    } else if (args.is("--canary-file")) {
      canary_path = args.value();
    } else if (args.is("--worker-stall-ms")) {
      worker_stall_ms = std::atoi(args.value());
    } else if (args.is("--delta-watch")) {
      delta_path = args.value();
    } else if (args.is("--bind-any")) {
      bind_any = true;
    } else {
      args.reject();
    }
  }

  if (!demo_path.empty())
    return write_demo_model(demo_path, operators, hosts_path, rtt_out, subjects_out);
  if (model_path.empty()) args.fail("needs --model FILE or --write-demo-model FILE");
  if (!rtt_path.empty() && subjects_path.empty())
    args.fail("--rtt requires --subjects (router id mapping)");

  {
    std::string fp_error;
    const int fp = util::failpoint::configure_from_env("HOIHO_FAILPOINTS", &fp_error);
    if (fp < 0) {
      std::fprintf(stderr, "hoihod: HOIHO_FAILPOINTS: %s\n", fp_error.c_str());
      return 1;
    }
    if (fp > 0) std::fprintf(stderr, "hoihod: %d failpoint(s) armed\n", fp);
  }

  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  serve::ModelStore store(dict, model_path);
  // Lineage/canary arm before the first load: the boot model is archived as
  // a generation too, and a model that fails its canary refuses to serve.
  if (keep_generations > 0) store.set_keep_generations(keep_generations);
  if (!canary_path.empty()) store.set_canary(canary_path);
  // Flag wins over the env var so a unit file can pin the env default and a
  // one-off run can still override it.
  if (delta_path.empty())
    if (const char* env = std::getenv("HOIHO_DELTA"); env != nullptr && env[0] != '\0')
      delta_path = env;
  if (!delta_path.empty()) store.set_delta_watch(delta_path);
  if (const auto err = store.reload()) {
    std::fprintf(stderr, "hoihod: %s\n", err->c_str());
    return 2;
  }
  const auto snap = store.current();
  std::printf("hoihod: loaded %zu conventions, %zu compiled programs (generation %llu) from %s\n",
              snap->convention_count, snap->program_count,
              static_cast<unsigned long long>(snap->generation), model_path.c_str());
  for (const std::string& w : snap->warnings)
    std::fprintf(stderr, "hoihod: model warning: %s\n", w.c_str());

  if (!subjects_path.empty() || !population_path.empty()) {
    io::LoadOptions lopt;
    lopt.lenient = true;  // measurement archives are messy; skip + count

    std::vector<fuse::SubjectRow> subjects;
    if (!subjects_path.empty()) {
      std::ifstream sin(subjects_path);
      if (!sin) {
        std::fprintf(stderr, "hoihod: cannot open subjects file '%s'\n", subjects_path.c_str());
        return 2;
      }
      io::LoadReport srep;
      auto loaded = fuse::load_subjects(sin, lopt, &srep);
      if (!loaded) {
        std::fprintf(stderr, "hoihod: subjects file '%s': %s\n", subjects_path.c_str(),
                     srep.error.c_str());
        return 2;
      }
      subjects = std::move(*loaded);
    }
    std::size_t router_count = 0;
    for (const fuse::SubjectRow& sr : subjects)
      router_count = std::max(router_count, static_cast<std::size_t>(sr.router) + 1);

    measure::Measurements meas;
    if (!rtt_path.empty()) {
      std::ifstream rin(rtt_path);
      if (!rin) {
        std::fprintf(stderr, "hoihod: cannot open RTT file '%s'\n", rtt_path.c_str());
        return 2;
      }
      io::LoadReport rrep;
      auto loaded = measure::load_measurements(rin, router_count, lopt, &rrep);
      if (!loaded) {
        std::fprintf(stderr, "hoihod: RTT file '%s': %s\n", rtt_path.c_str(),
                     rrep.error.c_str());
        return 2;
      }
      meas = std::move(*loaded);
      if (rrep.skipped_total() > 0)
        std::fprintf(stderr, "hoihod: RTT file: skipped %zu bad lines\n",
                     rrep.skipped_total());
    }

    fuse::PopulationPrior prior;
    if (!population_path.empty()) {
      std::ifstream pin(population_path);
      if (!pin) {
        std::fprintf(stderr, "hoihod: cannot open population file '%s'\n",
                     population_path.c_str());
        return 2;
      }
      io::LoadReport prep;
      auto loaded = fuse::PopulationPrior::load(pin, dict, lopt, &prep);
      if (!loaded) {
        std::fprintf(stderr, "hoihod: population file '%s': %s\n", population_path.c_str(),
                     prep.error.c_str());
        return 2;
      }
      prior = std::move(*loaded);
    }

    const std::size_t vp_count = meas.vps.size();
    const auto ctx = fuse::FuseContext::build(subjects, std::move(meas), dict,
                                              std::move(prior));
    const bool grid = ctx->grid() != nullptr;
    store.set_fuse_context(ctx);
    std::printf("hoihod: GEO armed: %zu subjects, %zu VPs, grid=%s\n",
                ctx->subject_count(), vp_count, grid ? "dense" : "fallback");
  }

  serve::ServerConfig config;
  config.audit.fuse.rtt.slack_ms = rtt_slack_ms;
  config.port = port;
  config.bind_any = bind_any;
  config.workers = workers;
  config.request_deadline_ms = deadline_ms;
  config.idle_timeout_ms = idle_timeout_ms;
  config.max_inflight = max_inflight;
  config.drain_timeout_ms = drain_timeout_ms;
  config.worker_stall_ms = worker_stall_ms;
  config.tick_ms = watch_ms > 0 ? watch_ms : 500;
  // Tick (every tick_ms on the loop thread): translate signals into server
  // actions, and pick up model-file rewrites by mtime. server_ptr is set
  // right after construction, before run() can tick.
  serve::Server* server_ptr = nullptr;
  const bool has_delta_watch = !delta_path.empty();
  config.on_tick = [&server_ptr, &store, watch_ms, has_delta_watch]() {
    const int sig = g_signal.exchange(0, std::memory_order_relaxed);
    if (sig == SIGTERM) {
      // Graceful: finish in-flight work, flush, then exit 0. A second
      // SIGTERM during the drain still exits via drain_timeout_ms.
      if (!server_ptr->draining()) {
        std::printf("hoihod: SIGTERM, draining\n");
        std::fflush(stdout);
        server_ptr->drain();
      }
      return;
    }
    if (sig == SIGINT) {
      std::printf("hoihod: signal %d, shutting down\n", sig);
      server_ptr->stop();
      return;
    }
    if (sig == SIGHUP) {
      if (const auto err = store.reload()) {
        server_ptr->metrics().reload_failures.inc();
        std::fprintf(stderr, "hoihod: reload failed: %s\n", err->c_str());
      } else {
        server_ptr->metrics().reloads.inc();
        std::printf("hoihod: reloaded (generation %llu)\n",
                    static_cast<unsigned long long>(store.generation()));
      }
      return;
    }
    if (watch_ms <= 0) return;
    std::string watch_error;
    switch (store.poll_watch(&watch_error)) {
      case serve::ModelStore::WatchOutcome::kReloaded:
        server_ptr->metrics().reloads.inc();
        std::printf("hoihod: model file changed, reloaded (generation %llu)\n",
                    static_cast<unsigned long long>(store.generation()));
        break;
      case serve::ModelStore::WatchOutcome::kReloadFailed:
        // Reported once per file change (the watcher reloads only after the
        // mtime holds still), not once per poll.
        server_ptr->metrics().reload_failures.inc();
        std::fprintf(stderr, "hoihod: reload failed: %s\n", watch_error.c_str());
        break;
      case serve::ModelStore::WatchOutcome::kDebounced:
        server_ptr->metrics().reload_debounced.inc();
        break;
      case serve::ModelStore::WatchOutcome::kMissing:
      case serve::ModelStore::WatchOutcome::kUnchanged:
        break;
    }
    if (!has_delta_watch) return;
    std::string delta_error;
    switch (store.poll_delta_watch(&delta_error)) {
      case serve::ModelStore::WatchOutcome::kReloaded:
        std::printf("hoihod: delta file changed, applied (generation %llu)\n",
                    static_cast<unsigned long long>(store.generation()));
        break;
      case serve::ModelStore::WatchOutcome::kReloadFailed:
        // Like the model watch: one report per file change, not per poll.
        // delta_rejected is counted by the store itself.
        std::fprintf(stderr, "hoihod: delta apply failed: %s\n", delta_error.c_str());
        break;
      case serve::ModelStore::WatchOutcome::kDebounced:
      case serve::ModelStore::WatchOutcome::kMissing:
      case serve::ModelStore::WatchOutcome::kUnchanged:
        break;
    }
  };
  serve::Server server(store, config);
  server_ptr = &server;

  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "hoihod: %s\n", error.c_str());
    return 1;
  }
  std::unique_ptr<serve::MetricsHttp> exporter;
  if (metrics_port >= 0) {
    exporter = std::make_unique<serve::MetricsHttp>(
        server.metrics().registry(), static_cast<std::uint16_t>(metrics_port), bind_any);
    if (!exporter->start(&error)) {
      std::fprintf(stderr, "hoihod: metrics exporter: %s\n", error.c_str());
      return 1;
    }
    std::printf("hoihod: metrics on http://%s:%u/metrics\n",
                bind_any ? "0.0.0.0" : "127.0.0.1", static_cast<unsigned>(exporter->port()));
  }
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << server.port() << '\n';
  }
  std::printf("hoihod: listening on %s:%u\n", bind_any ? "0.0.0.0" : "127.0.0.1",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGHUP, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  server.run();
  std::printf("hoihod: bye\n");
  return 0;
}
