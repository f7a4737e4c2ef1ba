// Chaos harness for the hoihod serving subsystem (DESIGN.md §9).
//
// Spawns the real daemon binary and drives it through a scripted gauntlet
// of injected faults while verifying every response against precomputed
// expected answers:
//
//   1. learn a model in-process, save it with the crash-safe writer, and
//      record the exact response line each hostname must produce;
//   2. exec hoihod with HOIHO_FAILPOINTS arming short writes, EINTR, accept
//      failures, and worker latency;
//   3. drive a pipelined mixed workload — LOOKUP, GEO (plain, claimed, and
//      by interface address), STATS, and an unknown verb — from several
//      connections, every response verified against a precomputed exact
//      line (connect uses the client's jittered-backoff retry, so injected
//      accept failures are survived, not special-cased);
//   4. mid-run: two same-content atomic rewrites (watcher reloads), one
//      corrupt-model rewrite (reload must fail; old model keeps answering),
//      then restore;
//   5. SIGKILL the daemon, verify the model file survived (checksum), and
//      bring up a replacement that answers correctly;
//   6. SIGTERM the replacement and require a graceful drain: exit code 0.
//
// Durability drills (DESIGN.md §14) ride the same binary:
//
//   0. SIGKILL-during-learning: a checkpointed streaming learn in a child
//      process is killed mid-run (slowed commits guarantee the kill lands
//      between batches); a resume child must actually replay from the WAL
//      and the final saved model must be byte-identical to an
//      uninterrupted run's;
//   7. lineage gauntlet: a daemon with --keep-generations + --canary-file
//      under a mixed LOOKUP/GEO load: a diverging (but well-formed) model
//      rewrite must be canary-rejected without serving a single query, a
//      same-content rewrite bumps the generation, and an in-band ROLLBACK
//      mid-load republishes the archived generation — all with zero wrong
//      answers, GENS telling the true history, and worker stalls (injected
//      latency) surfacing in serve_worker_stalled;
//   8. torn model delta: a daemon with --delta-watch armed first sees a
//      truncated delta file (checksum footer missing) — it must be rejected
//      with the serving generation untouched and serve_delta_rejected
//      bumped — then the intact delta applies and bumps the generation, and
//      replaying the now-stale file through the DELTA verb must answer
//      DELTA,error in-band.
//
// Acceptance: zero wrong answers (ERR,busy / ERR,deadline count as shed,
// anything else mismatching is wrong), shed fraction bounded, faults
// actually fired, and both daemons leave with status 0 / SIGKILL as
// scripted. Exit code 0 iff all hold.
//
// Run: ./build/bench/chaos_serve [--quick] [--hoihod PATH] [--operators N]

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/delta.h"
#include "core/hoiho.h"
#include "core/nc_io.h"
#include "core/ncb.h"
#include "fuse/audit.h"
#include "measure/rtt_io.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "sim/probing.h"
#include "sim/streaming.h"
#include "util/cli.h"
#include "util/failpoint.h"
#include "util/strings.h"

using namespace hoiho;

namespace {

struct DriveResult {
  std::uint64_t sent = 0, ok = 0, shed = 0, wrong = 0;
  bool io_failed = false;
  std::string first_wrong;  // diagnostic for the report
};

std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

// Expected responses are exact wire lines, except entries starting with
// '\x01': the rest is a required response *prefix* (used for STATS, whose
// counters change between requests).
constexpr char kPrefixSentinel = '\x01';

// Replicates the daemon's GEO handling (Server::process_batch) for one raw
// request line: parse it exactly as the wire parser will, fuse, classify the
// claim if one was sent, format. Fusion is deterministic, so this is the
// byte-exact line the daemon must produce.
std::string expected_geo(const fuse::Fuser& fuser, const std::string& line) {
  const serve::Request req = serve::parse_request(line);
  if (!req.error.empty()) return serve::format_error(req.error);
  std::optional<geo::Coordinate> claimed;
  if (req.has_claimed) claimed = req.claimed;
  const fuse::FuseResult fused = fuser.fuse(req.subject, claimed);
  std::optional<fuse::AuditOutcome> audit;
  if (req.has_claimed)
    audit = fuse::classify_claim(fused, req.claimed, fuse::AuditConfig{}.agree_km);
  return serve::format_geo(fused, audit);
}

// Learn a model, write the subjects + RTT files the daemon will arm GEO
// from, and precompute the exact wire response for a mixed
// LOOKUP/GEO/STATS/unknown-verb request stream. The in-process fuse context
// is built from the files' round-tripped contents — the same bytes the
// daemon loads — so the precomputed GEO lines match it exactly.
bool build_corpus(std::size_t operators, const std::string& subjects_path,
                  const std::string& rtt_path, std::vector<core::StoredConvention>* stored,
                  std::vector<std::string>* requests, std::vector<std::string>* expected) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  sim::WorldConfig config;
  config.seed = 20260805;
  config.operators = operators;
  config.geohint_scheme_rate = 0.8;
  const sim::World world = sim::generate_world(dict, config);
  measure::Measurements pings = sim::probe_pings(world, {});
  const core::Hoiho hoiho(dict);
  const core::HoihoResult result = hoiho.run(world.topology, pings);
  core::Geolocator check(dict);
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    stored->push_back(core::StoredConvention{sr.nc, sr.cls});
    check.add(sr.nc, sr.cls);
  }

  // Subjects + RTT files, in the hoihod --subjects-out / --rtt-out format.
  {
    std::ofstream subj(subjects_path);
    for (const topo::Router& router : world.topology.routers()) {
      std::string first_hostname;
      for (const topo::Interface& ifc : router.interfaces)
        if (ifc.hostname) {
          first_hostname = ifc.hostname->full;
          break;
        }
      for (const topo::Interface& ifc : router.interfaces) {
        if (ifc.hostname) subj << ifc.hostname->full << ',' << router.id << '\n';
        if (!ifc.address.empty())
          subj << ifc.address << ',' << router.id << ',' << first_hostname << '\n';
      }
    }
    std::ofstream rtt(rtt_path);
    measure::save_measurements(rtt, pings);
    if (!subj || !rtt) {
      std::fprintf(stderr, "chaos: cannot write %s / %s\n", subjects_path.c_str(),
                   rtt_path.c_str());
      return false;
    }
  }
  // Round-trip through the files so the in-process context sees exactly what
  // the daemon will load (the RTT format is not double-lossless).
  std::ifstream sin(subjects_path), rin(rtt_path);
  const auto subjects = fuse::load_subjects(sin);
  const auto meas = measure::load_measurements(rin, world.topology.size(), {});
  if (!subjects || !meas) {
    std::fprintf(stderr, "chaos: subject/rtt round-trip failed\n");
    return false;
  }
  const auto ctx = fuse::FuseContext::build(*subjects, std::move(*meas), dict);
  const fuse::Fuser fuser(check, ctx.get());

  std::size_t misses_kept = 0, kept = 0;
  for (const sim::HostnameTruth& truth : world.truths) {
    const auto loc = check.locate(truth.hostname);
    if (!loc && misses_kept >= world.truths.size() / 20) continue;
    if (!loc) ++misses_kept;
    requests->push_back(truth.hostname);
    expected->push_back(loc ? serve::format_hit(*loc) : serve::format_miss());
    ++kept;

    // Interleave the rest of the verb mix, keyed off the kept-row ordinal so
    // the stream is deterministic: plain GEO, claimed GEO (the claim is the
    // hostname answer's own coordinate — formatted then re-parsed inside
    // expected_geo, so truncation matches the wire), GEO by interface
    // address, STATS, and an unknown verb.
    if (kept % 3 == 0) {
      requests->push_back("GEO " + truth.hostname);
      expected->push_back(expected_geo(fuser, requests->back()));
    }
    if (kept % 7 == 1 && loc) {
      requests->push_back("GEO " + truth.hostname + " " + util::fmt_double(loc->coord.lat, 4) +
                          "," + util::fmt_double(loc->coord.lon, 4));
      expected->push_back(expected_geo(fuser, requests->back()));
    }
    if (kept % 11 == 2) {
      const topo::Router& router = world.topology.router(truth.router);
      if (!router.interfaces.empty() && !router.interfaces.front().address.empty()) {
        requests->push_back("GEO " + router.interfaces.front().address);
        expected->push_back(expected_geo(fuser, requests->back()));
      }
    }
    if (kept % 23 == 3) {
      requests->push_back("STATS");
      expected->push_back(std::string(1, kPrefixSentinel) + "STATS,");
    }
    if (kept % 41 == 4) {
      requests->push_back("FROBNICATE " + truth.hostname);
      expected->push_back(serve::format_error("unknown_verb"));
    }
  }
  return true;
}

pid_t spawn_daemon(const std::string& binary, const std::vector<std::string>& args,
                   const std::string& failpoints) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (failpoints.empty())
    ::unsetenv("HOIHO_FAILPOINTS");
  else
    ::setenv("HOIHO_FAILPOINTS", failpoints.c_str(), 1);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  std::fprintf(stderr, "chaos: execv %s: %s\n", binary.c_str(), std::strerror(errno));
  ::_exit(127);
}

std::uint16_t wait_for_port(const std::string& port_file, pid_t pid) {
  for (int i = 0; i < 200; ++i) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) return static_cast<std::uint16_t>(port);
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return 0;  // died at startup
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return 0;
}

// Waits up to `timeout_ms`; returns the raw wait status, or -1 on timeout.
int wait_for_exit(pid_t pid, int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; waited += 50) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

// True when `line` satisfies `want` (exact match, or prefix match for
// sentinel-tagged entries).
bool matches(const std::string& line, const std::string& want) {
  if (!want.empty() && want[0] == kPrefixSentinel)
    return line.compare(0, want.size() - 1, want, 1, want.size() - 1) == 0;
  return line == want;
}

void drive(const std::string& host, std::uint16_t port,
           const std::vector<std::string>& hostnames,
           const std::vector<std::string>& expected, std::size_t offset,
           std::size_t rounds, std::size_t pipeline, DriveResult* result) {
  serve::ClientOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.io_timeout_ms = 10000;
  copts.max_attempts = 10;
  copts.backoff_initial_ms = 20;
  copts.backoff_seed = offset + 1;
  std::string error;
  auto client = serve::Client::connect_with_retry(host, port, copts, &error);
  if (!client) {
    std::fprintf(stderr, "chaos: connect: %s\n", error.c_str());
    result->io_failed = true;
    return;
  }
  std::size_t cursor = offset % hostnames.size();
  std::vector<std::string> batch(pipeline);
  std::vector<std::size_t> batch_idx(pipeline);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < pipeline; ++i) {
      batch[i] = hostnames[cursor];
      batch_idx[i] = cursor;
      cursor = (cursor + 1) % hostnames.size();
    }
    if (!client->send_lines(batch)) {
      result->io_failed = true;
      return;
    }
    result->sent += pipeline;
    for (std::size_t i = 0; i < pipeline; ++i) {
      const auto line = client->read_line();
      if (!line) {
        result->io_failed = true;
        return;
      }
      if (matches(*line, expected[batch_idx[i]])) {
        ++result->ok;
      } else if (*line == "ERR,busy" || *line == "ERR,deadline") {
        ++result->shed;  // load shedding is allowed, wrong answers are not
      } else {
        ++result->wrong;
        if (result->first_wrong.empty())
          result->first_wrong = batch[i] + " -> '" + *line + "' (want '" +
                                expected[batch_idx[i]] + "')";
      }
    }
    // Pace the rounds so the run overlaps the mid-run reload script instead
    // of finishing before the first rewrite lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::uint64_t stat_value(const std::string& stats, const std::string& key) {
  const std::string needle = "," + key + "=";
  const std::size_t pos = stats.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + pos + needle.size(), nullptr, 10);
}

// Reads a counter out of a STATS2 response ("name:c=value").
std::uint64_t stats2_value(const std::string& stats2, const std::string& name) {
  const std::string needle = "," + name + ":c=";
  const std::size_t pos = stats2.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(stats2.c_str() + pos + needle.size(), nullptr, 10);
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- drill 0: SIGKILL during a checkpointed streaming learn ------------------

sim::StreamingWorldConfig chaos_stream_config(bool quick) {
  sim::StreamingWorldConfig swc;
  swc.seed = 20260809;
  swc.suffixes = quick ? 40 : 80;
  swc.target_hostnames = quick ? 1200 : 3000;
  swc.max_hostnames_per_suffix = 256;
  swc.vp_count = 16;
  swc.batch_hostname_budget = 200;
  swc.traits.geohint_scheme_rate = 0.8;
  swc.traits.hostname_rate = 0.85;
  return swc;
}

// One checkpointed streaming learn, run inside a forked child. mode 0 slows
// every commit (so the parent's SIGKILL reliably lands mid-run); mode 1 is
// the resume leg and exits 3 unless it actually replayed committed batches
// from the WAL. Exits 2 when the model cannot be saved.
int learn_leg(bool quick, const std::string& ckpt_dir, const std::string& model_out,
              int mode) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  if (mode == 0) util::failpoint::configure("checkpoint_write", "delay:40");
  obs::Registry registry;
  core::HoihoConfig hc;
  hc.threads = 2;
  hc.checkpoint_dir = ckpt_dir;
  hc.registry = &registry;
  sim::StreamingWorld world(dict, chaos_stream_config(quick));
  const core::HoihoResult result = core::Hoiho(dict, hc).run_stream(world);
  if (mode == 1 && registry.snapshot().value("checkpoint_batches_resumed") == 0) return 3;
  std::vector<core::StoredConvention> stored;
  for (const core::SuffixResult& sr : result.suffixes)
    if (sr.usable()) stored.push_back(core::StoredConvention{sr.nc, sr.cls});
  std::string error;
  // Extension-dispatched: the drill saves .ncb, so byte-identical resume is
  // asserted on the binary image the serving store actually mmaps.
  if (!core::save_model_to_file(model_out, stored, dict, &error)) {
    std::fprintf(stderr, "chaos: learn leg save: %s\n", error.c_str());
    return 2;
  }
  return 0;
}

// The committed-batch count in a checkpoint manifest (0 when unreadable).
std::uint64_t manifest_batches(const std::string& ckpt_dir) {
  std::ifstream in(ckpt_dir + "/MANIFEST");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("batches,", 0) == 0)
      return std::strtoull(line.c_str() + 8, nullptr, 10);
  return 0;
}

bool learning_crash_drill(bool quick) {
  const std::string ckpt_dir = "CHAOS_CKPT";
  const std::string ref_path = "CHAOS_STREAM_REF.ncb";
  const std::string out_path = "CHAOS_STREAM_MODEL.ncb";
  ::unlink((ckpt_dir + "/wal.log").c_str());
  ::unlink((ckpt_dir + "/MANIFEST").c_str());
  ::unlink(out_path.c_str());

  // Reference: the same learn, uninterrupted and uncheckpointed.
  if (learn_leg(quick, "", ref_path, 2) != 0) return false;
  const std::string ref_bytes = slurp_file(ref_path);
  if (ref_bytes.empty()) return false;

  // Crash leg: kill once at least two batches committed (slowed commits make
  // the window wide); if the child somehow finishes first, the checkpoint is
  // simply complete and the resume leg replays everything.
  pid_t pid = ::fork();
  if (pid == 0) ::_exit(learn_leg(quick, ckpt_dir, out_path, 0));
  bool killed = false;
  for (int i = 0; i < 600; ++i) {
    if (manifest_batches(ckpt_dir) >= 2) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      pid = -1;  // finished before the kill window
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (pid > 0) {
    const int status = wait_for_exit(pid, 10000);
    if (killed && (status < 0 || !WIFSIGNALED(status))) {
      std::fprintf(stderr, "chaos: learn leg did not die on SIGKILL\n");
      return false;
    }
  }
  const std::uint64_t committed = manifest_batches(ckpt_dir);
  std::printf("chaos: learn killed with %llu batches committed\n",
              static_cast<unsigned long long>(committed));
  if (committed == 0) {
    std::fprintf(stderr, "chaos: kill landed before any commit\n");
    return false;
  }

  // Resume leg: a fresh process must replay from the WAL (exit 3 if it did
  // not resume) and finish the run.
  const pid_t resume = ::fork();
  if (resume == 0) ::_exit(learn_leg(quick, ckpt_dir, out_path, 1));
  const int resume_status = wait_for_exit(resume, 60000);
  if (resume_status < 0 || !WIFEXITED(resume_status) || WEXITSTATUS(resume_status) != 0) {
    std::fprintf(stderr, "chaos: resume leg failed (status %d%s)\n", resume_status,
                 resume_status >= 0 && WIFEXITED(resume_status) &&
                         WEXITSTATUS(resume_status) == 3
                     ? ", did not resume"
                     : "");
    return false;
  }

  const bool identical = slurp_file(out_path) == ref_bytes;
  std::printf("chaos: drill0 (kill during learning) resumed model %s\n",
              identical ? "byte-identical" : "DIVERGED");
  return identical;
}

// --- drill 8: torn model delta ----------------------------------------------
//
// A daemon with --delta-watch armed. The script: a truncated (torn) delta
// file lands first — the loader requires the checksum footer, so it must be
// rejected (serve_delta_rejected bumps) with the serving generation
// untouched; then the intact delta (a same-content upsert, so lookup
// expectations stay valid) applies and bumps the generation; finally the
// DELTA verb replays the same file, which now targets a stale base
// generation and must answer DELTA,error in-band.
bool torn_delta_drill(const std::string& binary, const std::string& model_path,
                      const std::string& port_file,
                      const std::vector<core::StoredConvention>& stored,
                      const std::vector<std::string>& requests,
                      const std::vector<std::string>& expected) {
  const std::string delta_path = "CHAOS_DELTA.txt";
  ::unlink(delta_path.c_str());
  ::unlink(port_file.c_str());
  // No --subjects/--rtt: the boot publish is the only one, so the serving
  // generation starts at 1 and every move below is delta-driven.
  const std::vector<std::string> args = {"--model",    model_path, "--port",       "0",
                                         "--port-file", port_file,  "--watch-ms",   "50",
                                         "--delta-watch", delta_path};
  const pid_t pid = spawn_daemon(binary, args, "");
  const std::uint16_t port = wait_for_port(port_file, pid);
  if (port == 0) {
    std::fprintf(stderr, "chaos: delta daemon did not come up\n");
    return false;
  }

  bool ok = true;
  std::string error;
  serve::ClientOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.io_timeout_ms = 5000;
  copts.max_attempts = 10;
  copts.backoff_initial_ms = 20;
  auto admin = serve::Client::connect_with_retry("127.0.0.1", port, copts, &error);
  if (!admin) {
    std::fprintf(stderr, "chaos: delta admin connect: %s\n", error.c_str());
    ::kill(pid, SIGKILL);
    return false;
  }
  const auto expect_line = [&](const std::string& verb, const std::string& want, bool poll) {
    if (!ok) return;
    for (int i = 0; i < 200; ++i) {
      const auto resp = admin->request(verb);
      if (resp && *resp == want) return;
      if (!poll || !resp) {
        std::fprintf(stderr, "chaos: %s -> '%s' (want '%s')\n", verb.c_str(),
                     resp ? resp->c_str() : "<io error>", want.c_str());
        ok = false;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "chaos: %s never settled on '%s'\n", verb.c_str(), want.c_str());
    ok = false;
  };
  const auto poll_counter = [&](const std::string& name) {
    std::uint64_t value = 0;
    for (int i = 0; i < 200 && ok; ++i) {
      const auto s2 = admin->request("STATS2");
      if (!s2) {
        ok = false;
        break;
      }
      value = stats2_value(*s2, name);
      if (value >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (value == 0) {
      std::fprintf(stderr, "chaos: %s never reached 1\n", name.c_str());
      ok = false;
    }
    return value;
  };

  expect_line("GENS", "GENS,serving=1,archived=-", false);

  // The delta: one upsert carrying a convention the model already serves
  // byte-identically, so applying it changes the generation but no answer.
  core::ModelDelta delta;
  delta.base_generation = 1;
  delta.upserts.push_back(stored.front());
  const std::string bytes = core::serialize_model_delta(delta, geo::builtin_dictionary());

  // Torn: half the serialized delta — the checksum footer is gone, so the
  // watcher must reject it without publishing.
  {
    std::ofstream out(delta_path, std::ios::trunc | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  const std::uint64_t rejected = poll_counter("serve_delta_rejected");
  expect_line("GENS", "GENS,serving=1,archived=-", false);

  // Intact: the watcher applies it and the generation moves.
  {
    std::ofstream out(delta_path, std::ios::trunc | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  expect_line("GENS", "GENS,serving=2,archived=-", true);

  // In-band replay: the same file now targets a stale base generation.
  if (ok) {
    const auto resp = admin->request("DELTA " + delta_path);
    if (!resp || serve::classify_response(*resp) != serve::ResponseKind::kDeltaError) {
      std::fprintf(stderr, "chaos: stale DELTA -> '%s' (want DELTA,error,...)\n",
                   resp ? resp->c_str() : "<io error>");
      ok = false;
    }
  }

  // Spot-check plain lookups against the precomputed answers (this daemon
  // has no fuse context, so only space-free lookup rows are comparable).
  std::size_t checked = 0;
  for (std::size_t i = 0; i < requests.size() && checked < 32 && ok; ++i) {
    if (requests[i].find(' ') != std::string::npos) continue;
    if (!expected[i].empty() && expected[i][0] == kPrefixSentinel) continue;
    const auto resp = admin->request(requests[i]);
    if (!resp || *resp != expected[i]) {
      std::fprintf(stderr, "chaos: post-delta lookup %s -> '%s' (want '%s')\n",
                   requests[i].c_str(), resp ? resp->c_str() : "<io error>",
                   expected[i].c_str());
      ok = false;
      break;
    }
    ++checked;
  }
  ok = ok && checked > 0;

  ::kill(pid, SIGTERM);
  const int status = wait_for_exit(pid, 10000);
  const bool clean = status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!clean) {
    std::fprintf(stderr, "chaos: delta daemon drain did not exit 0 (status %d)\n", status);
    ::kill(pid, SIGKILL);
  }
  ok = ok && clean;
  std::printf("chaos: drill8 (torn delta) rejected=%llu checked=%zu %s\n",
              static_cast<unsigned long long>(rejected), checked, ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string binary = self_dir() + "/../src/hoihod";
  std::size_t operators = 32;
  util::Args args(argc, argv,
                  "usage: chaos_serve [--quick] [--hoihod PATH] [--operators N]\n");
  while (args.next()) {
    if (args.is("--quick")) quick = true;
    else if (args.is("--hoihod")) binary = args.value();
    else if (args.is("--operators")) operators = static_cast<std::size_t>(std::atoi(args.value()));
    else args.reject();
  }
  if (::access(binary.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "chaos: hoihod binary not found at %s (use --hoihod)\n",
                 binary.c_str());
    return 1;
  }
  ::signal(SIGPIPE, SIG_IGN);

  // --- drill 0: SIGKILL during a checkpointed streaming learn --------------
  // Runs first, before any client-side failpoints are armed, so the
  // in-process reference learn is clean.
  const bool crash_drill_pass = learning_crash_drill(quick);

  const std::size_t connections = quick ? 2 : 4;
  const std::size_t pipeline = quick ? 16 : 32;
  const std::size_t rounds = quick ? 40 : 200;

  const std::string model_path = "CHAOS_MODEL.txt";
  const std::string port_file = "CHAOS_PORT.txt";
  const std::string subjects_path = "CHAOS_SUBJECTS.csv";
  const std::string rtt_path = "CHAOS_RTT.txt";
  ::unlink(port_file.c_str());

  std::vector<core::StoredConvention> stored;
  std::vector<std::string> hostnames, expected;
  if (!build_corpus(operators, subjects_path, rtt_path, &stored, &hostnames, &expected))
    return 1;
  if (hostnames.empty()) {
    std::fprintf(stderr, "chaos: corpus came up empty\n");
    return 1;
  }
  std::string error;
  if (!core::save_conventions_to_file(model_path, stored, geo::builtin_dictionary(),
                                      &error)) {
    std::fprintf(stderr, "chaos: %s\n", error.c_str());
    return 1;
  }
  std::printf("chaos: %zu conventions, %zu mixed requests\n", stored.size(),
              hostnames.size());

  // Daemon side: short writes fragment every flush, accept fails for the
  // first attempts, and worker latency makes shedding/deadlines reachable.
  // Client side (this process): EINTR injected into every util::write_all,
  // so the drivers' own send path retries through interrupts.
  const std::string failpoints =
      "serve.write=short,p=0.3;"
      "serve.accept=error:EMFILE,times=2;"
      "serve.process=delay:1,p=0.05";
  if (!util::failpoint::configure("net.write", "eintr,p=0.05", &error)) {
    std::fprintf(stderr, "chaos: failpoint: %s\n", error.c_str());
    return 1;
  }
  const std::vector<std::string> daemon_args = {
      "--model", model_path, "--subjects", subjects_path, "--rtt", rtt_path,
      "--port", "0", "--port-file", port_file,
      "--watch-ms", "50", "--deadline-ms", "2000", "--idle-timeout-ms", "30000",
      "--max-inflight", "65536", "--drain-timeout-ms", "3000", "--workers", "2"};

  pid_t pid = spawn_daemon(binary, daemon_args, failpoints);
  std::uint16_t port = wait_for_port(port_file, pid);
  if (port == 0) {
    std::fprintf(stderr, "chaos: daemon did not come up\n");
    return 1;
  }
  std::printf("chaos: daemon pid %d on port %u (faults armed)\n", pid,
              static_cast<unsigned>(port));

  // --- phase 1: drive under faults with mid-run reloads --------------------
  std::vector<DriveResult> results(connections);
  std::vector<std::thread> drivers;
  for (std::size_t i = 0; i < connections; ++i)
    drivers.emplace_back(drive, "127.0.0.1", port, std::cref(hostnames),
                         std::cref(expected), i * 37, rounds, pipeline, &results[i]);

  const auto settle = std::chrono::milliseconds(quick ? 200 : 400);
  // Two good reloads: same content, new mtime; the watcher must debounce
  // then pick each one up.
  for (int i = 0; i < 2; ++i) {
    std::this_thread::sleep_for(settle);
    if (!core::save_conventions_to_file(model_path, stored, geo::builtin_dictionary(),
                                        &error)) {
      std::fprintf(stderr, "chaos: rewrite: %s\n", error.c_str());
      return 1;
    }
  }
  // One corrupt reload: a torn/garbage model must fail to load while the old
  // snapshot keeps answering (the drivers are still verifying responses).
  std::this_thread::sleep_for(settle);
  {
    std::ofstream out(model_path, std::ios::trunc);
    out << "S,example.com,promising\nthis is not a convention file\n";
  }
  std::this_thread::sleep_for(settle);
  if (!core::save_conventions_to_file(model_path, stored, geo::builtin_dictionary(),
                                      &error)) {
    std::fprintf(stderr, "chaos: restore: %s\n", error.c_str());
    return 1;
  }

  for (std::thread& t : drivers) t.join();

  std::uint64_t sent = 0, ok = 0, shed = 0, wrong = 0;
  bool io_failed = false;
  for (const DriveResult& r : results) {
    sent += r.sent;
    ok += r.ok;
    shed += r.shed;
    wrong += r.wrong;
    io_failed = io_failed || r.io_failed;
    if (!r.first_wrong.empty())
      std::fprintf(stderr, "chaos: WRONG ANSWER: %s\n", r.first_wrong.c_str());
  }
  std::printf("chaos: phase1 sent=%llu ok=%llu shed=%llu wrong=%llu\n",
              static_cast<unsigned long long>(sent), static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(wrong));

  // STATS over a fresh connection: reloads landed, the corrupt one failed,
  // and the armed faults actually fired.
  std::uint64_t reloads = 0, reload_failures = 0, injected = 0;
  {
    serve::ClientOptions copts;
    copts.connect_timeout_ms = 2000;
    copts.io_timeout_ms = 5000;
    auto admin = serve::Client::connect("127.0.0.1", port, &error, copts);
    if (!admin) {
      std::fprintf(stderr, "chaos: admin connect: %s\n", error.c_str());
      return 1;
    }
    const auto stats = admin->request("STATS");
    if (!stats) {
      std::fprintf(stderr, "chaos: STATS failed\n");
      return 1;
    }
    reloads = stat_value(*stats, "reloads");
    reload_failures = stat_value(*stats, "reload_failures");
    injected = stat_value(*stats, "injected_faults");
    std::printf("chaos: reloads=%llu reload_failures=%llu injected_faults=%llu\n",
                static_cast<unsigned long long>(reloads),
                static_cast<unsigned long long>(reload_failures),
                static_cast<unsigned long long>(injected));
  }

  // --- phase 2: SIGKILL, model must survive, replacement must serve --------
  ::kill(pid, SIGKILL);
  const int kill_status = wait_for_exit(pid, 5000);
  if (kill_status < 0 || !WIFSIGNALED(kill_status)) {
    std::fprintf(stderr, "chaos: daemon did not die on SIGKILL\n");
    return 1;
  }
  {
    // The crash-safe writer means the file on disk is always a complete,
    // checksummed model — a kill can never leave a torn file behind.
    std::ifstream in(model_path);
    std::string load_error;
    if (!core::load_conventions(in, geo::builtin_dictionary(), &load_error)) {
      std::fprintf(stderr, "chaos: model corrupt after SIGKILL: %s\n", load_error.c_str());
      return 1;
    }
  }
  ::unlink(port_file.c_str());
  pid = spawn_daemon(binary, daemon_args, "");
  port = wait_for_port(port_file, pid);
  if (port == 0) {
    std::fprintf(stderr, "chaos: replacement daemon did not come up\n");
    return 1;
  }
  DriveResult after;
  drive("127.0.0.1", port, hostnames, expected, 0, quick ? 5 : 20, pipeline, &after);
  std::printf("chaos: phase2 (post-kill) sent=%llu ok=%llu shed=%llu wrong=%llu\n",
              static_cast<unsigned long long>(after.sent),
              static_cast<unsigned long long>(after.ok),
              static_cast<unsigned long long>(after.shed),
              static_cast<unsigned long long>(after.wrong));

  // --- phase 3: SIGTERM must drain gracefully and exit 0 -------------------
  ::kill(pid, SIGTERM);
  const int term_status = wait_for_exit(pid, 10000);
  const bool clean_exit =
      term_status >= 0 && WIFEXITED(term_status) && WEXITSTATUS(term_status) == 0;
  if (!clean_exit) {
    std::fprintf(stderr, "chaos: SIGTERM drain did not exit 0 (status %d)\n", term_status);
    ::kill(pid, SIGKILL);
  }

  // --- phase 7: lineage gauntlet — canary gate, generations, rollback ------
  // A fresh daemon with archiving + a canary armed, under live mixed load:
  // a diverging (empty but well-formed) rewrite must be canary-rejected
  // without ever serving, a same-content restore bumps the generation, an
  // in-band ROLLBACK republishes the archived model, and the injected
  // worker latency must surface as stall detections. Every generation in
  // play has identical content, so the drivers' precomputed expectations
  // stay valid across the whole script — zero wrong answers is a real
  // assertion, not vacuous.
  const std::string canary_path = "CHAOS_CANARY.txt";
  bool lineage_ok = false;
  DriveResult lineage_load;
  {
    std::size_t canary_rows = 0;
    {
      std::ofstream canary(canary_path, std::ios::trunc);
      canary << "# chaos canary: pinned lookups the next model must reproduce\n";
      for (std::size_t i = 0; i < hostnames.size() && canary_rows < 24; ++i) {
        if (hostnames[i].find(' ') != std::string::npos) continue;  // plain lookups only
        if (!expected[i].empty() && expected[i][0] == kPrefixSentinel) continue;
        if (expected[i] == serve::format_miss()) continue;
        canary << hostnames[i] << ',' << expected[i] << '\n';
        ++canary_rows;
      }
    }
    if (canary_rows == 0) {
      std::fprintf(stderr, "chaos: no hit lines available for the canary\n");
      return 1;
    }
    // The lineage gauntlet runs on the binary format: the same canary gate,
    // generation archive, and ROLLBACK path, but over .ncb images the store
    // mmaps (archives land as .gens/gen-<G>.ncb).
    const std::string lineage_model = "CHAOS_MODEL.ncb";
    if (!core::save_model_to_file(lineage_model, stored, geo::builtin_dictionary(), &error)) {
      std::fprintf(stderr, "chaos: lineage model write: %s\n", error.c_str());
      return 1;
    }
    // Fresh lineage: drop any archive left behind by an earlier run (either
    // extension — the archive keeps each generation in its source format).
    for (int g = 0; g < 64; ++g) {
      ::unlink((lineage_model + ".gens/gen-" + std::to_string(g) + ".nc").c_str());
      ::unlink((lineage_model + ".gens/gen-" + std::to_string(g) + ".ncb").c_str());
    }
    ::rmdir((lineage_model + ".gens").c_str());
    ::unlink(port_file.c_str());

    std::vector<std::string> lineage_args = daemon_args;
    for (std::size_t i = 0; i + 1 < lineage_args.size(); ++i)
      if (lineage_args[i] == "--model") lineage_args[i + 1] = lineage_model;
    lineage_args.insert(lineage_args.end(),
                        {"--keep-generations", "4", "--canary-file", canary_path,
                         "--worker-stall-ms", "100"});
    pid = spawn_daemon(binary, lineage_args, "serve.process=delay:300,times=3");
    port = wait_for_port(port_file, pid);
    if (port == 0) {
      std::fprintf(stderr, "chaos: lineage daemon did not come up\n");
      return 1;
    }
    std::thread loader(drive, "127.0.0.1", port, std::cref(hostnames), std::cref(expected),
                       0, quick ? 150 : 300, pipeline, &lineage_load);

    serve::ClientOptions copts;
    copts.connect_timeout_ms = 2000;
    copts.io_timeout_ms = 5000;
    copts.max_attempts = 10;
    copts.backoff_initial_ms = 20;
    auto admin = serve::Client::connect_with_retry("127.0.0.1", port, copts, &error);
    bool script_ok = admin.has_value();
    if (!script_ok) std::fprintf(stderr, "chaos: lineage admin connect: %s\n", error.c_str());

    auto expect_line = [&](const char* verb, const std::string& want, bool poll) {
      if (!script_ok) return;
      for (int i = 0; i < 200; ++i) {
        const auto resp = admin->request(verb);
        if (resp && *resp == want) return;
        if (!poll || !resp) {
          std::fprintf(stderr, "chaos: %s -> '%s' (want '%s')\n", verb,
                       resp ? resp->c_str() : "<io error>", want.c_str());
          script_ok = false;
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      std::fprintf(stderr, "chaos: %s never settled on '%s'\n", verb, want.c_str());
      script_ok = false;
    };
    auto poll_counter = [&](const std::string& name) {
      std::uint64_t value = 0;
      for (int i = 0; i < 200 && script_ok; ++i) {
        const auto s2 = admin->request("STATS2");
        if (!s2) {
          script_ok = false;
          break;
        }
        value = stats2_value(*s2, name);
        if (value >= 1) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (value == 0) {
        std::fprintf(stderr, "chaos: %s never reached 1\n", name.c_str());
        script_ok = false;
      }
      return value;
    };

    // Boot: the model file is archived as generation 1, then GEO arming
    // republishes the snapshot with the fuse context as generation 2
    // (set_fuse_context bumps the generation but archives nothing).
    expect_line("GENS", "GENS,serving=2,archived=1", false);
    // Diverging rewrite: well-formed but empty, so every canary lookup would
    // MISS. The watcher's reload must be rejected and gen 2 keeps serving.
    if (script_ok &&
        !core::save_model_to_file(lineage_model, {}, geo::builtin_dictionary(), &error)) {
      std::fprintf(stderr, "chaos: empty rewrite: %s\n", error.c_str());
      script_ok = false;
    }
    const std::uint64_t rejected = poll_counter("serve_reload_rejected");
    expect_line("GENS", "GENS,serving=2,archived=1", false);
    // Restore (same content): reload passes the canary, generation bumps.
    if (script_ok &&
        !core::save_model_to_file(lineage_model, stored, geo::builtin_dictionary(),
                                  &error)) {
      std::fprintf(stderr, "chaos: lineage restore: %s\n", error.c_str());
      script_ok = false;
    }
    expect_line("GENS", "GENS,serving=3,archived=1;3", true);
    // In-band rollback republishes archived gen 1 as a new generation.
    expect_line("ROLLBACK 1",
                "ROLLBACK,ok,generation=4,from=1,conventions=" + std::to_string(stored.size()),
                false);
    expect_line("GENS", "GENS,serving=4,archived=1;3;4", false);
    // The injected 300ms worker delays must have tripped the watchdog.
    const std::uint64_t stalled = poll_counter("serve_worker_stalled");

    loader.join();
    ::kill(pid, SIGTERM);
    const int lineage_status = wait_for_exit(pid, 10000);
    const bool lineage_exit =
        lineage_status >= 0 && WIFEXITED(lineage_status) && WEXITSTATUS(lineage_status) == 0;
    if (!lineage_exit) {
      std::fprintf(stderr, "chaos: lineage daemon drain did not exit 0 (status %d)\n",
                   lineage_status);
      ::kill(pid, SIGKILL);
    }
    if (!lineage_load.first_wrong.empty())
      std::fprintf(stderr, "chaos: WRONG ANSWER (lineage): %s\n",
                   lineage_load.first_wrong.c_str());
    lineage_ok = script_ok && lineage_exit && !lineage_load.io_failed &&
                 lineage_load.wrong == 0 && lineage_load.ok > 0;
    std::printf(
        "chaos: phase7 (lineage) sent=%llu ok=%llu shed=%llu wrong=%llu "
        "rejected=%llu stalled=%llu %s\n",
        static_cast<unsigned long long>(lineage_load.sent),
        static_cast<unsigned long long>(lineage_load.ok),
        static_cast<unsigned long long>(lineage_load.shed),
        static_cast<unsigned long long>(lineage_load.wrong),
        static_cast<unsigned long long>(rejected), static_cast<unsigned long long>(stalled),
        lineage_ok ? "ok" : "FAILED");
  }

  // --- drill 8: torn model delta -----------------------------------------
  const bool delta_drill_pass =
      torn_delta_drill(binary, model_path, port_file, stored, hostnames, expected);

  bool pass = clean_exit && !io_failed && wrong == 0 && after.wrong == 0 &&
              after.io_failed == false && ok > 0 && after.ok > 0;
  pass = pass && reloads >= 2 && reload_failures >= 1 && injected > 0;
  pass = pass && crash_drill_pass && lineage_ok && delta_drill_pass;
  // Shedding is allowed but must stay bounded: this load is far below the
  // configured ceilings, so more than 20% shed means something is broken.
  pass = pass && (sent == 0 || shed * 5 <= sent);
  std::printf("chaos: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
