// serve_lookup and serve_geo_churn: the geolocation user. An in-process
// serve::Server (2 workers) serves the model learned from the same seed,
// loaded as an mmap'd ncb, to the open-loop generator in loadgen.cc.
//
//   serve_lookup     bare lookups: a fresh permutation of every hostname in
//                    the world plus ~5% unanswerable names, first at a fixed
//                    offered rate; then in-process batch lookups on one
//                    thread, with a RELOAD on the idle server between
//                    pieces of the batch.
//   serve_geo_churn  `GEO <hostname>` with Zipf(s=1) subjects at a fixed
//                    rate, beside an admin connection that alternates
//                    RELOAD (back to the base model) and DELTA (pre-built
//                    churn deltas against the serving generation); then
//                    in-process batch GEO lookups on one thread, with a
//                    DELTA and a RELOAD on the idle server between pieces.
//
// Every response is checked against the in-process Geolocator::locate /
// Fuser::fuse answer. The traced pass replays the fixed-rate request
// sequence in-process against the same snapshot, with spans around parse,
// locate/fuse and format.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_set>

#include "core/delta.h"
#include "core/hoiho.h"
#include "core/ncb.h"
#include "fuse/fuser.h"
#include "geo/dictionary.h"
#include "loadgen.h"
#include "serve/model_store.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/streaming.h"
#include "workloads.h"

namespace perfbench {

using namespace hoiho;

namespace {

// Offered rates, fixed so every commit is measured at the same load. Each is
// about a quarter of the highest rate that met a 1 ms p99 on the reference
// box (4 vCPUs, 2 server workers): 420-600k lookups/s and 268-276k GEO/s
// (Zipf subjects, no publishes). At half of it the lookup p99 spread
// between runs was twice as wide (see NOTES.md).
constexpr double kLookupFixedRate = 120000;
// The batch phase comes in this many pieces, and `throughput` is the median
// of their rates: the host this was tuned on runs a single thread up to 40%
// slower for 2-8 s at a time, and the median over pieces spread across the
// phase leaves those periods out. The clock is read every kBatchStride
// requests.
constexpr std::size_t kBatchPieces = 40;
constexpr std::size_t kBatchStride = 256;
// Slices for the stall-robust p99 (windowed_p99_ms): at least 20 ms and
// at least kSliceSamples requests each.
constexpr std::uint64_t kMinSliceNs = 20000000;
constexpr double kSliceSamples = 2000;
// Share of --seconds spent at the fixed rate; the batch phase and the
// publishes between its pieces take the rest (kPublishS of it the latter).
constexpr double kFixedShare = 0.5;
constexpr double kGeoFixedRate = 68000;
constexpr double kWarmupS = 0.5;
// Admin cadence on serve_geo_churn: one publish every 100 ms, alternating
// RELOAD and DELTA. A publish round trip takes 2-8 ms, so each has ended
// long before the next is due; the fixed phase of a 20 s run makes about
// 50 of each for the medians, and about 4% of GEO requests overlap a
// publish, enough for an exact in-publish p99. The cycle ends on a RELOAD,
// so the server is back on the base model afterwards.
constexpr std::uint64_t kAdminEveryNs = 100000000;
// model_live_ms: after each piece of the batch phase, while the server is
// otherwise idle, serve_lookup sends one RELOAD and serve_geo_churn a DELTA
// (the next pre-built delta) and then a RELOAD back to the base model, 25
// ms apart. The samples spread over the second half of the run; the fixed
// phase of serve_lookup runs with no publish before or during it. The same
// publishes under GEO load are the fixed phase's admin cycle.
constexpr std::uint64_t kPublishEveryNs = 25000000;
constexpr double kPublishS = 1.0;
// Pre-built churn deltas on serve_geo_churn, applied in turn, so that
// delta_apply time is not set by the size of a single seed-drawn delta
// (the subjects one delta changes ranged from 5k to 28k over five seeds).
constexpr std::size_t kGeoDeltas = 4;
// The generator is valid only while its own lag stays under this bound at
// the fixed rate: the sliced p99 (windowed_p99_ms) of write time - due
// time. Sliced like the latency p99, so that host stalls, which delay the
// server as much as the generator, do not void a run, while a generator
// that cannot keep to the schedule does.
constexpr double kMaxLagP99Ms = 1.0;
// Reuse window for loadgen.subject_reuse_frac.
constexpr std::size_t kReuseWindow = 4096;
constexpr std::size_t kConnections = 2;

// A SuffixStream that forwards a StreamingWorld and keeps what the serve
// workloads need from each batch: every hostname (as a subject bound to a
// global router id) and every router's RTT row (-1 = no sample).
class TeeStream final : public io::SuffixStream {
 public:
  explicit TeeStream(sim::StreamingWorld& inner) : inner_(inner) {}

  std::optional<io::SuffixBatch> next_batch() override {
    std::optional<io::SuffixBatch> b = inner_.next_batch();
    if (!b) return b;
    const auto base = static_cast<topo::RouterId>(routers_);
    for (const topo::SuffixGroup& g : b->groups)
      for (const topo::HostnameRef& ref : g.hostnames)
        subjects.push_back(fuse::SubjectRow{std::string(ref.hostname->full), base + ref.router, {}});
    const std::size_t vps = b->pings.vps.size();
    for (std::size_t r = 0; r < b->topology.size(); ++r)
      for (std::size_t v = 0; v < vps; ++v) {
        const auto rtt = b->pings.pings.rtt(static_cast<topo::RouterId>(r), static_cast<measure::VpId>(v));
        rtts.push_back(rtt ? static_cast<float>(*rtt) : -1.0f);
      }
    routers_ += b->topology.size();
    return b;
  }
  const io::LoadReport& report() const override { return inner_.report(); }
  std::uint64_t signature() const override { return inner_.signature(); }

  std::vector<fuse::SubjectRow> subjects;
  std::vector<float> rtts;  // routers x VPs, row-major

 private:
  sim::StreamingWorld& inner_;
  std::size_t routers_ = 0;
};

// Everything the timed phase needs, built by one set-up pass.
struct Setup {
  std::vector<std::string> hostnames;  // every hostname in the world
  std::shared_ptr<const fuse::FuseContext> ctx;  // serve_geo_churn only
  std::vector<core::ModelDelta> deltas;          // serve_geo_churn only
  std::unique_ptr<serve::ModelStore> store;
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<serve::Server> server;
};

// Files the set-up learn leaves in the work directory.
constexpr const char* kModelFile = "/base.ncb";           // run_stream's model_out
constexpr const char* kSubjectsFile = "/subjects.csv";    // hostname,router per line
constexpr const char* kRttFile = "/rtt.f32";              // TeeStream::rtts (geo)
constexpr const char* kDeltaFile = "/delta-template-";     // + index: the pre-built deltas (geo)

// The set-up learn, run in a child process: the base learn, emitting the
// model, and for serve_geo_churn the churn relearns behind the pre-built
// deltas. Writes the files above; returns the child's exit code.
int learn_child(const Env& env, std::uint64_t seed, bool geo) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  core::HoihoConfig config;
  config.threads = env.learner_workers;
  config.model_out = env.work_dir + kModelFile;
  sim::StreamingWorld world(dict, world_config());
  TeeStream tee(world);
  core::HoihoResult result = core::Hoiho(dict, config).run_stream(tee);
  {
    std::ofstream out(env.work_dir + kSubjectsFile);
    for (const fuse::SubjectRow& row : tee.subjects) out << row.subject << ',' << row.router << '\n';
    if (!out) return 1;
  }
  if (!geo) return 0;
  {
    std::ofstream out(env.work_dir + kRttFile, std::ios::binary);
    out.write(reinterpret_cast<const char*>(tee.rtts.data()),
              static_cast<std::streamsize>(tee.rtts.size() * sizeof(float)));
    if (!out) return 1;
  }
  // The pre-built churn deltas: independent 5% churn rounds against the
  // base run.
  const core::Hoiho hoiho(dict, config);
  const core::PriorRun prior = core::PriorRun::capture(std::move(result), config, dict.size(), world.vps());
  for (std::size_t i = 0; i < kGeoDeltas; ++i) {
    sim::StreamingWorld churned(dict, churn_config(mix_seed(seed, 2000 + i)));
    const std::vector<std::size_t> ks = churned.churned_suffixes();
    core::WorldDelta wd;
    wd.changed = churned.render_batch(ks);
    std::unordered_set<std::string_view> present;
    for (const topo::SuffixGroup& g : wd.changed.groups) present.insert(g.suffix);
    for (const std::size_t k : ks)
      if (std::string name = churned.suffix_name(k); !present.contains(name)) wd.removed.push_back(std::move(name));
    const core::DeltaRunReport rep = hoiho.run_delta(wd, prior);
    if (!rep.ok() || rep.delta.empty()) return 2;
    if (!core::save_model_delta_to_file(env.work_dir + kDeltaFile + std::to_string(i), rep.delta, dict)) return 1;
  }
  return 0;
}

std::unique_ptr<Setup> build_setup(const Env& env, std::uint64_t seed, bool geo, std::string* error) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  auto s = std::make_unique<Setup>();
  // The learn runs in a child process (forked while this process has no
  // other thread) and hands over files. None of the learn's memory, nor
  // the way its threads fragmented the heap, stays in this process, so
  // peak_rss_mb measures the server and not the learn's leftovers.
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed parent
    ::_exit(learn_child(env, seed, geo));
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "set-up learn failed in its child process (status " + std::to_string(status) + ")";
    return nullptr;
  }

  std::vector<fuse::SubjectRow> subjects;
  {
    std::ifstream in(env.work_dir + kSubjectsFile);
    auto loaded = fuse::load_subjects(in);
    if (!loaded || loaded->empty()) {
      *error = "set-up learn wrote no subjects";
      return nullptr;
    }
    subjects = std::move(*loaded);
  }
  s->hostnames.reserve(subjects.size());
  for (const fuse::SubjectRow& row : subjects) s->hostnames.push_back(row.subject);

  s->store = std::make_unique<serve::ModelStore>(dict, env.work_dir + kModelFile);
  if (const auto err = s->store->reload()) {
    *error = "base model load: " + *err;
    return nullptr;
  }
  if (geo) {
    const std::vector<measure::VantagePoint> vps = sim::StreamingWorld(dict, world_config()).vps();
    const std::string rtt_bytes = read_file(env.work_dir + kRttFile);
    const std::size_t routers = rtt_bytes.size() / sizeof(float) / vps.size();
    measure::Measurements meas(vps, routers);
    for (std::size_t r = 0; r < routers; ++r)
      for (std::size_t v = 0; v < vps.size(); ++v) {
        float x;
        std::memcpy(&x, rtt_bytes.data() + (r * vps.size() + v) * sizeof(float), sizeof x);
        if (x >= 0) meas.pings.record(static_cast<topo::RouterId>(r), static_cast<measure::VpId>(v), x);
      }
    s->ctx = fuse::FuseContext::build(subjects, meas, dict);
    s->store->set_fuse_context(s->ctx);
    for (std::size_t i = 0; i < kGeoDeltas; ++i) {
      std::ifstream in(env.work_dir + kDeltaFile + std::to_string(i));
      std::optional<core::ModelDelta> delta = core::load_model_delta(in, dict, error);
      if (!delta) return nullptr;
      s->deltas.push_back(std::move(*delta));
    }
  }
  s->registry = std::make_unique<obs::Registry>();
  serve::ServerConfig sc;
  sc.port = 0;
  sc.workers = env.server_workers;
  sc.registry = s->registry.get();
  s->server = std::make_unique<serve::Server>(*s->store, sc);
  if (!s->server->start(error)) return nullptr;
  return s;
}

// Registry movement over one phase: counters and histogram count/sum only.
struct PhaseCounts {
  obs::Snapshot before, after;
  double c(std::string_view name) const {
    return static_cast<double>(counter(after, name) - counter(before, name));
  }
  double hcount(std::string_view name) const {
    return static_cast<double>(hist_count(after, name) - hist_count(before, name));
  }
  double hsum(std::string_view name) const { return hist_sum(after, name) - hist_sum(before, name); }
};

// Zipf(s) rank sampler over n items by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (std::size_t k = 0; k < n; ++k) cdf_[k] = acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    for (double& c : cdf_) c /= acc;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

double subject_reuse_frac(const std::vector<std::uint32_t>& order, std::size_t count) {
  // Share of requests whose subject was also sent among the previous
  // kReuseWindow requests — what a bounded result cache could exploit.
  std::vector<std::int64_t> last(*std::max_element(order.begin(), order.begin() + count) + 1, -1);
  std::size_t reused = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::int64_t& l = last[order[i]];
    if (l >= 0 && i - static_cast<std::size_t>(l) <= kReuseWindow) ++reused;
    l = static_cast<std::int64_t>(i);
  }
  return ratio(static_cast<double>(reused), static_cast<double>(count));
}

// In-process answers, as the wire would carry them.
std::string lookup_answer(const core::Geolocator& g, std::string_view line) {
  const serve::Request req = serve::parse_request(line);
  const auto loc = g.locate(req.hostname);
  return loc ? serve::format_hit(*loc) : serve::format_miss();
}
std::string geo_answer(const core::Geolocator& g, const fuse::FuseContext* ctx, std::string_view line) {
  const serve::Request req = serve::parse_request(line);
  const fuse::Fuser fuser(g, ctx, serve::ServerConfig{}.audit.fuse);
  return serve::format_geo(fuser.fuse(req.subject));
}

// p99 robust to virtual-CPU stalls: the exact p99 of each slice of the
// phase (by due time; an unanswered request counts as infinitely late),
// then the median over slices. The virtual machines this was tuned on
// stall a vCPU for 1-20 ms a few times a second; a stall moves the slices
// it lands in, not the reported figure. The whole-phase p99 is reported
// beside it in the run's report. With `lag`, the samples are the
// generator's lag (write time - due time) instead of latencies.
double windowed_p99_ms(const PhaseResult& p, bool lag = false) {
  const std::uint64_t window_ns =
      std::max(kMinSliceNs, static_cast<std::uint64_t>(kSliceSamples / p.rate * 1e9));
  std::vector<std::vector<double>> slices;
  for (const RequestLog& l : p.log) {
    const std::size_t w = static_cast<std::size_t>((l.due_ns - p.start_ns) / window_ns);
    if (w >= slices.size()) slices.resize(w + 1);
    slices[w].push_back(lag ? static_cast<double>(l.sent_ns - l.due_ns) / 1e6
                            : l.recv_ns == 0 ? 1e300
                                             : static_cast<double>(l.recv_ns - l.due_ns) / 1e6);
  }
  std::vector<double> p99s;
  for (std::vector<double>& s : slices)
    if (!s.empty()) p99s.push_back(summarize(std::move(s)).p99);
  return median(p99s);
}

std::vector<double> latencies_ms(const PhaseResult& p) {
  std::vector<double> out;
  out.reserve(p.log.size());
  for (const RequestLog& l : p.log)
    if (l.recv_ns != 0) out.push_back(static_cast<double>(l.recv_ns - l.due_ns) / 1e6);
  return out;
}
std::vector<double> lags_ms(const PhaseResult& p) {
  std::vector<double> out;
  out.reserve(p.log.size());
  for (const RequestLog& l : p.log) out.push_back(static_cast<double>(l.sent_ns - l.due_ns) / 1e6);
  return out;
}

// Per-request CPU of the in-process replay, by request index.
struct Replay {
  double wall_ns = 0;
  std::vector<double> cpu_ns;  // parse + locate/fuse + format, per request
  double parse_ns = 0, locate_ns = 0, format_ns = 0, fuse_ns = 0;
  std::size_t hits = 0;
  double unattributed = 0;
};

// Replays the fixed-phase sequence against `snap`; with `trace`, spans sit
// around parse_request, locate / fuse, and format_*.
Replay replay(const serve::ModelSnapshot& snap, bool geo, const std::vector<std::string>& corpus,
              const std::vector<std::uint32_t>& order, std::size_t count, Trace* trace) {
  Replay r;
  const fuse::Fuser fuser(snap.geolocator, snap.fuse.get(), serve::ServerConfig{}.audit.fuse);
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  const std::uint32_t root = trace == nullptr ? 0 : trace->open("replay");
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& line = corpus[order[i]];
    serve::Request req;
    {
      const Scope s(trace, "serve.parse", i);
      req = serve::parse_request(line);
    }
    std::string out;
    if (geo) {
      fuse::FuseResult fused;
      {
        const Scope s(trace, "fuse.fuse", i);
        fused = fuser.fuse(req.subject);
      }
      r.hits += fused.answered();
      const Scope s(trace, "serve.format", i);
      out = serve::format_geo(fused);
    } else {
      std::optional<core::Geolocation> loc;
      {
        const Scope s(trace, "core.locate", i);
        loc = snap.geolocator.locate(req.hostname);
      }
      r.hits += loc.has_value();
      const Scope s(trace, "serve.format", i);
      out = loc ? serve::format_hit(*loc) : serve::format_miss();
    }
    sink += out.size();
  }
  if (trace != nullptr) trace->close(root);
  r.wall_ns = static_cast<double>(now_ns() - t0);
  if (sink == 0) r.wall_ns += 1;  // keep the answers observable
  if (trace == nullptr) return r;

  r.cpu_ns.assign(count, 0.0);
  const std::vector<std::uint64_t> self = trace->self_ns();
  for (std::size_t k = 0; k < trace->spans().size(); ++k) {
    const Trace::Span& sp = trace->spans()[k];
    if (sp.parent == ~0u) {
      r.unattributed = static_cast<double>(self[k]) / static_cast<double>(sp.end_ns - sp.start_ns);
      continue;
    }
    const double d = static_cast<double>(sp.end_ns - sp.start_ns);
    r.cpu_ns[sp.request] += d;
    const std::string& n = trace->name_of(sp);
    if (n == "serve.parse") r.parse_ns += d;
    else if (n == "core.locate") r.locate_ns += d;
    else if (n == "fuse.fuse") r.fuse_ns += d;
    else if (n == "serve.format") r.format_ns += d;
  }
  return r;
}

}  // namespace

Report run_serve(const Env& env, std::string_view workload, std::uint64_t seed, double seconds,
                 bool trace, std::uint64_t process_start_ns) {
  const bool geo = workload == "serve_geo_churn";
  Report rep;
  const double fixed_s = kFixedShare * seconds;
  // An odd number of publishes, at least three: RELOAD, DELTA, ..., RELOAD.
  std::size_t admin_ops = 0;
  if (geo) {
    const auto due = static_cast<std::size_t>(fixed_s * 1e9 / static_cast<double>(kAdminEveryNs));
    admin_ops = std::max<std::size_t>(3, due - 1);
    if (admin_ops % 2 == 0) --admin_ops;
  }

  // --- Set-up, kSetups times; the median is setup_s and the last is kept ---
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    const std::uint64_t t0 = i == 0 ? process_start_ns : now_ns();
    std::string error;
    setup = build_setup(env, seed, geo, &error);
    if (setup == nullptr) {
      rep.fail("set-up: " + error);
      ++rep.failed;
      ++rep.attempted;
      return rep;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  serve::ModelStore& store = *setup->store;
  const std::shared_ptr<const serve::ModelSnapshot> base = store.current();
  std::thread server_thread([&] { setup->server->run(); });

  // peak_rss_mb is the fixed phase's VmHWM less what the benchmark itself
  // allocates from here on (inputs, answer tables, the shadow store and the
  // request log): the server, its snapshot and the set-up's leftovers.
  const double rss_after_setup = settled_rss_mb();

  // --- Inputs from the seed (benchmark-side, outside setup_s) ---
  // The DELTA requests' files: RELOAD k publishes generation g0 + 2k + 1,
  // and DELTA k names it and applies pre-built delta k % kGeoDeltas.
  if (geo) {
    const std::uint64_t g0 = store.generation();
    for (std::size_t k = 0; k <= admin_ops / 2 + kBatchPieces + 1; ++k) {
      core::ModelDelta d = setup->deltas[k % kGeoDeltas];
      d.base_generation = g0 + 2 * k + 1;
      const std::string path = env.work_dir + "/delta-" + std::to_string(d.base_generation) + ".txt";
      std::string error;
      if (!core::save_model_delta_to_file(path, d, geo::builtin_dictionary(), &error))
        rep.fail("delta file: " + error);
    }
  }
  std::mt19937_64 rng(mix_seed(seed, 3000));
  std::vector<std::string> corpus;
  std::vector<std::uint32_t> order;
  const double fixed_rate = geo ? kGeoFixedRate : kLookupFixedRate;
  const std::size_t warm_count = static_cast<std::size_t>(fixed_rate * kWarmupS);
  const std::size_t fixed_count = static_cast<std::size_t>(fixed_rate * fixed_s);
  if (geo) {
    for (const std::string& h : setup->hostnames) corpus.push_back("GEO " + h);
  } else {
    corpus = setup->hostnames;
    const std::size_t unanswerable = corpus.size() / 20;
    for (std::size_t i = 0; i < unanswerable; ++i)
      corpus.push_back("edge" + std::to_string(i) + ".pop" + std::to_string(i % 97) + ".unrouted-" +
                       std::to_string(seed) + ".invalid");
  }
  // The request sequence, extended as the warm-up, the fixed phase and the
  // saturation phase consume it: on serve_lookup fresh permutations of the
  // corpus, back to back; on serve_geo_churn Zipf draws over a seeded rank
  // order (perm[rank] is the subject of that rank).
  std::vector<std::uint32_t> perm(corpus.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::unique_ptr<Zipf> zipf;
  if (geo) {
    std::shuffle(perm.begin(), perm.end(), rng);
    zipf = std::make_unique<Zipf>(corpus.size(), 1.0);
  }
  const auto extend_order = [&](std::size_t n) {
    if (geo) {
      while (order.size() < n) order.push_back(perm[(*zipf)(rng)]);
      return;
    }
    while (order.size() < n) {
      std::shuffle(perm.begin(), perm.end(), rng);
      order.insert(order.end(), perm.begin(), perm.end());
    }
  };
  extend_order(warm_count + fixed_count);

  // Expected answers, filled lazily per corpus entry (0 = not computed):
  // model 0 is the base model, model 1 + j the base plus pre-built delta j,
  // each kept in a shadow store.
  std::vector<std::shared_ptr<const serve::ModelSnapshot>> snaps{base};
  std::vector<std::unique_ptr<serve::ModelStore>> shadows;
  for (const core::ModelDelta& delta : setup->deltas) {
    auto shadow = std::make_unique<serve::ModelStore>(geo::builtin_dictionary(), store.path());
    std::optional<std::string> err = shadow->reload();
    if (!err) {
      shadow->set_fuse_context(setup->ctx);
      core::ModelDelta d = delta;
      d.base_generation = shadow->generation();
      err = shadow->apply_delta(d);
    }
    if (err) rep.fail("shadow model: " + *err);
    snaps.push_back(shadow->current());
    shadows.push_back(std::move(shadow));
  }
  std::vector<std::vector<std::uint64_t>> answers(snaps.size(), std::vector<std::uint64_t>(corpus.size(), 0));
  const auto expected = [&](std::uint32_t c, std::size_t model = 0) {
    std::uint64_t& memo = answers[model][c];
    if (memo == 0) {
      const serve::ModelSnapshot& snap = *snaps[model];
      memo = fnv1a(geo ? geo_answer(snap.geolocator, snap.fuse.get(), corpus[c])
                       : lookup_answer(snap.geolocator, corpus[c]));
    }
    return memo;
  };

  std::vector<RequestLog> fixed_log(fixed_count);
  const double bench_mb = settled_rss_mb() - rss_after_setup;

  // --- Timed: the fixed-rate phase (plus admin cycle on geo) ---
  OpenLoop gen(setup->server->port(), kConnections, true);
  if (!gen.ok()) rep.fail("load generator could not connect");
  AdminPlan plan;
  if (geo) {
    for (std::size_t k = 0; k < admin_ops; ++k) plan.due_offset_ns.push_back((k + 1) * kAdminEveryNs);
    const std::string dir = env.work_dir;
    plan.make_line = [dir](std::size_t k, const std::vector<AdminLog>& done) -> std::string {
      if (k % 2 == 0) return "RELOAD";
      // DELTA names the generation the preceding RELOAD published.
      const std::string& prev = done[k - 1].response;
      const std::size_t at = prev.find("generation=");
      const std::string gen = at == std::string::npos ? "0" : std::to_string(std::strtoull(prev.c_str() + at + 11, nullptr, 10));
      return "DELTA " + dir + "/delta-" + gen + ".txt";
    };
  }
  // Warm-up at the fixed rate (connections, allocator, caches), checked but
  // not timed.
  {
    const PhaseResult warm = gen.run(corpus, order, 0, warm_count, fixed_rate);
    std::size_t bad = warm.io_failed ? 1 : 0;
    for (std::size_t i = 0; i < warm_count; ++i)
      if (warm.log[i].recv_ns == 0 || warm.log[i].response_hash != expected(order[i])) ++bad;
    rep.attempted += warm_count;
    rep.failed += bad;
  }
  const std::uint64_t gen_before = store.generation();
  const obs::Snapshot warm_snap = setup->registry->snapshot();
  const bool rss_reset = reset_peak_rss();
  const PhaseResult fixed =
      gen.run(corpus, order, warm_count, fixed_count, fixed_rate, geo ? &plan : nullptr, std::move(fixed_log));
  const double phase_peak_mb = rss_reset ? peak_rss_mb() : settled_rss_mb();
  const std::vector<std::uint32_t> fixed_order(order.begin() + static_cast<std::ptrdiff_t>(warm_count),
                                               order.begin() + static_cast<std::ptrdiff_t>(warm_count + fixed_count));
  const PhaseCounts fc{warm_snap, setup->registry->snapshot()};
  const double rss_mb = phase_peak_mb - bench_mb;
  const std::uint64_t generations = store.generation() - gen_before;

  // --- Timed: the in-process batch phase ---
  // One thread calls parse_request -> locate (fuse on serve_geo_churn) ->
  // format_* on the base snapshot, as a batch user of the library does. The
  // server is idle meanwhile; the publishes that time model_live_ms run
  // through it after each piece. Answers are fingerprinted in the loop and
  // checked after each piece. The request sequence and the fingerprint
  // buffer are grown before a piece starts, so the timed loop neither
  // reallocates nor touches fresh pages.
  std::size_t cursor = warm_count + fixed_count;
  std::vector<std::uint64_t> piece_hash;
  std::size_t batch_requests = 0, batch_failed = 0;
  double batch_s = 0;
  std::vector<double> piece_rates;
  std::vector<AdminLog> batch_admin;
  bool batch_io_failed = false;
  {
    const double piece_s = std::max(0.1, (1 - kFixedShare) * seconds - kPublishS) /
                           static_cast<double>(kBatchPieces);
    // Requests one piece can take: twice the fastest single-thread rate seen
    // on the reference box. A faster piece grows the sequence as it goes.
    const auto budget = static_cast<std::size_t>(piece_s * 1.2e6);
    piece_hash.reserve(budget);
    const fuse::Fuser fuser(base->geolocator, base->fuse.get(), serve::ServerConfig{}.audit.fuse);
    // The DELTA names the serving generation, published by the RELOAD
    // that ended the previous publishes, so the alternation of the fixed
    // phase's cycle (and its delta files) carries on.
    AdminPlan burst;
    burst.due_offset_ns = geo ? std::vector<std::uint64_t>{0, kPublishEveryNs} : std::vector<std::uint64_t>{0};
    const std::string dir = env.work_dir;
    burst.make_line = [&store, dir, geo](std::size_t k, const std::vector<AdminLog>&) -> std::string {
      if (!geo || k == 1) return "RELOAD";
      return "DELTA " + dir + "/delta-" + std::to_string(store.generation()) + ".txt";
    };
    for (std::size_t piece = 0; piece < kBatchPieces; ++piece) {
      // Each piece draws its Zipf subjects over a fresh rank order, so the
      // rate is not set by the cost of one seed's few hottest subjects. The
      // draws the previous piece left unused are dropped.
      if (geo) {
        order.resize(cursor);
        std::shuffle(perm.begin(), perm.end(), rng);
      }
      const std::size_t piece_first = cursor;
      extend_order(cursor + budget);
      piece_hash.clear();
      const std::uint64_t t0 = now_ns();
      const std::uint64_t until = t0 + static_cast<std::uint64_t>(piece_s * 1e9);
      std::uint64_t t = t0;
      while (t < until) {
        extend_order(cursor + kBatchStride);
        for (std::size_t i = 0; i < kBatchStride; ++i, ++cursor) {
          const serve::Request req = serve::parse_request(corpus[order[cursor]]);
          std::string out;
          if (geo) {
            out = serve::format_geo(fuser.fuse(req.subject));
          } else {
            const std::optional<core::Geolocation> loc = base->geolocator.locate(req.hostname);
            out = loc ? serve::format_hit(*loc) : serve::format_miss();
          }
          piece_hash.push_back(fnv1a(out));
        }
        t = now_ns();
      }
      batch_s += static_cast<double>(t - t0) / 1e9;
      piece_rates.push_back(static_cast<double>(cursor - piece_first) / (static_cast<double>(t - t0) / 1e9));
      for (std::size_t i = 0; i < piece_hash.size(); ++i)
        if (piece_hash[i] != expected(order[piece_first + i])) ++batch_failed;
      batch_requests += piece_hash.size();
      PhaseResult b = gen.run(corpus, order, cursor, 0, fixed_rate, &burst);
      batch_io_failed = batch_io_failed || b.io_failed;
      for (AdminLog& a : b.admin) batch_admin.push_back(std::move(a));
    }
  }
  const double throughput = median(piece_rates);

  setup->server->stop();
  server_thread.join();

  // --- Checks on the fixed phase ---
  const std::vector<double> lat = latencies_ms(fixed);
  const Summary lat_s = summarize(lat), lag_s = summarize(lags_ms(fixed));
  const std::uint64_t miss_hash = fnv1a(serve::format_miss());
  std::size_t wrong = 0, missing = 0, hits = 0;
  std::vector<double> lat_in, lat_out;
  std::size_t publish_failed = 0, differs = 0;
  // Publish round trips: on the idle server between batch pieces, and on
  // serve_geo_churn under load in the fixed phase.
  std::vector<double> reload_rt, delta_rt, reload_loaded_rt, delta_loaded_rt;
  const std::size_t batch_ops = kBatchPieces * (geo ? 2 : 1);
  const std::size_t publish_ops = admin_ops + batch_ops;
  const auto check_publishes = [&](const std::vector<AdminLog>& log, std::size_t ops,
                                   std::vector<double>& reloads, std::vector<double>& deltas) {
    for (const AdminLog& a : log) {
      const bool is_reload = a.request == "RELOAD";
      const serve::ResponseKind kind = serve::classify_response(a.response);
      if (a.recv_ns == 0 || kind != (is_reload ? serve::ResponseKind::kReload : serve::ResponseKind::kDelta)) {
        ++publish_failed;
        rep.problems.push_back("publish '" + a.request + "' answered '" + a.response + "'");
        continue;
      }
      (is_reload ? reloads : deltas).push_back(ms_between(a.sent_ns, a.recv_ns));
    }
    if (log.size() < ops) publish_failed += ops - log.size();
  };
  check_publishes(fixed.admin, admin_ops, reload_loaded_rt, delta_loaded_rt);
  check_publishes(batch_admin, batch_ops, reload_rt, delta_rt);
  for (std::size_t i = 0; i < fixed_count; ++i) {
    const RequestLog& l = fixed.log[i];
    if (l.recv_ns == 0) {
      ++missing;
      continue;
    }
    const std::uint32_t c = fixed_order[i];
    const std::uint64_t b = expected(c);
    if (!geo) {
      if (l.response_hash != b) ++wrong;
      else if (b != miss_hash) ++hits;
      continue;
    }
    bool changed = false;
    for (std::size_t m = 1; m < snaps.size(); ++m) changed = changed || expected(c, m) != b;
    bool ok = l.response_hash == b;
    if (changed) {
      // The model live at send time, plus any publish overlapping the
      // request. Admin op k is a RELOAD (back to the base model) for even k
      // and for odd k applies pre-built delta (k / 2) % kGeoDeltas.
      ++differs;
      bool base_live = true;  // before any op: base
      std::uint32_t deltas_live = 0;  // bit j: delta j
      for (std::size_t k = 0; k < fixed.admin.size(); ++k) {
        const AdminLog& a = fixed.admin[k];
        const std::uint32_t bit = k % 2 == 1 ? 1u << ((k / 2) % kGeoDeltas) : 0;
        if (a.recv_ns != 0 && a.recv_ns <= l.sent_ns) {
          base_live = bit == 0;
          deltas_live = bit;
        } else if (a.sent_ns <= l.recv_ns) {
          if (bit == 0) base_live = true;
          deltas_live |= bit;
        }
      }
      ok = base_live && l.response_hash == b;
      for (std::size_t j = 0; j < kGeoDeltas; ++j)
        if ((deltas_live >> j & 1) != 0 && l.response_hash == expected(c, 1 + j)) ok = true;
    }
    if (!ok) ++wrong;
    bool overlaps = false;
    for (const AdminLog& a : fixed.admin)
      if (a.sent_ns <= l.recv_ns && (a.recv_ns == 0 || a.recv_ns >= l.due_ns)) overlaps = true;
    (overlaps ? lat_in : lat_out).push_back(static_cast<double>(l.recv_ns - l.due_ns) / 1e6);
  }
  const bool io_failed = fixed.io_failed || batch_io_failed;
  rep.attempted += fixed_count + batch_requests + publish_ops;
  rep.failed += wrong + missing + batch_failed + publish_failed + (io_failed ? 1 : 0);
  if (rep.failed > 0)
    rep.fail(std::to_string(wrong) + " wrong, " + std::to_string(missing) + " missing, " +
             std::to_string(batch_failed) + " wrong in the batch, " + std::to_string(publish_failed) +
             " failed publishes" + (io_failed ? ", generator I/O failure" : ""));
  // An overrun generator measured its own lateness, not the server: the run
  // is invalid and counts one failed operation, so its figures cannot be
  // read as the server's.
  const double lag_sliced_p99 = windowed_p99_ms(fixed, true);
  const bool valid = lag_sliced_p99 <= kMaxLagP99Ms;
  rep.note("valid", valid ? "true" : "false");
  if (!valid) {
    ++rep.failed;
    rep.fail("invalid run: generator sliced lag p99 " + json_number(lag_sliced_p99) + " ms exceeds the " +
             json_number(kMaxLagP99Ms) + " ms bound");
  }
  if (reload_rt.empty() || (geo && (delta_rt.empty() || delta_loaded_rt.empty())))
    rep.fail("no successful publishes");
  if (throughput == 0) rep.fail("nothing answered in the batch phase");

  const double sliced_p99 = windowed_p99_ms(fixed);
  rep.note("latency_ms", summary_json(lat_s));
  rep.note("p99_sliced_ms", json_number(sliced_p99));
  rep.note("lag_ms", summary_json(lag_s));
  rep.note("lag_p99_sliced_ms", json_number(lag_sliced_p99));
  rep.note("setup_s", summary_json(summarize(setup_s)));
  rep.note("offered_rate", json_number(fixed.rate));
  rep.note("backlog_max", std::to_string(fixed.backlog_max));
  rep.note("rss_mb", "{\"after_setup\": " + json_number(rss_after_setup) + ", \"benchmark\": " +
                         json_number(bench_mb) + ", \"phase_peak\": " + json_number(phase_peak_mb) +
                         ", \"peak_reset\": " + (rss_reset ? "true" : "false") + "}");
  rep.note("batch", "{\"seconds\": " + json_number(batch_s) + ", \"requests\": " +
                        std::to_string(batch_requests) + ", \"piece_rate\": " +
                        summary_json(summarize(piece_rates)) + "}");
  rep.note("reload_ms", summary_json(summarize(reload_rt)));
  if (!geo) {
    rep.note("answered_frac", json_number(ratio(static_cast<double>(hits), static_cast<double>(fixed_count))));
  } else {
    rep.note("delta_apply_ms", summary_json(summarize(delta_rt)));
    rep.note("reload_under_load_ms", summary_json(summarize(reload_loaded_rt)));
    rep.note("delta_apply_under_load_ms", summary_json(summarize(delta_loaded_rt)));
    rep.note("geo_in_publish_ms", summary_json(summarize(lat_in)));
    rep.note("geo_outside_publish_ms", summary_json(summarize(lat_out)));
    rep.note("requests_changed_by_deltas", std::to_string(differs));
  }
  rep.note("work_counts",
           "{\"serve.requests\": " + std::to_string(static_cast<std::uint64_t>(fc.c("serve_requests"))) +
               ", \"serve.hits\": " + std::to_string(geo ? 0 : hits) +
               ", \"serve.generations\": " + std::to_string(generations) + "}");

  if (!trace) {
    // The end-to-end metrics every workload reports (NOTES.md): here the
    // single-thread batch rate, the round trip that puts a new model
    // live on the idle server (RELOAD on serve_lookup, DELTA on
    // serve_geo_churn) and the usable conventions of the served model.
    rep.add("setup_s", median(setup_s), "s");
    rep.add("peak_rss_mb", rss_mb, "MB");
    rep.add("throughput", throughput, "1/s");
    rep.add("model_live_ms", median(geo ? delta_rt : reload_rt), "ms");
    rep.add("usable_ncs", static_cast<double>(base->geolocator.convention_count()), "count");
    return rep;
  }

  // --- Traced pass: in-process replay of the fixed-phase sequence ---
  const Replay untraced = replay(*base, geo, corpus, fixed_order, fixed_count, nullptr);
  Trace t;
  t.reserve(3 * fixed_count + 1);
  const Replay traced = replay(*base, geo, corpus, fixed_order, fixed_count, &t);
  t.write(env.out_dir + "/" + std::string(workload) + "-seed" + std::to_string(seed) + ".spans.jsonl", 200000);
  const double n = static_cast<double>(fixed_count);
  std::vector<double> wait_us;
  wait_us.reserve(fixed_count);
  for (std::size_t i = 0; i < fixed_count; ++i)
    if (fixed.log[i].recv_ns != 0)
      wait_us.push_back((static_cast<double>(fixed.log[i].recv_ns - fixed.log[i].due_ns) - traced.cpu_ns[i]) / 1e3);
  const Summary wait_s = summarize(wait_us);

  // The fixed phase's medians and tails are reported here, unbounded,
  // rather than as end-to-end metrics: between runs on a shared virtual
  // machine they moved by more than any bound allows (NOTES.md).
  rep.add(geo ? "geo_p50_ms" : "lookup_p50_ms", lat_s.p50, "ms");
  rep.add(geo ? "geo_p99_ms" : "lookup_p99_ms", sliced_p99, "ms");
  rep.add("serve.parse_ns", traced.parse_ns / n, "ns");
  rep.add("serve.format_ns", traced.format_ns / n, "ns");
  if (!geo) {
    rep.add("core.locate_ns", traced.locate_ns / n, "ns");
    rep.add("core.locate_hit_ratio", ratio(static_cast<double>(traced.hits), n), "ratio");
  } else {
    // locate_detailed on the same subjects, timed on its own so fuse's
    // self time can be separated from the extraction it wraps.
    const std::uint64_t t0 = now_ns();
    std::size_t found = 0;
    for (std::size_t i = 0; i < fixed_count; ++i)
      found += base->geolocator.locate_detailed(serve::parse_request(corpus[fixed_order[i]]).subject).has_value();
    const double detailed_ns = static_cast<double>(now_ns() - t0) / n;
    const double cands = fc.c("fuse_candidates");
    rep.add("core.locate_detailed_ns", detailed_ns, "ns");
    rep.add("core.locate_hit_ratio", ratio(static_cast<double>(found), n), "ratio");
    rep.add("fuse.fuse_ns", traced.fuse_ns / n, "ns");
    rep.add("fuse.self_ns", traced.fuse_ns / n - detailed_ns, "ns");
    rep.add("fuse.candidates_per_subject",
            ratio(cands, fc.c("serve_requests")), "count");
    rep.add("fuse.rtt_infeasible_ratio",
            ratio(fc.c("fuse_rtt_infeasible"), cands), "ratio");
    rep.add("serve.store_apply_ms",
            ratio(fc.hsum("serve_delta_apply_us"),
                  fc.hcount("serve_delta_apply_us")) / 1e3, "ms");
    rep.add("serve.store_reload_ms",
            ratio(fc.hsum("serve_reload_us"),
                  fc.hcount("serve_reload_us")) / 1e3, "ms");
    rep.add("serve.generations", static_cast<double>(generations), "count");
    rep.add("serve.geo_p99_in_publish_ms", summarize(lat_in).p99, "ms");
    rep.add("serve.geo_p99_outside_publish_ms", summarize(lat_out).p99, "ms");
  }
  rep.add("serve.lines_per_batch",
          ratio(fc.c("serve_batched_lines"),
                fc.c("serve_batches")), "count");
  rep.add("serve.batch_us_mean",
          ratio(fc.hsum("serve_batch_ns"), fc.hcount("serve_batch_ns")) / 1e3,
          "us");
  rep.add("serve.wait_us_p50", wait_s.p50, "us");
  rep.add("serve.wait_us_p99", wait_s.p99, "us");
  rep.add("serve.shed_busy", fc.c("serve_shed_busy"), "count");
  rep.add("serve.deadline_expired", fc.c("serve_deadline_expired"), "count");
  rep.add("loadgen.lag_us_p99", lag_s.p99 * 1e3, "us");
  rep.add("loadgen.backlog_max", static_cast<double>(fixed.backlog_max), "count");
  rep.add("loadgen.subject_reuse_frac", subject_reuse_frac(fixed_order, fixed_count), "ratio");
  rep.add("trace.unattributed_frac", traced.unattributed, "ratio");
  rep.add("trace.overhead_frac", traced.wall_ns / untraced.wall_ns - 1.0, "ratio");
  return rep;
}

}  // namespace perfbench
