// Shared pieces of the perfbench binary: the clock, exact percentiles, the
// benchmark's own span recorder, the metric/result printer, and the
// workload shapes every workload derives from its seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/streaming.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}
inline double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

// splitmix64: derives independent sub-seeds (churn rounds, permutations)
// from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// FNV-1a over bytes: model-file and response fingerprints.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ULL);

// --- Exact percentiles ---------------------------------------------------
//
// Every percentile the benchmark reports comes from a full sort of its own
// samples (never from the registry's decade buckets). `top` is the highest
// of p50/p90/p99/p99.9/p99.99 that still has at least ten samples beyond
// it; `top_p` is 0 when there are fewer than twenty samples.
struct Summary {
  std::size_t count = 0;
  double p50 = 0, p90 = 0, p99 = 0, max = 0, mean = 0;
  double top_p = 0, top = 0;
};
Summary summarize(std::vector<double> samples);
// Nearest-rank percentile of an already sorted vector (p in [0, 100]).
double percentile_sorted(const std::vector<double>& sorted, double p);
double median(std::vector<double> samples);

// --- Spans ---------------------------------------------------------------
//
// The benchmark's own tracer: spans are recorded by the benchmark around
// calls into the program's public functions, kept in memory, and written
// out when the run ends. Single-threaded by design (traced runs use one
// worker), so the parent is simply the innermost open span.
class Trace {
 public:
  struct Span {
    std::uint32_t name = 0;       // index into names()
    std::uint32_t parent = ~0u;   // index into spans(), ~0u for a root
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t request = 0;    // request id (serve replays), else 0
  };

  // Opens a span; returns its index. close() must be called in LIFO order.
  std::uint32_t open(std::string_view name, std::uint64_t request = 0);
  void close(std::uint32_t idx);
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name_of(const Span& s) const { return names_[s.name]; }

  // Self time per span: duration minus the time its children cover.
  std::vector<std::uint64_t> self_ns() const;
  // Sum of self time (ns) per span name.
  std::vector<std::pair<std::string, double>> self_ns_by_name() const;
  // Durations (ns) of every span with this name.
  std::vector<double> durations_ns(std::string_view name) const;

  // JSON lines file: one {"id","name","start_ns","end_ns","parent","request"}
  // object per span, at most `limit` spans (0 = all). Returns false on I/O
  // failure.
  bool write(const std::string& path, std::size_t limit = 0) const;

 private:
  std::uint32_t intern(std::string_view name);
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<const char*> name_ptrs_;  // names_[i]'s first interned address
  std::vector<std::uint32_t> open_;
};

// RAII span over a Trace that may be null (untraced runs pay one branch).
class Scope {
 public:
  Scope(Trace* t, std::string_view name, std::uint64_t request = 0)
      : t_(t), idx_(t == nullptr ? 0 : t->open(name, request)) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace* t_;
  std::uint32_t idx_;
};

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports. `metrics` are the end-to-end metrics
// (untraced) or the per-layer metrics (traced); `detail` holds everything
// else worth keeping (summaries with sample counts, work counts, the
// environment) as pre-rendered JSON members.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> detail;  // key -> JSON value
  std::vector<std::string> problems;  // why `correct` is false

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string json) { detail.emplace_back(std::move(key), std::move(json)); }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

std::string json_number(double v);
std::string json_string(std::string_view s);
std::string summary_json(const Summary& s);

// The final stdout line: {"correct","attempted","failed","metrics"}.
std::string result_line(const Report& r);
// The full report (detail included) as one JSON object.
std::string report_json(const Report& r, std::string_view workload, std::uint64_t seed,
                        bool trace);

// --- Registry reads ----------------------------------------------------------
//
// Work counts come from the obs::Registry snapshot of the untraced run;
// from histograms only count and sum are read.
std::uint64_t counter(const hoiho::obs::Snapshot& s, std::string_view name);
std::uint64_t hist_count(const hoiho::obs::Snapshot& s, std::string_view name);
double hist_sum(const hoiho::obs::Snapshot& s, std::string_view name);
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- Environment -------------------------------------------------------------

struct Env {
  std::size_t nproc = 1;            // CPUs this process may run on
  std::size_t learner_workers = 1;  // min(3, nproc - 1), at least 1
  std::size_t server_workers = 2;
  std::string out_dir;              // reports and span files
  std::string work_dir;             // temporary files for this run (removed at exit)
};

// The L-tier streaming world every workload learns: 1000 Zipf-skewed
// suffixes, ~100k hostnames, 64 VPs, 8192-hostname batches. Its content is
// fixed (kWorldSeed) rather than drawn from the workload seed: which
// operators land in the Zipf head swings the answered share by ~25% and
// peak RSS by ~17% between worlds, more than any bound could absorb. The
// workload seed draws everything else — churn rounds, the pre-built delta,
// request orders, Zipf subjects and unanswerable names.
constexpr std::uint64_t kWorldSeed = 99;
hoiho::sim::StreamingWorldConfig world_config();
// The same world with a 5% churn drawn from `churn_seed`.
hoiho::sim::StreamingWorldConfig churn_config(std::uint64_t churn_seed);

constexpr double kChurnFrac = 0.05;

// Set-ups per run; setup_s is their median. The first counts from process
// start.
constexpr int kSetups = 5;

// The number of CPUs this process may run on (its affinity mask), as nproc
// reports it.
std::size_t cpus_available();

// VmHWM of this process; reset_peak_rss() returns the allocator's free pages
// to the system (glibc malloc_trim) and restarts the high-water mark from
// the RSS that remains (Linux clear_refs 5), so a repeated phase can report
// its own peak rather than what earlier phases left cached in the heap.
double peak_rss_mb();
bool reset_peak_rss();
// VmRSS after the allocator has returned its free pages to the system
// (glibc malloc_trim), so it counts live memory, not what earlier phases
// freed.
double settled_rss_mb();
std::string read_file(const std::string& path);

}  // namespace perfbench
