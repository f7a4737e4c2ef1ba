#include "common.h"

#include <sched.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/sysinfo.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = percentile_sorted(samples, 50);
  s.p90 = percentile_sorted(samples, 90);
  s.p99 = percentile_sorted(samples, 99);
  s.max = samples.back();
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
    if (beyond + 1e-9 < 10.0) break;
    s.top_p = p;
    s.top = percentile_sorted(samples, p);
  }
  return s;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

std::uint32_t Trace::intern(std::string_view name) {
  // Span names are string literals: compare addresses first.
  for (std::size_t i = 0; i < name_ptrs_.size(); ++i)
    if (name_ptrs_[i] == name.data()) return static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  name_ptrs_.push_back(name.data());
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Trace::open(std::string_view name, std::uint64_t request) {
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? ~0u : open_.back();
  s.request = request;
  const auto idx = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(idx);
  spans_[idx].start_ns = now_ns();
  return idx;
}

void Trace::close(std::uint32_t idx) {
  spans_[idx].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::uint64_t> Trace::self_ns() const {
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent != ~0u) self[s.parent] -= s.end_ns - s.start_ns;
  return self;
}

std::vector<std::pair<std::string, double>> Trace::self_ns_by_name() const {
  const std::vector<std::uint64_t> self = self_ns();
  std::vector<double> by(names_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) by[spans_[i].name] += static_cast<double>(self[i]);
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < names_.size(); ++i) out.emplace_back(names_[i], by[i]);
  return out;
}

std::vector<double> Trace::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (names_[s.name] == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

bool Trace::write(const std::string& path, std::size_t limit) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::size_t n = limit == 0 ? spans_.size() : std::min(limit, spans_.size());
  const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << json_string(names_[s.name])
        << ",\"start_ns\":" << (s.start_ns - epoch) << ",\"end_ns\":" << (s.end_ns - epoch)
        << ",\"parent\":" << (s.parent == ~0u ? std::string("null") : std::to_string(s.parent))
        << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(out);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string summary_json(const Summary& s) {
  return "{\"count\": " + std::to_string(s.count) + ", \"mean\": " + json_number(s.mean) +
         ", \"p50\": " + json_number(s.p50) + ", \"p90\": " + json_number(s.p90) +
         ", \"p99\": " + json_number(s.p99) + ", \"max\": " + json_number(s.max) +
         ", \"top_p\": " + json_number(s.top_p) + ", \"top\": " + json_number(s.top) + "}";
}

namespace {

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string result_line(const Report& r) {
  return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": " + metrics_json(r.metrics) +
         "}";
}

std::string report_json(const Report& r, std::string_view workload, std::uint64_t seed,
                        bool trace) {
  std::string out = "{\"workload\": " + json_string(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + (trace ? "true" : "false") +
                    ", \"correct\": " + (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": " + metrics_json(r.metrics) + ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    out += (i > 0 ? ", " : "") + json_string(r.problems[i]);
  out += "]";
  for (const auto& [key, value] : r.detail) out += ", " + json_string(key) + ": " + value;
  return out + "}";
}

std::uint64_t counter(const hoiho::obs::Snapshot& s, std::string_view name) {
  return s.value(name);
}

std::uint64_t hist_count(const hoiho::obs::Snapshot& s, std::string_view name) {
  const hoiho::obs::Snapshot::Entry* e = s.find(name);
  return e == nullptr ? 0 : e->hist.count;
}

double hist_sum(const hoiho::obs::Snapshot& s, std::string_view name) {
  const hoiho::obs::Snapshot::Entry* e = s.find(name);
  return e == nullptr ? 0 : e->hist.sum;
}

hoiho::sim::StreamingWorldConfig world_config() {
  hoiho::sim::StreamingWorldConfig swc;
  swc.seed = kWorldSeed;
  swc.traits.geohint_scheme_rate = 0.8;
  swc.traits.hostname_rate = 0.8;
  swc.suffixes = 1000;
  swc.target_hostnames = 100000;
  swc.max_hostnames_per_suffix = 8192;
  swc.vp_count = 64;
  swc.batch_hostname_budget = 8192;
  return swc;
}

hoiho::sim::StreamingWorldConfig churn_config(std::uint64_t churn_seed) {
  hoiho::sim::StreamingWorldConfig swc = world_config();
  swc.churn_frac = kChurnFrac;
  swc.churn_seed = churn_seed;
  return swc;
}

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

bool reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  return static_cast<bool>(out);
}

double peak_rss_mb() { return static_cast<double>(hoiho::util::peak_rss_bytes()) / (1024.0 * 1024.0); }

double settled_rss_mb() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return static_cast<double>(hoiho::util::current_rss_bytes()) / (1024.0 * 1024.0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
