#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hoiho::obs {

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::string_view to_string(Kind k) {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

std::uint64_t Counter::load() const {
  if (cells_ == nullptr) return 0;
  std::uint64_t total = 0;
  for (const detail::PaddedU64& s : cells_->shards)
    total += s.v.load(std::memory_order_acquire);
  return total;
}

void Histogram::observe(double value) const {
  if (cells_ == nullptr) return;
  const std::vector<double>& bounds = cells_->bounds;
  std::size_t b = 0;
  while (b < bounds.size() && value > bounds[b]) ++b;
  detail::HistogramCells::Shard& shard = cells_->shards[shard_index()];
  shard.buckets[b].fetch_add(1, std::memory_order_relaxed);
  double cur = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(cur, cur + value, std::memory_order_relaxed)) {
  }
}

double HistogramData::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (static_cast<double>(seen + in_bucket) < target || in_bucket == 0) {
      seen += in_bucket;
      continue;
    }
    if (b >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();  // overflow bucket
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    const double hi = bounds[b];
    const double frac = (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

const Snapshot::Entry* Snapshot::find(std::string_view name) const {
  for (const Entry& e : entries)
    if (e.name == name) return &e;
  return nullptr;
}

std::uint64_t Snapshot::value(std::string_view name) const {
  const Entry* e = find(name);
  if (e == nullptr) return 0;
  return e->kind == Kind::kGauge ? static_cast<std::uint64_t>(e->gauge) : e->value;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

std::string fmt_num(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

std::string Snapshot::to_json(std::string_view indent) const {
  const std::string pad(indent);
  const auto emit_kind = [&](std::string& out, Kind kind, std::string_view key) {
    out += pad;
    out += "  \"";
    out += key;
    out += "\": {";
    bool first = true;
    for (const Entry& e : entries) {
      if (e.kind != kind) continue;
      if (!first) out += ", ";
      first = false;
      append_json_string(out, e.name);
      out += ": ";
      if (kind == Kind::kCounter) {
        out += std::to_string(e.value);
      } else if (kind == Kind::kGauge) {
        out += std::to_string(e.gauge);
      } else {
        out += "{\"count\": " + std::to_string(e.hist.count);
        out += ", \"sum\": " + fmt_num(e.hist.sum);
        out += ", \"p50\": " + fmt_num(e.hist.percentile(0.50));
        out += ", \"p90\": " + fmt_num(e.hist.percentile(0.90));
        out += ", \"p99\": " + fmt_num(e.hist.percentile(0.99));
        out += ", \"buckets\": [";
        for (std::size_t b = 0; b < e.hist.buckets.size(); ++b) {
          if (b != 0) out += ", ";
          out += "{\"le\": ";
          out += b < e.hist.bounds.size() ? fmt_num(e.hist.bounds[b]) : std::string("\"+Inf\"");
          out += ", \"count\": " + std::to_string(e.hist.buckets[b]) + "}";
        }
        out += "]}";
      }
    }
    out += "}";
  };
  std::string out = "{\n";
  emit_kind(out, Kind::kCounter, "counters");
  out += ",\n";
  emit_kind(out, Kind::kGauge, "gauges");
  out += ",\n";
  emit_kind(out, Kind::kHistogram, "histograms");
  out += "\n" + pad + "}";
  return out;
}

std::string Snapshot::to_prometheus() const {
  std::string out = "# hoiho metrics\n";
  std::vector<std::string> typed;  // bases already given a # TYPE line
  for (const Entry& e : entries) {
    const std::size_t brace = e.name.find('{');
    const std::string base = e.name.substr(0, brace);
    if (std::find(typed.begin(), typed.end(), base) == typed.end()) {
      typed.push_back(base);
      out += "# TYPE " + base + " " + std::string(to_string(e.kind)) + "\n";
    }
    if (e.kind == Kind::kCounter) {
      out += e.name + " " + std::to_string(e.value) + "\n";
    } else if (e.kind == Kind::kGauge) {
      out += e.name + " " + std::to_string(e.gauge) + "\n";
    } else {
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < e.hist.buckets.size(); ++b) {
        cum += e.hist.buckets[b];
        const std::string le =
            b < e.hist.bounds.size() ? fmt_num(e.hist.bounds[b]) : std::string("+Inf");
        out += base + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) + "\n";
      }
      out += base + "_sum " + fmt_num(e.hist.sum) + "\n";
      out += base + "_count " + std::to_string(e.hist.count) + "\n";
    }
  }
  return out;
}

std::span<const double> default_latency_bounds_ns() {
  static const double kBounds[] = {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10};
  return kBounds;
}

Registry::MetricInfo* Registry::find_locked(std::string_view name) {
  for (MetricInfo& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

Counter Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  if (MetricInfo* m = find_locked(name))
    return m->kind == Kind::kCounter ? Counter(m->counter) : Counter();
  detail::CounterCells& cells = counters_.emplace_back();
  metrics_.push_back(MetricInfo{std::string(name), Kind::kCounter, &cells, nullptr, nullptr});
  return Counter(&cells);
}

Gauge Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  if (MetricInfo* m = find_locked(name))
    return m->kind == Kind::kGauge ? Gauge(m->gauge) : Gauge();
  detail::GaugeCell& cell = gauges_.emplace_back();
  metrics_.push_back(MetricInfo{std::string(name), Kind::kGauge, nullptr, &cell, nullptr});
  return Gauge(&cell);
}

Histogram Registry::histogram(std::string_view name, std::span<const double> bounds) {
  const std::scoped_lock lock(mu_);
  if (MetricInfo* m = find_locked(name))
    return m->kind == Kind::kHistogram ? Histogram(m->histogram) : Histogram();
  if (bounds.empty()) bounds = default_latency_bounds_ns();
  detail::HistogramCells& cells = histograms_.emplace_back();
  cells.bounds.assign(bounds.begin(), bounds.end());
  std::sort(cells.bounds.begin(), cells.bounds.end());
  for (detail::HistogramCells::Shard& s : cells.shards)
    s.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(cells.bounds.size() + 1);
  metrics_.push_back(MetricInfo{std::string(name), Kind::kHistogram, nullptr, nullptr, &cells});
  return Histogram(&cells);
}

std::size_t Registry::size() const {
  const std::scoped_lock lock(mu_);
  return metrics_.size();
}

Snapshot Registry::snapshot() const {
  const std::scoped_lock lock(mu_);
  Snapshot snap;
  snap.entries.reserve(metrics_.size());
  for (const MetricInfo& m : metrics_) {
    Snapshot::Entry e;
    e.name = m.name;
    e.kind = m.kind;
    switch (m.kind) {
      case Kind::kCounter:
        for (const detail::PaddedU64& s : m.counter->shards)
          e.value += s.v.load(std::memory_order_acquire);
        break;
      case Kind::kGauge:
        e.gauge = m.gauge->v.load(std::memory_order_acquire);
        break;
      case Kind::kHistogram: {
        e.hist.bounds = m.histogram->bounds;
        e.hist.buckets.assign(e.hist.bounds.size() + 1, 0);
        for (const detail::HistogramCells::Shard& s : m.histogram->shards) {
          for (std::size_t b = 0; b < e.hist.buckets.size(); ++b)
            e.hist.buckets[b] += s.buckets[b].load(std::memory_order_acquire);
          e.hist.sum += s.sum.load(std::memory_order_acquire);
        }
        for (const std::uint64_t c : e.hist.buckets) e.hist.count += c;
        break;
      }
    }
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

Registry& Registry::process() {
  static Registry instance;
  return instance;
}

}  // namespace hoiho::obs
