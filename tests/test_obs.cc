// The observability layer (DESIGN.md §11): registry counter/histogram
// correctness under concurrent writers (this file is in the TSan job's
// target list), snapshot consistency and monotonicity, STATS v1 wire
// compatibility across the Metrics redesign, stage-span capture for a full
// Hoiho::run, and the one-registry-many-subsystems contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "core/delta.h"
#include "core/hoiho.h"
#include "io/load_report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "util/thread_pool.h"
#include "serve/protocol.h"
#include "sim/probing.h"
#include "sim/scenario.h"
#include "sim/streaming.h"

namespace hoiho {
namespace {

// --- registry primitives ---------------------------------------------------

TEST(ObsRegistry, CounterConcurrentTotals) {
  obs::Registry reg;
  obs::Counter c = reg.counter("c");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.load(), kThreads * kPerThread);
  EXPECT_EQ(reg.snapshot().value("c"), kThreads * kPerThread);
}

TEST(ObsRegistry, HistogramConcurrentTotals) {
  obs::Registry reg;
  const double bounds[] = {10, 100, 1000};
  obs::Histogram h = reg.histogram("h", bounds);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.observe(static_cast<double>((t + i) % 2000));
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::Snapshot snap = reg.snapshot();
  const obs::Snapshot::Entry* e = snap.find("h");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hist.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : e->hist.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, e->hist.count);
  EXPECT_GT(e->hist.sum, 0.0);
  // Percentiles are ordered and within the observed range.
  const double p50 = e->hist.percentile(0.50), p99 = e->hist.percentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p50, 0.0);
}

TEST(ObsRegistry, RegistrationIsIdempotentAndKindChecked) {
  obs::Registry reg;
  obs::Counter a = reg.counter("x");
  obs::Counter b = reg.counter("x");
  a.inc();
  b.inc();
  EXPECT_EQ(a.load(), 2u);  // same underlying cells
  EXPECT_EQ(reg.size(), 1u);
  // Same name, different kind: null handle, no crash, storage intact.
  obs::Gauge g = reg.gauge("x");
  EXPECT_FALSE(static_cast<bool>(g));
  g.set(5);  // no-op on a null handle
  EXPECT_EQ(reg.snapshot().value("x"), 2u);
}

TEST(ObsRegistry, NullHandlesAreNoOps) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.inc();
  g.set(7);
  h.observe(1.0);
  EXPECT_EQ(c.load(), 0u);
  EXPECT_EQ(g.load(), 0);
}

TEST(ObsRegistry, SnapshotMonotonicityUnderLoad) {
  // Counters only go up: a snapshot taken while 8 writers hammer the
  // registry must never show a counter below a previously-seen value.
  obs::Registry reg;
  obs::Counter c = reg.counter("m");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c.inc();
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t now = reg.snapshot().value("m");
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(reg.snapshot().value("m"), c.load());
}

TEST(ObsRegistry, SnapshotRespectsRegistrationOrderInvariant) {
  // serve::Metrics registers hits/misses before requests so snapshots keep
  // requests >= hits + misses even mid-flight. Exercise the same pattern.
  obs::Registry reg;
  obs::Counter effect = reg.counter("effect");
  obs::Counter cause = reg.counter("cause");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        cause.inc();  // cause first in program order...
        effect.inc();
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const obs::Snapshot snap = reg.snapshot();
    // ...effect read first in snapshot order, so cause can never lag it.
    EXPECT_GE(snap.value("cause"), snap.value("effect"));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

TEST(ObsRegistry, JsonAndPrometheusExports) {
  obs::Registry reg;
  reg.counter("plain").inc(3);
  reg.counter("labeled{stage=\"tag\"}").inc(4);
  reg.gauge("depth").set(-2);
  const double bounds[] = {1, 10};
  reg.histogram("lat", bounds).observe(5);
  const obs::Snapshot snap = reg.snapshot();

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"plain\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"labeled{stage=\\\"tag\\\"}\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE plain counter"), std::string::npos);
  EXPECT_NE(prom.find("plain 3"), std::string::npos);
  EXPECT_NE(prom.find("labeled{stage=\"tag\"} 4"), std::string::npos);
  EXPECT_NE(prom.find("lat_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_count 1"), std::string::npos);
}

// --- tracer ----------------------------------------------------------------

TEST(ObsTracer, SpansNestAndOrder) {
  obs::Tracer tracer(16);
  {
    obs::Span outer(&tracer, "outer");
    obs::Span inner(&tracer, "inner", "detail");
    inner.set_work(3);
  }
  const std::vector<obs::SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Children finish (and record) before parents.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[0].work, 3u);
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, RingOverflowCountsDrops) {
  obs::Tracer tracer(4);
  for (int i = 0; i < 10; ++i) obs::Span span(&tracer, "s");
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

// --- serve metrics compat --------------------------------------------------

TEST(ServeMetrics, StatsV1ByteCompat) {
  // The v1 STATS line from a fresh Metrics must be byte-identical to the
  // pre-registry golden output: same keys, same order, same formatting.
  serve::Metrics m;
  const std::string golden =
      "STATS,requests=0,hits=0,misses=0,errors=0,admin=0,reloads=0,reload_failures=0,"
      "reload_debounced=0,deadline_expired=0,shed_busy=0,idle_closed=0,injected_faults=0,"
      "batches=0,batched_lines=0,avg_batch=0.00,connections_opened=0,connections_closed=0,"
      "parse_ns=0,lookup_ns=0,write_ns=0,generation=1,conventions=3,programs=0";
  EXPECT_EQ(serve::format_stats(m.snapshot(), 1, 3), golden);

  m.requests.inc(5);
  m.hits.inc(3);
  m.misses.inc(2);
  m.batches.inc();
  m.batched_lines.add(4);
  const serve::Metrics::Snapshot snap = m.snapshot();
  EXPECT_EQ(snap.requests, 5u);
  EXPECT_DOUBLE_EQ(snap.avg_batch(), 4.0);
  const std::string line = serve::format_stats(snap, 2, 7, 9);
  EXPECT_NE(line.find("requests=5,hits=3,misses=2"), std::string::npos);
  EXPECT_NE(line.find("avg_batch=4.00"), std::string::npos);
  EXPECT_NE(line.find("generation=2,conventions=7,programs=9"), std::string::npos);
  EXPECT_EQ(serve::classify_response(line), serve::ResponseKind::kStats);
}

TEST(ServeMetrics, StatsV2AndMetricsExposition) {
  serve::Metrics m;
  m.requests.inc(2);
  m.hits.inc();
  m.batch_ns.observe(5e5);
  const std::string v2 =
      serve::format_stats_v2(m.registry().snapshot(), /*generation=*/3, /*conventions=*/4,
                             /*programs=*/5);
  EXPECT_EQ(serve::classify_response(v2), serve::ResponseKind::kStats2);
  EXPECT_NE(v2.find("serve_requests:c=2"), std::string::npos);
  EXPECT_NE(v2.find("serve_hits:c=1"), std::string::npos);
  EXPECT_NE(v2.find("serve_batch_ns:h=count:1;"), std::string::npos);
  EXPECT_NE(v2.find(";p50:"), std::string::npos);
  EXPECT_NE(v2.find("generation:g=3,conventions:g=4,programs:g=5"), std::string::npos);

  const std::string text =
      serve::format_metrics_text(m.registry().snapshot(), 3, 4, 5);
  EXPECT_EQ(serve::classify_response(text.substr(0, text.find('\n'))),
            serve::ResponseKind::kMetrics);
  EXPECT_NE(text.find("serve_requests 2"), std::string::npos);
  EXPECT_NE(text.find("hoihod_generation 3"), std::string::npos);
  const std::string tail = "# EOF";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
}

TEST(ServeMetrics, SnapshotInvariantUnderConcurrentTraffic) {
  // The satellite fix: requests >= hits + misses in every snapshot, even
  // with writers mid-increment (effects registered before the cause).
  serve::Metrics m;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&m, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        m.requests.inc();
        m.hits.inc();
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const serve::Metrics::Snapshot s = m.snapshot();
    EXPECT_GE(s.requests, s.hits + s.misses);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

// --- pipeline instrumentation ---------------------------------------------

sim::World small_world() {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  sim::WorldConfig config;
  config.seed = 7;
  config.operators = 3;
  config.geohint_scheme_rate = 1.0;
  return sim::generate_world(dict, config);
}

TEST(PipelineObs, RunReportCapturesSpansAndCounters) {
  const sim::World world = small_world();
  const measure::Measurements meas = sim::probe_pings(world, {});
  core::HoihoConfig config;
  config.threads = 1;
  const core::Hoiho hoiho(*world.dict, config);
  const core::RunReport report = hoiho.run_report(world.topology, meas);

  ASSERT_FALSE(report.result.suffixes.empty());
  const std::uint64_t suffixes = report.metrics.value("pipeline_suffixes");
  EXPECT_EQ(suffixes, report.result.suffixes.size());
  EXPECT_GT(report.metrics.value("pipeline_hostnames"), 0u);
  EXPECT_GT(report.metrics.value("consistency_cache_hits"), 0u);
  EXPECT_GT(report.metrics.value("rx_set_subjects"), 0u);
  ASSERT_NE(report.metrics.find("pipeline_suffix_ns"), nullptr);
  EXPECT_EQ(report.metrics.find("pipeline_suffix_ns")->hist.count, suffixes);
  EXPECT_EQ(report.dropped_spans, 0u);

  // Spans: one "run" root, one "suffix" per group, stage spans nested under
  // suffixes (sorted by start, a suffix's stages start after it).
  std::map<std::string, std::size_t> by_name;
  for (const obs::SpanRecord& s : report.spans) ++by_name[s.name];
  EXPECT_EQ(by_name["run"], 1u);
  EXPECT_EQ(by_name["suffix"], suffixes);
  EXPECT_GE(by_name["tag"], suffixes);  // every suffix is tagged
  EXPECT_GE(by_name["eval"], 1u);
  EXPECT_GE(by_name["learn"], 1u);
  for (const obs::SpanRecord& s : report.spans) {
    if (s.name == "suffix") {
      EXPECT_EQ(s.depth, 1u);  // nested under "run"
    } else if (s.name == "tag") {
      EXPECT_EQ(s.depth, 2u);  // nested under "suffix"
    }
  }
  // Sequential run: stage spans are recorded (finished) before their suffix.
  std::vector<std::string> order;
  for (const obs::SpanRecord& s : report.spans)
    if (s.name == "suffix" || s.name == "tag") order.push_back(s.name);
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], "tag");

  // The report serializes: both halves present.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("pipeline_suffixes"), std::string::npos);
}

TEST(PipelineObs, ParallelRunMatchesSequentialCounters) {
  const sim::World world = small_world();
  const measure::Measurements meas = sim::probe_pings(world, {});
  core::HoihoConfig config;
  config.threads = 1;
  const core::Hoiho seq(*world.dict, config);
  config.threads = 4;
  const core::Hoiho par(*world.dict, config);
  const core::RunReport a = seq.run_report(world.topology, meas);
  const core::RunReport b = par.run_report(world.topology, meas);
  // Deterministic work counters agree regardless of threading.
  for (const char* key : {"pipeline_suffixes", "pipeline_hostnames",
                          "pipeline_tagged_hostnames", "pipeline_candidates_generated",
                          "pipeline_ncs_built", "consistency_cache_hits",
                          "consistency_cache_misses", "rx_set_subjects", "rx_set_hits"}) {
    EXPECT_EQ(a.metrics.value(key), b.metrics.value(key)) << key;
  }
  // The pool only spins up when the host has >1 core (the pipeline clamps
  // workers to hardware concurrency); single-core hosts run sequentially
  // and record no pool activity.
  if (util::WorkStealingPool::resolve(0) > 1) {
    EXPECT_GT(b.metrics.value("pipeline_pool_tasks_executed"), 0u);
  } else {
    EXPECT_EQ(b.metrics.value("pipeline_pool_tasks_executed"), 0u);
  }
}

TEST(PipelineObs, EveryDriverPublishesGridRssAndPoolGauges) {
  // run, run_stream and run_delta learn through one driver, which owns the
  // grid, peak-RSS and pool gauges; each call lands them in the config's
  // registry, an empty topology included.
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  core::HoihoConfig config;
  config.threads = 4;
  const auto check = [&](const obs::Registry& registry, std::size_t vps, std::uint64_t learned,
                         const char* what) {
    const obs::Snapshot snap = registry.snapshot();
    ASSERT_TRUE(snap.has("pipeline_expected_rtt_grid_cells")) << what;
    EXPECT_EQ(snap.value("pipeline_expected_rtt_grid_cells"), dict.size() * vps) << what;
    EXPECT_GT(snap.find("pipeline_peak_rss_bytes")->gauge, 0) << what;
    // Workers are clamped to hardware, so 1-core hosts run inline.
    if (util::WorkStealingPool::resolve(0) > 1) {
      EXPECT_EQ(snap.value("pipeline_pool_tasks_executed"), learned) << what;
    }
  };

  {
    const sim::World world = small_world();
    const measure::Measurements meas = sim::probe_pings(world, {});
    obs::Registry registry;
    core::HoihoConfig c = config;
    c.registry = &registry;
    const std::size_t groups = world.topology.group_by_suffix().size();
    ASSERT_GT(groups, 1u);
    core::Hoiho(dict, c).run(world.topology, meas);
    check(registry, meas.vps.size(), groups, "run");

    obs::Registry empty_registry;
    c.registry = &empty_registry;
    core::Hoiho(dict, c).run(topo::Topology{}, meas);
    check(empty_registry, meas.vps.size(), 0, "run on an empty topology");
  }

  sim::StreamingWorldConfig swc;
  swc.seed = 77;
  swc.suffixes = 40;
  swc.target_hostnames = 1200;
  swc.max_hostnames_per_suffix = 256;
  swc.vp_count = 16;
  swc.batch_hostname_budget = 300;
  swc.traits.geohint_scheme_rate = 0.8;
  swc.traits.hostname_rate = 0.85;
  sim::StreamingWorld base(dict, swc);
  obs::Registry stream_registry;
  core::HoihoConfig c = config;
  c.registry = &stream_registry;
  core::HoihoResult base_result = core::Hoiho(dict, c).run_stream(base);
  check(stream_registry, base.vps().size(),
        stream_registry.snapshot().value("pipeline_suffixes"), "run_stream");

  const core::PriorRun prior =
      core::PriorRun::capture(std::move(base_result), config, dict.size(), base.vps());
  swc.churn_seed = 5;
  swc.churn_frac = 0.4;
  sim::StreamingWorld churned(dict, swc);
  core::WorldDelta wd;
  wd.changed = churned.render_batch(churned.churned_suffixes());
  obs::Registry delta_registry;
  c.registry = &delta_registry;
  const core::DeltaRunReport rep = core::Hoiho(dict, c).run_delta(wd, prior);
  ASSERT_TRUE(rep.ok()) << rep.error;
  ASSERT_GT(rep.dirty, 1u);
  check(delta_registry, churned.vps().size(), rep.dirty, "run_delta");
}

TEST(PipelineObs, RegistryIsTheOnlyCacheTelemetryPath) {
  // SuffixResult::cache_stats / stage_ms are gone; the registry is now the
  // sole carrier of cache telemetry, so a run that exercises the
  // consistency cache must surface activity there.
  const sim::World world = small_world();
  const measure::Measurements meas = sim::probe_pings(world, {});
  const core::Hoiho hoiho(*world.dict, core::HoihoConfig{});
  const core::RunReport report = hoiho.run_report(world.topology, meas);
  EXPECT_GT(report.metrics.value("consistency_cache_hits") +
                report.metrics.value("consistency_cache_misses"),
            0u);
  EXPECT_GT(report.metrics.value("pipeline_suffixes"), 0u);
}

// --- the one-registry contract --------------------------------------------

TEST(ObsIntegration, OneRegistryHoldsAllSubsystems) {
  // The acceptance scenario: learner, ingest, and serving metrics land in
  // one registry, and a single snapshot (one JSON document) contains stage
  // counters, cache hit rates, ingest skip counts, and serve counters.
  obs::Registry registry;

  const sim::World world = small_world();
  const measure::Measurements meas = sim::probe_pings(world, {});
  core::HoihoConfig config;
  config.registry = &registry;
  const core::Hoiho hoiho(*world.dict, config);
  hoiho.run(world.topology, meas);

  io::LoadOptions opt;
  opt.lenient = true;
  io::LoadReport load;
  load.lines = 10;
  load.records = 8;
  load.skip(opt, "bad_fields", 3, "truncated row");
  load.skip(opt, "bad_number", 5, "not a float");
  load.publish(registry, "itdk");

  serve::Metrics serve_metrics(&registry);
  serve_metrics.requests.inc(4);
  serve_metrics.hits.inc(3);

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_GT(snap.value("pipeline_suffixes"), 0u);
  EXPECT_GT(snap.value("consistency_cache_hits"), 0u);
  EXPECT_EQ(snap.value("ingest_lines{source=\"itdk\"}"), 10u);
  EXPECT_EQ(snap.value("ingest_skipped{category=\"bad_fields\",source=\"itdk\"}"), 1u);
  EXPECT_EQ(snap.value("serve_requests"), 4u);

  const std::string json = snap.to_json();
  for (const char* needle : {"pipeline_stage_us", "consistency_cache_hits", "ingest_skipped",
                             "serve_requests"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(ObsIntegration, LoadReportPublishWithoutSource) {
  obs::Registry registry;
  io::LoadOptions opt;
  opt.lenient = true;
  io::LoadReport load;
  load.lines = 5;
  load.records = 4;
  load.skip(opt, "bad_fields", 2, "short row");
  load.publish(registry);
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("ingest_lines"), 5u);
  EXPECT_EQ(snap.value("ingest_records"), 4u);
  EXPECT_EQ(snap.value("ingest_skipped{category=\"bad_fields\"}"), 1u);
  EXPECT_FALSE(snap.has("ingest_failures"));
}

}  // namespace
}  // namespace hoiho
