// Streaming-world and streaming-pipeline invariants (DESIGN.md §12):
//
//   * batch-size invariance — the emitted hostname stream is identical no
//     matter how suffixes are grouped into batches (per-suffix rngs);
//   * Zipf skew — the head suffix dwarfs the tail, sizes follow the plan;
//   * run_stream ≡ run — streaming the world through Hoiho produces the
//     same per-suffix learnings as materializing it as one batch;
//   * threads=1 ≡ threads=8 — work-stealing does not perturb results;
//   * golden fingerprints — the rendered hostnames and probed RTT cells are
//     pinned bit-exactly, so a faster renderer cannot silently change them.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>

#include "core/hoiho.h"
#include "sim/streaming.h"
#include "util/thread_pool.h"

namespace hoiho::core {
namespace {

sim::StreamingWorldConfig small_config() {
  sim::StreamingWorldConfig config;
  config.seed = 77;
  config.suffixes = 40;
  config.target_hostnames = 1200;
  config.max_hostnames_per_suffix = 256;
  config.vp_count = 16;
  config.batch_hostname_budget = 300;
  config.traits.geohint_scheme_rate = 0.8;
  config.traits.hostname_rate = 0.85;
  return config;
}

// One router's RTT row, bit-exact: a hex float per sampled VP, "-" for none.
void dump_rtt_row(const measure::RttMatrix& pings, topo::RouterId r, std::ostream& os) {
  char cell[40];
  for (measure::VpId v = 0; v < pings.vp_count(); ++v) {
    const std::optional<double> rtt = pings.rtt(r, v);
    if (rtt) {
      std::snprintf(cell, sizeof(cell), " %a", *rtt);
      os << cell;
    } else {
      os << " -";
    }
  }
  os << "\n";
}

// Every group of a batch: its hostnames (batch-local router ids re-based to
// a per-suffix ordinal so the dump is batch-independent), then the RTT row
// of every router from the group's first named router to its last.
void dump_batch(const io::SuffixBatch& batch, std::ostream& os) {
  for (const topo::SuffixGroup& g : batch.groups) {
    os << "== " << g.suffix << "\n";
    const topo::RouterId base = g.hostnames.empty() ? 0 : g.hostnames.front().router;
    topo::RouterId last = base;
    for (const topo::HostnameRef& ref : g.hostnames) {
      os << (ref.router - base) << " " << ref.hostname->full << "\n";
      last = std::max(last, ref.router);
    }
    for (topo::RouterId r = base; !g.hostnames.empty() && r <= last; ++r) {
      os << "rtt " << (r - base);
      dump_rtt_row(batch.pings.pings, r, os);
    }
  }
}

// The full stream as one string: every suffix in order, hostnames and RTTs.
std::string dump_stream(sim::StreamingWorld& world) {
  std::ostringstream os;
  while (auto batch = world.next_batch()) dump_batch(*batch, os);
  return os.str();
}

// FNV-1a 64 of a dump, for the golden fingerprints below.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(StreamingWorld, StreamIsInvariantAcrossBatchSizes) {
  sim::StreamingWorldConfig config = small_config();
  std::string baseline;
  for (const std::size_t budget : {std::size_t{1}, std::size_t{300}, std::size_t{100000}}) {
    config.batch_hostname_budget = budget;
    sim::StreamingWorld world(geo::builtin_dictionary(), config);
    const std::string dump = dump_stream(world);
    EXPECT_FALSE(dump.empty());
    if (baseline.empty()) {
      baseline = dump;
    } else {
      EXPECT_EQ(baseline, dump) << "batch budget " << budget << " changed the stream";
    }
  }
}

TEST(StreamingWorld, ResetReproducesTheStream) {
  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  const std::string first = dump_stream(world);
  EXPECT_EQ(world.next_batch(), std::nullopt);  // exhausted
  world.reset();
  EXPECT_EQ(world.next_suffix_index(), 0u);
  EXPECT_EQ(first, dump_stream(world));
}

TEST(StreamingWorld, SeedChangesTheStream) {
  sim::StreamingWorldConfig config = small_config();
  sim::StreamingWorld a(geo::builtin_dictionary(), config);
  config.seed = 78;
  sim::StreamingWorld b(geo::builtin_dictionary(), config);
  EXPECT_NE(dump_stream(a), dump_stream(b));
}

TEST(StreamingWorld, ZipfPlanIsSkewedAndBounded) {
  const sim::StreamingWorldConfig config = small_config();
  sim::StreamingWorld world(geo::builtin_dictionary(), config);
  // Head suffix gets the most routers; tail gets the floor; monotone-ish
  // decay overall (exact monotonicity can break at the clamp boundary).
  EXPECT_GT(world.planned_routers(0), world.planned_routers(config.suffixes - 1));
  EXPECT_GE(world.planned_routers(config.suffixes - 1), config.min_routers_per_suffix);
  std::size_t total = 0;
  for (std::size_t k = 0; k < config.suffixes; ++k) {
    EXPECT_LE(world.planned_routers(k) * 2, config.max_hostnames_per_suffix * 3)
        << "suffix " << k << " exceeds the per-suffix clamp";
    total += world.planned_routers(k);
  }
  // The plan lands in the right order of magnitude of the hostname target
  // (hostname_rate * interfaces-per-router converts routers to hostnames).
  EXPECT_GT(total, config.target_hostnames / 8);
  EXPECT_LT(total, config.target_hostnames * 4);
}

TEST(StreamingWorld, AccountingCountsRenderedHostnames) {
  sim::StreamingWorld world(geo::builtin_dictionary(), small_config());
  std::size_t streamed = 0;
  while (auto batch = world.next_batch()) streamed += batch->hostname_count();
  EXPECT_EQ(world.report().records, streamed);
  EXPECT_GE(world.report().lines, world.report().records);  // lines include unnamed interfaces
  EXPECT_TRUE(world.report().ok());
}

// Golden fingerprints of the rendered stream. They were computed from the
// renderer that evaluated every haversine directly; the precomputed
// (location, VP) RTT grid and footprint distance keys must reproduce every
// hostname and every RTT cell bit for bit. A change here means the world's
// bytes changed, which shifts every learned model downstream.
TEST(StreamingWorld, StreamMatchesGoldenFingerprints) {
  sim::StreamingWorldConfig config = small_config();
  sim::StreamingWorld plain(geo::builtin_dictionary(), config);
  EXPECT_EQ(fnv1a(dump_stream(plain)), 0xcf08f44a3f734645ULL);

  config.ping.anycast_rate = 0.2;
  sim::StreamingWorld anycast(geo::builtin_dictionary(), config);
  EXPECT_EQ(fnv1a(dump_stream(anycast)), 0x7429690939e33016ULL);

  // render_batch over fixed suffixes, a mix of churned and unchurned ones.
  config = small_config();
  config.churn_seed = 11;
  config.churn_frac = 0.3;
  sim::StreamingWorld churned(geo::builtin_dictionary(), config);
  const std::vector<std::size_t> ks = {0, 3, 7, 12, 25, 39};
  std::size_t n_churned = 0;
  for (const std::size_t k : ks) n_churned += churned.is_churned(k) ? 1 : 0;
  EXPECT_GT(n_churned, 0u);
  EXPECT_LT(n_churned, ks.size());
  std::ostringstream os;
  dump_batch(churned.render_batch(ks), os);
  EXPECT_EQ(fnv1a(os.str()), 0xcfe922629280ddc4ULL);
}

// The RTT cases no precomputed grid can serve: anycast routers (sampled as
// if at a VP's city) and routers at a location without a valid coordinate.
// Both must keep computing geo::min_rtt_ms directly, in the batch world and
// in the streaming world.
TEST(StreamingWorld, DirectRttCasesMatchGoldenFingerprint) {
  // The builtin dictionary behind a location with no coordinate. As id 0
  // and the most populous site it is drawn as a home site, and a footprint
  // around a home without a coordinate keeps pool order, so it deploys there.
  geo::GeoDictionary dict;
  geo::Location nowhere;
  nowhere.city = "Nowhere";
  nowhere.country = "zz";
  nowhere.population = 300000000;
  const geo::LocationId invalid = dict.add_location(nowhere);
  ASSERT_FALSE(dict.location(invalid).coord.valid());
  const geo::GeoDictionary& builtin = geo::builtin_dictionary();
  for (geo::LocationId id = 0; id < builtin.size(); ++id) {
    const geo::LocationId copy = dict.add_location(builtin.location(id));
    const geo::LocationCodes& codes = builtin.codes(id);
    for (const std::string& c : codes.iata) dict.add_code(geo::HintType::kIata, c, copy);
    for (const std::string& c : codes.icao) dict.add_code(geo::HintType::kIcao, c, copy);
    for (const std::string& c : codes.locode) dict.add_code(geo::HintType::kLocode, c, copy);
    for (const std::string& c : codes.clli) dict.add_code(geo::HintType::kClli, c, copy);
    for (const std::string& a : builtin.facility_addresses(id)) dict.add_facility_address(a, copy);
  }

  std::ostringstream os;
  sim::World world;
  world.dict = &dict;
  world.vps = sim::make_vps(dict, 16);
  for (const geo::LocationId loc : {invalid, geo::LocationId{0}, invalid, geo::LocationId{5},
                                    geo::LocationId{17}, invalid})
    world.topology.add_router(loc);
  sim::PingConfig ping;
  ping.seed = 9;
  ping.router_response_rate = 1.0;
  for (const double anycast_rate : {0.0, 0.5}) {
    ping.anycast_rate = anycast_rate;
    const measure::Measurements meas = sim::probe_pings(world, ping);
    for (topo::RouterId r = 0; r < world.topology.size(); ++r) dump_rtt_row(meas.pings, r, os);
  }

  sim::StreamingWorldConfig config = small_config();
  config.ping.anycast_rate = 0.2;
  sim::StreamingWorld stream(dict, config);
  std::size_t at_invalid = 0;
  while (auto batch = stream.next_batch()) {
    for (topo::RouterId r = 0; r < batch->topology.size(); ++r)
      at_invalid += batch->topology.router(r).true_location == invalid ? 1 : 0;
    dump_batch(*batch, os);
  }
  EXPECT_GT(at_invalid, 0u) << "the stream never placed a router at the invalid location";
  EXPECT_EQ(fnv1a(os.str()), 0xd3ef06dcd86fe6d9ULL);
}

// The compact per-suffix outcome a streamed run retains (tagged /
// per_hostname payloads are cleared by design), sorted by suffix so batch
// order and group_by_suffix order compare equal.
std::string dump_compact(const HoihoResult& result) {
  std::map<std::string, std::string> by_suffix;
  for (const SuffixResult& sr : result.suffixes) {
    std::ostringstream os;
    os << "hostnames=" << sr.hostname_count << " tagged=" << sr.tagged_count
       << " cls=" << to_string(sr.cls) << " tp=" << sr.eval.counts.tp
       << " fp=" << sr.eval.counts.fp << " fn=" << sr.eval.counts.fn
       << " unk=" << sr.eval.counts.unk << " none=" << sr.eval.counts.none << "\n";
    for (const GeoRegex& gr : sr.nc.regexes)
      os << "  rx " << gr.to_string() << " (" << gr.plan.to_string() << ")\n";
    for (const LearnedHint& lh : sr.learned)
      os << "  learned " << static_cast<int>(lh.type) << ":" << lh.code << "->" << lh.location
         << "\n";
    by_suffix[sr.suffix] = os.str();
  }
  std::ostringstream os;
  for (const auto& [suffix, body] : by_suffix) os << "== " << suffix << "\n" << body;
  return os.str();
}

HoihoResult run_streamed(std::size_t threads, std::size_t budget) {
  sim::StreamingWorldConfig config = small_config();
  config.batch_hostname_budget = budget;
  sim::StreamingWorld world(geo::builtin_dictionary(), config);
  HoihoConfig hc;
  hc.threads = threads;
  return Hoiho(geo::builtin_dictionary(), hc).run_stream(world);
}

TEST(RunStream, MatchesBatchRunOnTheSameWorld) {
  // One giant batch materializes the whole world; running that batch through
  // the classic path must learn the same conventions as streaming it.
  sim::StreamingWorldConfig config = small_config();
  config.batch_hostname_budget = 1u << 20;
  sim::StreamingWorld world(geo::builtin_dictionary(), config);
  auto batch = world.next_batch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(world.next_batch(), std::nullopt) << "expected a single batch";

  HoihoConfig hc;
  hc.threads = 1;
  const Hoiho hoiho(geo::builtin_dictionary(), hc);
  const HoihoResult batched = hoiho.run(batch->topology, batch->pings);
  const HoihoResult streamed = run_streamed(1, 300);
  EXPECT_EQ(dump_compact(batched), dump_compact(streamed));
}

TEST(RunStream, OneAndEightThreadsProduceIdenticalResults) {
  const HoihoResult seq = run_streamed(1, 300);
  const HoihoResult par = run_streamed(8, 300);
  ASSERT_EQ(seq.suffixes.size(), par.suffixes.size());
  // Suffixes arrive in stream order on both paths; compare the full
  // sequence, not just the sorted dump.
  for (std::size_t i = 0; i < seq.suffixes.size(); ++i)
    EXPECT_EQ(seq.suffixes[i].suffix, par.suffixes[i].suffix) << "order diverged at " << i;
  EXPECT_EQ(dump_compact(seq), dump_compact(par));
}

TEST(RunStream, CompactsPerHostnamePayloads) {
  const HoihoResult streamed = run_streamed(2, 300);
  ASSERT_FALSE(streamed.suffixes.empty());
  for (const SuffixResult& sr : streamed.suffixes) {
    EXPECT_TRUE(sr.tagged.empty());
    EXPECT_TRUE(sr.eval.per_hostname.empty());
    EXPECT_GT(sr.hostname_count, 0u);  // aggregate counts survive compaction
  }
}

TEST(RunStream, ReportCarriesStreamIngestAndPoolMetrics) {
  sim::StreamingWorldConfig config = small_config();
  sim::StreamingWorld world(geo::builtin_dictionary(), config);
  HoihoConfig hc;
  hc.threads = 4;
  const RunReport report = Hoiho(geo::builtin_dictionary(), hc).run_stream_report(world);
  EXPECT_GT(report.metrics.value("pipeline_stream_batches"), 1u);
  EXPECT_GT(report.metrics.value("pipeline_suffixes"), 0u);
  EXPECT_EQ(report.metrics.value("ingest_records{source=\"stream\"}"), world.report().records);
  // The work-stealing pool executed every seeded task (only when the host
  // has the cores to spin it up — workers are clamped to hardware).
  if (util::WorkStealingPool::resolve(0) > 1) {
    const obs::Snapshot::Entry* executed = report.metrics.find("pipeline_pool_tasks_executed");
    ASSERT_NE(executed, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(executed->gauge),
              report.metrics.value("pipeline_suffixes"));
  }
}

}  // namespace
}  // namespace hoiho::core
