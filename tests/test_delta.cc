// Incremental relearning and versioned model deltas (DESIGN.md §16):
//
//   * byte-identity — across randomized churn (several seeds × fractions),
//     run_delta's merged result serializes byte-identically to a
//     from-scratch run over the churned world, and ModelStore::apply_delta
//     publishes a snapshot whose stored conventions re-serialize to the
//     same bytes;
//   * stale-base rejection — a delta diffed from a generation that is no
//     longer serving is rejected with the snapshot untouched;
//   * corrupt/torn deltas — truncation, bit flips, and a stripped checksum
//     footer all fail load_model_delta with a named error (the footer is
//     mandatory for deltas, unlike model files);
//   * concurrency — readers geolocating on pinned snapshots while deltas
//     apply observe no torn state (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/delta.h"
#include "core/hoiho.h"
#include "core/nc_io.h"
#include "serve/model_store.h"
#include "sim/streaming.h"

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

// The model-file contract: everything with a convention, kPoor included
// (the save path keeps them; only the Geolocator skips them).
std::vector<StoredConvention> model_stored(const HoihoResult& result) {
  std::vector<StoredConvention> stored;
  for (const SuffixResult& sr : result.suffixes)
    if (sr.has_nc()) stored.push_back(StoredConvention{sr.nc, sr.cls});
  return stored;
}

std::string serialized_model(std::vector<StoredConvention> stored) {
  sort_conventions(stored);
  std::ostringstream os;
  save_conventions(os, stored, geo::builtin_dictionary());
  return os.str();
}

// Renders the churned world's change feed: the churned suffixes as one
// self-contained batch plus the suffixes whose churned rendering left the
// world (no usable hostnames).
WorldDelta world_delta_for(sim::StreamingWorld& world) {
  WorldDelta wd;
  const std::vector<std::size_t> ks = world.churned_suffixes();
  wd.changed = world.render_batch(ks);
  std::unordered_set<std::string_view> present;
  for (const topo::SuffixGroup& g : wd.changed.groups) present.insert(g.suffix);
  for (const std::size_t k : ks) {
    std::string name = world.suffix_name(k);
    if (present.find(name) == present.end()) wd.removed.push_back(std::move(name));
  }
  return wd;
}

struct DeltaFixture {
  HoihoConfig config;
  std::vector<StoredConvention> base_stored;
  PriorRun prior;
  ModelDelta delta;          // run_delta's output against generation 1
  std::string full_bytes;    // from-scratch serialization of the churned world
  std::string merged_bytes;  // run_delta's merged result, serialized
  DeltaRunReport report;
};

DeltaFixture make_fixture(std::uint64_t churn_seed, double churn_frac) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  DeltaFixture fx;
  fx.config.threads = 2;
  const Hoiho hoiho(dict, fx.config);

  const sim::StreamingWorldConfig base_swc = small_config();
  sim::StreamingWorld base_world(dict, base_swc);
  HoihoResult base_result = hoiho.run_stream(base_world);
  fx.base_stored = model_stored(base_result);
  fx.prior = PriorRun::capture(std::move(base_result), fx.config, dict.size(),
                               base_world.vps(), /*generation=*/1);

  sim::StreamingWorldConfig churned_swc = base_swc;
  churned_swc.churn_seed = churn_seed;
  churned_swc.churn_frac = churn_frac;
  sim::StreamingWorld full_world(dict, churned_swc);
  fx.full_bytes = serialized_model(model_stored(hoiho.run_stream(full_world)));

  sim::StreamingWorld delta_world(dict, churned_swc);
  const WorldDelta wd = world_delta_for(delta_world);
  fx.report = hoiho.run_delta(wd, fx.prior);
  fx.delta = fx.report.delta;
  if (fx.report.ok()) fx.merged_bytes = serialized_model(model_stored(fx.report.result));
  return fx;
}

TEST(Delta, ByteIdentityAcrossRandomizedChurn) {
  for (const std::uint64_t seed : {1u, 4242u}) {
    for (const double frac : {0.1, 0.4}) {
      const DeltaFixture fx = make_fixture(seed, frac);
      ASSERT_TRUE(fx.report.ok()) << fx.report.error;
      // Some suffix actually changed at these fractions.
      EXPECT_GT(fx.report.dirty + fx.report.added + fx.report.removed, 0u)
          << "seed=" << seed << " frac=" << frac;
      // The change feed holds only churned suffixes, so nothing in it can
      // fingerprint-match the prior (reused counts matches in the feed).
      EXPECT_EQ(fx.report.reused, 0u);
      // The merged result is what a from-scratch run would have produced.
      EXPECT_EQ(fx.merged_bytes, fx.full_bytes) << "seed=" << seed << " frac=" << frac;
      EXPECT_EQ(fx.delta.base_generation, 1u);
    }
  }
}

TEST(Delta, UnchangedSuffixesInTheFeedAreReused) {
  // A change feed that over-approximates (includes suffixes that did not
  // actually change) exercises the fingerprint short-circuit: unchanged
  // entries are reused verbatim, never relearned, and the delta stays
  // scoped to the real changes.
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  HoihoConfig config;
  config.threads = 2;
  const Hoiho hoiho(dict, config);

  const sim::StreamingWorldConfig base_swc = small_config();
  sim::StreamingWorld base_world(dict, base_swc);
  HoihoResult base_result = hoiho.run_stream(base_world);
  const PriorRun prior = PriorRun::capture(std::move(base_result), config, dict.size(),
                                           base_world.vps(), /*generation=*/1);

  sim::StreamingWorldConfig churned_swc = base_swc;
  churned_swc.churn_seed = 4242;
  churned_swc.churn_frac = 0.2;
  sim::StreamingWorld delta_world(dict, churned_swc);

  // Feed every suffix, churned or not.
  std::vector<std::size_t> all(churned_swc.suffixes);
  for (std::size_t k = 0; k < all.size(); ++k) all[k] = k;
  WorldDelta wd;
  wd.changed = delta_world.render_batch(all);

  const DeltaRunReport rep = hoiho.run_delta(wd, prior);
  ASSERT_TRUE(rep.ok()) << rep.error;
  EXPECT_GT(rep.reused, 0u);
  EXPECT_GT(rep.dirty, 0u);
  EXPECT_LT(rep.dirty, wd.changed.groups.size());
  // Only the churned suffixes can appear in the delta.
  const std::size_t churned = delta_world.churned_suffixes().size();
  EXPECT_LE(rep.delta.upserts.size() + rep.delta.removes.size(), churned + rep.added);
}

TEST(Delta, ZeroChurnProducesEmptyDeltaAndFullReuse) {
  const DeltaFixture fx = make_fixture(9, 0.0);
  ASSERT_TRUE(fx.report.ok()) << fx.report.error;
  EXPECT_EQ(fx.report.dirty, 0u);
  EXPECT_EQ(fx.report.added, 0u);
  EXPECT_EQ(fx.report.removed, 0u);
  EXPECT_TRUE(fx.delta.empty());
  EXPECT_EQ(fx.merged_bytes, fx.full_bytes);
}

TEST(Delta, MismatchedSignaturesRefuseToRun) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const DeltaFixture fx = make_fixture(3, 0.2);
  ASSERT_TRUE(fx.report.ok()) << fx.report.error;

  sim::StreamingWorldConfig churned_swc = small_config();
  churned_swc.churn_seed = 3;
  churned_swc.churn_frac = 0.2;
  sim::StreamingWorld world(dict, churned_swc);
  const WorldDelta wd = world_delta_for(world);

  // A knob that shapes learned output invalidates the prior...
  HoihoConfig other = fx.config;
  other.min_tagged_hostnames = fx.config.min_tagged_hostnames + 3;
  const DeltaRunReport bad = Hoiho(dict, other).run_delta(wd, fx.prior);
  EXPECT_FALSE(bad.ok());

  // ...but an output-invariant one (threads) does not, and the threads=1
  // run reproduces the threads=2 delta and merged model byte for byte.
  HoihoConfig rethreaded = fx.config;
  rethreaded.threads = 1;
  const DeltaRunReport good = Hoiho(dict, rethreaded).run_delta(wd, fx.prior);
  ASSERT_TRUE(good.ok()) << good.error;
  EXPECT_EQ(serialize_model_delta(good.delta, dict), serialize_model_delta(fx.delta, dict));
  EXPECT_EQ(serialized_model(model_stored(good.result)), fx.merged_bytes);
}

TEST(Delta, ApplyDeltaPublishesFromScratchBytes) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const DeltaFixture fx = make_fixture(4242, 0.25);
  ASSERT_TRUE(fx.report.ok()) << fx.report.error;

  serve::ModelStore store(dict);
  store.install(fx.base_stored);
  const std::uint64_t base_gen = store.generation();

  ModelDelta delta = fx.delta;
  delta.base_generation = base_gen;
  serve::ModelStore::DeltaApply applied;
  const auto err = store.apply_delta(delta, &applied);
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(applied.base_generation, base_gen);
  EXPECT_EQ(applied.new_generation, store.generation());
  EXPECT_GT(store.generation(), base_gen);
  EXPECT_EQ(serialized_model(store.current()->stored), fx.full_bytes);
}

TEST(Delta, StaleBaseGenerationIsRejected) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const DeltaFixture fx = make_fixture(7, 0.2);
  ASSERT_TRUE(fx.report.ok()) << fx.report.error;

  serve::ModelStore store(dict);
  store.install(fx.base_stored);
  const std::uint64_t base_gen = store.generation();
  const auto before = store.current();

  ModelDelta stale = fx.delta;
  stale.base_generation = base_gen + 5;
  const auto err = store.apply_delta(stale);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("generation"), std::string::npos) << *err;
  // The serving snapshot did not move.
  EXPECT_EQ(store.generation(), base_gen);
  EXPECT_EQ(store.current().get(), before.get());
}

TEST(Delta, RemovingAnAbsentSuffixIsRejected) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const DeltaFixture fx = make_fixture(8, 0.2);
  ASSERT_TRUE(fx.report.ok()) << fx.report.error;

  serve::ModelStore store(dict);
  store.install(fx.base_stored);
  const std::uint64_t base_gen = store.generation();

  ModelDelta bad;
  bad.base_generation = base_gen;
  bad.removes.push_back("never-in-the-model.example.net");
  const auto err = store.apply_delta(bad);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(store.generation(), base_gen);
}

TEST(Delta, SerializationRoundTripsAndRejectsCorruption) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const DeltaFixture fx = make_fixture(4242, 0.25);
  ASSERT_TRUE(fx.report.ok()) << fx.report.error;
  ASSERT_FALSE(fx.delta.empty());

  const std::string bytes = serialize_model_delta(fx.delta, dict);
  ASSERT_TRUE(is_model_delta(bytes));

  // Round trip.
  {
    std::istringstream in(bytes);
    std::string error;
    io::LoadReport report;
    const auto loaded = load_model_delta(in, dict, &error, nullptr, {}, &report);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(loaded->base_generation, fx.delta.base_generation);
    EXPECT_EQ(loaded->removes, fx.delta.removes);
    ASSERT_EQ(loaded->upserts.size(), fx.delta.upserts.size());
    EXPECT_EQ(serialize_model_delta(*loaded, dict), bytes);
  }

  const auto expect_rejected = [&](const std::string& mutated, const char* what) {
    std::istringstream in(mutated);
    std::string error;
    io::LoadReport report;
    const auto loaded = load_model_delta(in, dict, &error, nullptr, {}, &report);
    EXPECT_FALSE(loaded.has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_FALSE(report.ok()) << what;
  };

  // Torn: truncation anywhere loses the footer (or tears a record).
  expect_rejected(bytes.substr(0, bytes.size() / 2), "truncated");
  // Corrupt: a flipped byte in a record fails the checksum.
  {
    std::string flipped = bytes;
    flipped[bytes.size() / 3] ^= 0x20;
    expect_rejected(flipped, "bit flip");
  }
  // Stripped footer: unlike model files, a delta REQUIRES it.
  {
    const std::size_t footer = bytes.rfind("# checksum");
    ASSERT_NE(footer, std::string::npos);
    expect_rejected(bytes.substr(0, footer), "missing footer");
  }
}

TEST(Delta, ApplyUnderConcurrentReaders) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const DeltaFixture fx = make_fixture(4242, 0.25);
  ASSERT_TRUE(fx.report.ok()) << fx.report.error;
  ASSERT_FALSE(fx.delta.upserts.empty());

  serve::ModelStore store(dict);
  store.install(fx.base_stored);

  // Readers hammer pinned snapshots while the writer re-applies a
  // back-and-forth delta stream; every snapshot a reader holds must stay
  // internally consistent (generation, stored list, geolocator agree).
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> lookups{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = store.current();
        for (const StoredConvention& sc : snap->stored) {
          snap->geolocator.locate(sc.nc.suffix);  // pinned snapshot: safe
          lookups.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: alternate "apply the churn delta" / "revert to base" — both are
  // upsert/remove merges against whatever is currently serving.
  std::size_t applies = 0;
  for (int round = 0; round < 6; ++round) {
    const bool forward = (round % 2) == 0;
    ModelDelta delta;
    delta.base_generation = store.generation();
    if (forward) {
      delta = fx.delta;
      delta.base_generation = store.generation();
    } else {
      // Revert: upsert the base content for every suffix the delta touched,
      // remove the ones it added.
      std::unordered_set<std::string_view> base_suffixes;
      for (const StoredConvention& sc : fx.base_stored) base_suffixes.insert(sc.nc.suffix);
      for (const StoredConvention& sc : fx.delta.upserts)
        if (base_suffixes.find(sc.nc.suffix) == base_suffixes.end())
          delta.removes.push_back(sc.nc.suffix);
      // Suffixes the forward delta removed come back with base content via
      // the full base upsert.
      for (const StoredConvention& sc : fx.base_stored) delta.upserts.push_back(sc);
      sort_conventions(delta.upserts);
      std::sort(delta.removes.begin(), delta.removes.end());
    }
    const auto err = store.apply_delta(delta);
    ASSERT_FALSE(err.has_value()) << *err;
    ++applies;
  }
  // Under a loaded host the readers may not have been scheduled yet; the
  // overlap assertion below needs them to have actually read something.
  while (lookups.load(std::memory_order_relaxed) == 0)
    std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(applies, 6u);
  EXPECT_GT(lookups.load(), 0u);
  // Ends on a revert: serving content is the base again.
  EXPECT_EQ(serialized_model(store.current()->stored), serialized_model(fx.base_stored));
}

TEST(Delta, FingerprintsAreContentDerived) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  sim::StreamingWorldConfig swc = small_config();
  sim::StreamingWorld a(dict, swc);
  sim::StreamingWorld b(dict, swc);
  const auto batch_a = a.next_batch();
  const auto batch_b = b.next_batch();
  ASSERT_TRUE(batch_a.has_value());
  ASSERT_TRUE(batch_b.has_value());
  ASSERT_EQ(batch_a->groups.size(), batch_b->groups.size());
  for (std::size_t i = 0; i < batch_a->groups.size(); ++i) {
    const std::uint64_t fa = suffix_fingerprint(batch_a->groups[i], batch_a->pings);
    const std::uint64_t fb = suffix_fingerprint(batch_b->groups[i], batch_b->pings);
    EXPECT_NE(fa, 0u);  // 0 is the "unknown" sentinel, never produced
    EXPECT_EQ(fa, fb);  // same content, same fingerprint
  }
}

}  // namespace
}  // namespace hoiho::core
