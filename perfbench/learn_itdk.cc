// learn_itdk: the learner's user. A full streamed learn of the L-tier
// world (Hoiho::run_stream with an .ncb model_out) followed by 5%-churn
// rounds (render only the churned suffixes, Hoiho::run_delta against the
// base run, ModelStore::apply_delta onto the base model).
//
// The traced pass re-drives every streamed batch through the learner's
// public stage calls, in the order Hoiho::run_suffix uses, with spans
// around each call; its model must be byte-identical to run_stream's.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "core/delta.h"
#include "core/hoiho.h"
#include "core/nc_io.h"
#include "core/ncb.h"
#include "geo/dictionary.h"
#include "measure/consistency_cache.h"
#include "serve/model_store.h"
#include "sim/streaming.h"
#include "workloads.h"

namespace perfbench {

using namespace hoiho;

namespace {

// Churn rounds per full learn; the first kCountedRounds rounds (always run,
// same seeds every run) supply the delta work counts and the traced rounds.
constexpr std::size_t kRoundsPerRep = 10;
constexpr std::size_t kCountedRounds = 6;
// ROADMAP item 1: layer self times must cover the traced wall within 5%.
constexpr double kMaxUnattributed = 0.05;

std::vector<core::StoredConvention> model_of(const core::HoihoResult& r) {
  std::vector<core::StoredConvention> stored;
  for (const core::SuffixResult& sr : r.suffixes)
    if (sr.has_nc()) stored.push_back(core::StoredConvention{sr.nc, sr.cls});
  core::sort_conventions(stored);
  return stored;
}

std::string text_model(const std::vector<core::StoredConvention>& stored) {
  std::ostringstream out;
  core::save_conventions(out, stored, geo::builtin_dictionary());
  return out.str();
}

std::size_t usable_count(const core::HoihoResult& r) {
  std::size_t n = 0;
  for (const core::SuffixResult& sr : r.suffixes)
    if (sr.usable()) ++n;
  return n;
}

struct RoundOutcome {
  double ms = 0;  // render_batch + run_delta + apply_delta
  std::string merged_model;  // text model of the merged result
  std::string error;
};

// One churn round against `prior`, applied to `store` (which serves the
// base model and is reloaded back to it afterwards). When traced, the timed
// section is a "churn_round" root with spans around render_batch, run_delta
// and apply_delta; the reload back to the base is a root of its own.
RoundOutcome churn_round(const core::Hoiho& hoiho, const core::PriorRun& prior,
                         serve::ModelStore& store, std::uint64_t seed, std::uint64_t round,
                         Trace* trace) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  RoundOutcome out;
  sim::StreamingWorld world(dict, churn_config(mix_seed(seed, 1000 + round)));
  const std::vector<std::size_t> ks = world.churned_suffixes();

  core::WorldDelta wd;
  core::DeltaRunReport rep;
  std::optional<std::string> err;
  const std::uint64_t t0 = now_ns();
  {
    const Scope timed(trace, "churn_round");
    {
      const Scope s(trace, "sim.render_batch");
      wd.changed = world.render_batch(ks);
    }
    // A churned operator that rendered no usable hostnames left the world.
    std::unordered_set<std::string_view> present;
    for (const topo::SuffixGroup& g : wd.changed.groups) present.insert(g.suffix);
    for (const std::size_t k : ks) {
      std::string name = world.suffix_name(k);
      if (!present.contains(name)) wd.removed.push_back(std::move(name));
    }
    {
      const Scope s(trace, "core.run_delta");
      rep = hoiho.run_delta(wd, prior);
    }
    if (rep.ok()) {
      rep.delta.base_generation = store.generation();
      serve::ModelStore::DeltaApply applied;
      const Scope s(trace, "serve.apply_delta");
      err = store.apply_delta(rep.delta, &applied);
    }
  }
  out.ms = ms_between(t0, now_ns());
  if (!rep.ok()) {
    out.error = "run_delta: " + rep.error;
    return out;
  }
  if (err) {
    out.error = "apply_delta: " + *err;
    return out;
  }
  // The published successor must be exactly the merged relearn result.
  out.merged_model = text_model(model_of(rep.result));
  if (text_model(store.current()->stored) != out.merged_model)
    out.error = "applied model differs from run_delta's merged result";
  {
    const Scope s(trace, "serve.reload");
    if (const auto rerr = store.reload()) out.error = "reload to base: " + *rerr;
  }
  return out;
}

// Hoiho::run_suffix, re-driven through the stage calls with a span around
// each (same order and arguments as Hoiho::run_suffix_impl).
core::SuffixResult traced_suffix(const core::HoihoConfig& cfg, const topo::SuffixGroup& group,
                                 const measure::Measurements& meas,
                                 const measure::ExpectedRttGrid* grid, Trace& t) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  core::SuffixResult result;
  result.suffix = group.suffix;
  result.hostname_count = group.hostnames.size();

  std::optional<measure::ConsistencyCache> cache_storage;
  {
    const Scope s(&t, "measure.cache_init");
    cache_storage.emplace(meas, dict.size(), cfg.apparent.slack_ms, /*prefilter=*/true, grid);
  }
  measure::ConsistencyCache* cache = &*cache_storage;

  {
    const Scope s(&t, "core.tag");
    const core::ApparentTagger tagger(dict, meas, cfg.apparent, cache);
    result.tagged = tagger.tag_all(group.hostnames);
    for (const core::TaggedHostname& th : result.tagged)
      if (th.has_hint()) ++result.tagged_count;
  }
  if (result.tagged_count < cfg.min_tagged_hostnames) return result;

  core::Evaluator evaluator(dict, meas, cfg.apparent.slack_ms, cache);
  evaluator.set_use_compiled(cfg.compiled_regex);
  core::GenConfig gen_config = cfg.gen;
  gen_config.compiled_matcher = cfg.compiled_regex;
  const core::RegexGenerator generator(gen_config);

  std::vector<core::GeoRegex> candidates;
  {
    const Scope s(&t, "core.regex_gen");
    std::vector<core::TaggedHostname> seeds;
    for (const core::TaggedHostname& th : result.tagged) {
      if (!th.has_hint()) continue;
      seeds.push_back(th);
      if (seeds.size() >= cfg.max_seed_hostnames) break;
    }
    candidates = generator.generate_base(seeds);
  }
  if (candidates.empty()) return result;

  std::vector<core::NcEvaluation> base_evals;
  {
    const Scope s(&t, "core.eval");
    std::vector<core::NcEvaluation> evals = evaluator.evaluate_candidates(candidates, result.tagged);
    struct Ranked {
      core::GeoRegex gr;
      core::NcEvaluation eval;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (evals[i].counts.tp == 0) continue;
      ranked.push_back(Ranked{std::move(candidates[i]), std::move(evals[i])});
    }
    std::stable_sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
      return a.eval.counts.atp() > b.eval.counts.atp();
    });
    if (ranked.size() > cfg.max_candidates) ranked.resize(cfg.max_candidates);
    candidates.clear();
    base_evals.reserve(ranked.size());
    for (Ranked& r : ranked) {
      candidates.push_back(std::move(r.gr));
      base_evals.push_back(std::move(r.eval));
    }
  }
  if (candidates.empty()) return result;

  {
    const Scope s(&t, "core.regex_gen");
    {
      const std::vector<core::GeoRegex> merged = generator.merge(candidates);
      candidates.insert(candidates.end(), merged.begin(), merged.end());
    }
    {
      std::vector<core::GeoRegex> refined;
      for (const core::GeoRegex& gr : candidates)
        if (auto r = generator.embed_classes(gr, result.tagged)) refined.push_back(std::move(*r));
      candidates.insert(candidates.end(), refined.begin(), refined.end());
    }
    core::dedup_regexes(candidates);
  }

  const core::NcBuilder builder(evaluator, cfg.sets);
  std::vector<core::NcBuilder::Candidate> ncs;
  {
    const Scope s(&t, "core.eval");
    ncs = builder.build(group.suffix, std::move(candidates), result.tagged, std::move(base_evals));
  }
  if (ncs.empty()) return result;

  std::vector<std::vector<core::LearnedHint>> learned_per(ncs.size());
  if (cfg.enable_learning) {
    const Scope s(&t, "core.learn");
    const core::GeohintLearner learner(evaluator, cfg.learn);
    const std::size_t n = std::min(ncs.size(), cfg.learn_top_n);
    for (std::size_t i = 0; i < n; ++i) {
      learned_per[i] = learner.learn(ncs[i].nc, result.tagged, ncs[i].eval);
      if (!learned_per[i].empty()) {
        const Scope e(&t, "core.eval");
        ncs[i].eval = evaluator.evaluate(ncs[i].nc, result.tagged);
      }
    }
    std::vector<std::size_t> order(ncs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ncs[a].eval.counts.atp() > ncs[b].eval.counts.atp();
    });
    std::vector<core::NcBuilder::Candidate> ncs2;
    std::vector<std::vector<core::LearnedHint>> learned2;
    for (const std::size_t idx : order) {
      ncs2.push_back(std::move(ncs[idx]));
      learned2.push_back(std::move(learned_per[idx]));
    }
    ncs = std::move(ncs2);
    learned_per = std::move(learned2);
  }

  const Scope s(&t, "core.rank");
  const core::NcBuilder::Candidate* best = core::select_best(ncs, cfg.rank);
  if (best == nullptr) return result;
  const std::size_t best_idx = static_cast<std::size_t>(best - ncs.data());
  result.nc = best->nc;
  result.eval = best->eval;
  result.learned = learned_per[best_idx];
  result.cls = core::classify(result.eval, cfg.rank);
  return result;
}

// The single-worker traced learn: every batch from a fresh world, every
// suffix through traced_suffix, then the model emitted to `model_path`.
// Returns the traced wall in ns; the root span is "learn".
std::uint64_t traced_learn(const std::string& model_path, Trace& t) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::HoihoConfig cfg;
  sim::StreamingWorld world(dict, world_config());
  std::vector<core::StoredConvention> stored;
  std::shared_ptr<const measure::ExpectedRttGrid> grid;

  const std::uint64_t t0 = now_ns();
  const std::uint32_t root = t.open("learn");
  while (true) {
    std::optional<io::SuffixBatch> batch;
    {
      const Scope s(&t, "sim.next_batch");
      batch = world.next_batch();
    }
    if (!batch) break;
    const measure::Measurements& meas = batch->pings;
    if (grid == nullptr && cfg.consistency_cache && cfg.expected_rtt_grid && !meas.vps.empty() &&
        dict.size() * meas.vps.size() <= cfg.max_grid_cells) {
      const Scope s(&t, "measure.grid_build");
      std::vector<geo::Coordinate> coords(dict.size());
      for (std::size_t id = 0; id < coords.size(); ++id)
        coords[id] = dict.location(static_cast<geo::LocationId>(id)).coord;
      grid = std::make_shared<measure::ExpectedRttGrid>(coords, meas.vps);
    }
    for (const topo::SuffixGroup& group : batch->groups) {
      const Scope s(&t, "core.suffix");
      core::SuffixResult r = traced_suffix(cfg, group, meas, grid.get(), t);
      {
        const Scope f(&t, "core.fingerprint");
        r.fingerprint = core::suffix_fingerprint(group, meas);
      }
      if (r.hostname_count > 0 && r.has_nc()) stored.push_back(core::StoredConvention{r.nc, r.cls});
    }
  }
  {
    const Scope s(&t, "core.model_emit");
    core::sort_conventions(stored);
    core::save_model_to_file(model_path, stored, dict);
  }
  t.close(root);
  return now_ns() - t0;
}

double self_ms(const std::vector<std::pair<std::string, double>>& by_name, std::string_view name) {
  for (const auto& [n, v] : by_name)
    if (n == name) return v / 1e6;
  return 0;
}

}  // namespace

Report run_learn_itdk(const Env& env, std::uint64_t seed, double seconds, bool trace,
                      std::uint64_t process_start_ns) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  Report rep;

  // --- Set-up, kSetups times; the median is setup_s and the last is kept ---
  // The churn rounds need a base run to diff against and a ModelStore that
  // serves its model, so set-up is the world, the base learn (emitting the
  // .ncb base model) and the store's mmap load of it. The first set-up
  // counts from process start.
  std::vector<double> setup_s;
  core::HoihoConfig config;
  config.threads = env.learner_workers;
  const std::string base_model = env.work_dir + "/base.ncb";
  const std::string rep_model = env.work_dir + "/rep.ncb";
  std::optional<core::PriorRun> prior;
  std::unique_ptr<serve::ModelStore> store;
  std::size_t usable = 0;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = i == 0 ? process_start_ns : now_ns();
    core::HoihoConfig cfg = config;
    cfg.model_out = base_model;
    sim::StreamingWorld world(dict, world_config());
    core::HoihoResult result = core::Hoiho(dict, cfg).run_stream(world);
    usable = usable_count(result);
    prior.emplace(core::PriorRun::capture(std::move(result), config, dict.size(), world.vps()));
    store = std::make_unique<serve::ModelStore>(dict, base_model);
    const auto err = store->reload();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (err || usable == 0) {
      rep.fail("set-up: " + (err ? *err : std::string("no usable conventions learned")));
      ++rep.attempted;
      ++rep.failed;
      return rep;
    }
  }
  const std::string base_bytes = read_file(base_model);
  const std::uint64_t model_hash = fnv1a(base_bytes);
  const std::uint64_t gens_before = store->generation();

  // --- Timed: full learns interleaved with churn rounds ---
  std::vector<double> learn_rate, learn_wall_ms, round_ms;
  obs::Snapshot learn_snap;      // rep 0's registry
  obs::Registry delta_registry;  // every churn round; snapshotted after the counted ones
  obs::Snapshot delta_snap;
  std::size_t hostnames = 0;
  double rep0_wall_ns = 0;
  std::uint64_t gens_counted = 0;
  std::string round0_model;

  core::HoihoConfig delta_config = config;
  delta_config.registry = &delta_registry;
  const core::Hoiho delta_hoiho(dict, delta_config);

  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t round = 0;
  std::vector<double> rep_rss_mb;   // per-rep VmHWM (learn + its churn rounds)
  std::vector<double> rep_base_mb;  // per-rep RSS at the reset, after the heap trim
  for (std::size_t r = 0; r == 0 || now_ns() < deadline; ++r) {
    const bool rss_reset = reset_peak_rss();
    rep_base_mb.push_back(settled_rss_mb());
    sim::StreamingWorld world(dict, world_config());
    obs::Registry registry;
    core::HoihoConfig cfg = config;
    cfg.registry = &registry;
    cfg.model_out = rep_model;
    const core::Hoiho hoiho(dict, cfg);
    const std::uint64_t t0 = now_ns();
    const core::HoihoResult result = hoiho.run_stream(world);
    const std::uint64_t wall = now_ns() - t0;
    ++rep.attempted;
    if (r == 0) {
      learn_snap = registry.snapshot();
      hostnames = world.report().records;
      rep0_wall_ns = static_cast<double>(wall);
    }
    if (fnv1a(read_file(rep_model)) != model_hash || usable_count(result) != usable) {
      ++rep.failed;
      rep.fail("run_stream rep " + std::to_string(r) + " emitted a different model than the base run");
    }
    learn_rate.push_back(static_cast<double>(world.report().records) / (static_cast<double>(wall) / 1e9));
    learn_wall_ms.push_back(static_cast<double>(wall) / 1e6);

    for (std::size_t j = 0; j < kRoundsPerRep; ++j, ++round) {
      const RoundOutcome o = churn_round(delta_hoiho, *prior, *store, seed, round, nullptr);
      ++rep.attempted;
      if (!o.error.empty()) {
        ++rep.failed;
        rep.fail("churn round " + std::to_string(round) + ": " + o.error);
        continue;
      }
      round_ms.push_back(o.ms);
      if (round == 0) round0_model = o.merged_model;
      if (round + 1 == kCountedRounds) {
        delta_snap = delta_registry.snapshot();
        gens_counted = store->generation() - gens_before;
      }
    }
    if (rss_reset) rep_rss_mb.push_back(peak_rss_mb());
  }
  // Median of the per-rep peaks: the process-wide high-water mark depends on
  // how the renderer and the workers happened to overlap in one rep.
  const double rss_mb = rep_rss_mb.empty() ? peak_rss_mb() : median(rep_rss_mb);

  // Round 0's merged model must equal a full learn of its churned
  // world (the incremental path's contract), checked once per run.
  {
    sim::StreamingWorld churned(dict, churn_config(mix_seed(seed, 1000)));
    const core::HoihoResult full = core::Hoiho(dict, config).run_stream(churned);
    ++rep.attempted;
    if (round0_model.empty() || text_model(model_of(full)) != round0_model) {
      ++rep.failed;
      rep.fail("churn round 0: merged model differs from a full learn");
    }
  }

  const Summary rate_s = summarize(learn_rate), wall_s = summarize(learn_wall_ms),
                round_s = summarize(round_ms), setup_sum = summarize(setup_s);
  rep.note("learn_wall_ms", summary_json(wall_s));
  rep.note("learn_hostnames_per_s", summary_json(rate_s));
  std::string rates = "[";
  for (std::size_t i = 0; i < learn_rate.size(); ++i) rates += (i > 0 ? ", " : "") + json_number(learn_rate[i]);
  rep.note("learn_hostnames_per_s_by_rep", rates + "]");
  rep.note("delta_relearn_ms", summary_json(round_s));
  rep.note("setup_s", summary_json(setup_sum));
  rep.note("rep_peak_rss_mb", summary_json(summarize(rep_rss_mb)));
  rep.note("rep_base_rss_mb", summary_json(summarize(rep_base_mb)));
  rep.note("hostnames", std::to_string(hostnames));
  rep.note("model_hash", json_string(std::to_string(model_hash)));
  rep.note("work_counts",
           "{\"measure.cache_misses\": " + std::to_string(counter(learn_snap, "consistency_cache_misses")) +
               ", \"regex.programs_run\": " + std::to_string(counter(learn_snap, "rx_set_programs_run")) +
               ", \"core.ncs_built\": " + std::to_string(counter(learn_snap, "pipeline_ncs_built")) +
               ", \"core.delta_dirty\": " + std::to_string(counter(delta_snap, "delta_suffixes_dirty")) +
               ", \"serve.generations\": " + std::to_string(gens_counted) + "}");

  if (!trace) {
    // The end-to-end metrics every workload reports (NOTES.md): here the
    // learn rate, the churn relearn that takes a changed world to a live
    // model, and the usable conventions of the learned model.
    rep.add("setup_s", median(setup_s), "s");
    rep.add("peak_rss_mb", rss_mb, "MB");
    rep.add("throughput", median(learn_rate), "1/s");
    rep.add("model_live_ms", median(round_ms), "ms");
    rep.add("usable_ncs", static_cast<double>(usable), "count");
    return rep;
  }

  // --- Traced pass (separate from the timed runs above) ---
  // Untraced single-worker baseline for the overhead ratio.
  double untraced_1w_ns = 0;
  {
    sim::StreamingWorld world(dict, world_config());
    core::HoihoConfig cfg;
    cfg.threads = 1;
    cfg.model_out = env.work_dir + "/untraced-1w.ncb";
    const std::uint64_t t0 = now_ns();
    core::Hoiho(dict, cfg).run_stream(world);
    untraced_1w_ns = static_cast<double>(now_ns() - t0);
  }
  Trace t;
  const std::string traced_model = env.work_dir + "/traced.ncb";
  const double traced_ns = static_cast<double>(traced_learn(traced_model, t));
  ++rep.attempted;
  if (fnv1a(read_file(traced_model)) != model_hash) {
    ++rep.failed;
    rep.fail("traced re-drive model is not byte-identical to run_stream's");
  }

  // Traced churn rounds: the counted rounds again, single worker.
  core::HoihoConfig traced_delta_cfg;
  traced_delta_cfg.threads = 1;
  const core::Hoiho traced_delta(dict, traced_delta_cfg);
  for (std::size_t j = 0; j < kCountedRounds; ++j) {
    const RoundOutcome o = churn_round(traced_delta, *prior, *store, seed, j, &t);
    ++rep.attempted;
    if (!o.error.empty()) {
      ++rep.failed;
      rep.fail("traced churn round: " + o.error);
    }
  }
  t.write(env.out_dir + "/learn_itdk-seed" + std::to_string(seed) + ".spans.jsonl");

  const auto by_name = t.self_ns_by_name();
  // Reconciliation (ROADMAP item 1): time inside the "learn" and
  // "churn_round" roots that no layer span covers is their own self time
  // plus that of the per-suffix wrapper "core.suffix", which is not a layer
  // and is kept only for its durations.
  const auto total_ns = [&](std::string_view name) {
    double sum = 0;
    for (const double d : t.durations_ns(name)) sum += d;
    return sum;
  };
  const double unattributed =
      (self_ms(by_name, "learn") + self_ms(by_name, "churn_round") + self_ms(by_name, "core.suffix")) * 1e6 /
      (total_ns("learn") + total_ns("churn_round"));
  if (unattributed > kMaxUnattributed)
    rep.fail("layer self times leave " + json_number(unattributed * 100) +
             "% of the traced wall unattributed (limit 5%)");
  std::vector<double> suffix_ms = t.durations_ns("core.suffix");
  for (double& v : suffix_ms) v /= 1e6;
  const Summary suffix_s = summarize(suffix_ms);
  const auto median_ms = [&](std::string_view name) {
    std::vector<double> d = t.durations_ns(name);
    return median(d) / 1e6;
  };
  std::string layers = "{";
  for (std::size_t i = 0; i < by_name.size(); ++i)
    layers += (i > 0 ? ", " : "") + json_string(by_name[i].first) + ": " + json_number(by_name[i].second / 1e6);
  rep.note("self_ms_by_span", layers + "}");
  rep.note("traced_wall_ms", json_number(traced_ns / 1e6));
  rep.note("core.suffix_ms", summary_json(suffix_s));

  const double hits = static_cast<double>(counter(learn_snap, "consistency_cache_hits"));
  const double misses = static_cast<double>(counter(learn_snap, "consistency_cache_misses"));
  const double cands = static_cast<double>(counter(learn_snap, "rx_set_candidates"));
  const double runs = static_cast<double>(counter(learn_snap, "rx_set_programs_run"));
  const double rx_hits = static_cast<double>(counter(learn_snap, "rx_set_hits"));
  rep.add("sim.render_ms", self_ms(by_name, "sim.next_batch"), "ms");
  rep.add("sim.render_batch_ms", median_ms("sim.render_batch"), "ms");
  rep.add("measure.grid_build_ms", self_ms(by_name, "measure.grid_build"), "ms");
  rep.add("measure.cache_init_ms", self_ms(by_name, "measure.cache_init"), "ms");
  rep.add("measure.cache_hits", hits, "count");
  rep.add("measure.cache_misses", misses, "count");
  rep.add("measure.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  rep.add("measure.prefilter_rejects",
          static_cast<double>(counter(learn_snap, "consistency_cache_prefilter_rejects")), "count");
  rep.add("core.tag_ms", self_ms(by_name, "core.tag"), "ms");
  rep.add("core.tag_hostnames", static_cast<double>(counter(learn_snap, "pipeline_hostnames")), "count");
  rep.add("core.regex_gen_ms", self_ms(by_name, "core.regex_gen"), "ms");
  rep.add("core.candidates",
          static_cast<double>(counter(learn_snap, "pipeline_candidates_generated")), "count");
  rep.add("core.eval_ms", self_ms(by_name, "core.eval"), "ms");
  rep.add("core.ncs_built", static_cast<double>(counter(learn_snap, "pipeline_ncs_built")), "count");
  rep.add("regex.set_candidates", cands, "count");
  rep.add("regex.programs_run", runs, "count");
  rep.add("regex.set_hits", rx_hits, "count");
  rep.add("regex.screen_ratio", ratio(runs, cands), "ratio");
  rep.add("regex.hit_ratio", ratio(rx_hits, runs), "ratio");
  rep.add("core.learn_ms", self_ms(by_name, "core.learn"), "ms");
  rep.add("core.learned_hints", static_cast<double>(counter(learn_snap, "pipeline_learned_hints")), "count");
  rep.add("core.rank_ms", self_ms(by_name, "core.rank"), "ms");
  rep.add("core.fingerprint_ms", self_ms(by_name, "core.fingerprint"), "ms");
  rep.add("core.suffix_ms_p50", suffix_s.p50, "ms");
  rep.add("core.suffix_ms_max", suffix_s.max, "ms");
  rep.add("util.pool_busy_frac",
          ratio(hist_sum(learn_snap, "pipeline_suffix_ns"),
                static_cast<double>(env.learner_workers) * rep0_wall_ns),
          "ratio");
  rep.add("util.pool_queue_wait_us_mean",
          ratio(hist_sum(learn_snap, "pool_queue_wait_ns"),
                static_cast<double>(hist_count(learn_snap, "pool_queue_wait_ns"))) / 1e3,
          "us");
  rep.add("util.pool_tasks_stolen", static_cast<double>(counter(learn_snap, "pool_tasks_stolen")), "count");
  rep.add("util.pool_steal_failures", static_cast<double>(counter(learn_snap, "pool_steal_failures")), "count");
  rep.add("core.model_emit_ms", self_ms(by_name, "core.model_emit"), "ms");
  rep.add("core.model_bytes", static_cast<double>(base_bytes.size()), "bytes");
  rep.add("core.delta_dirty", static_cast<double>(counter(delta_snap, "delta_suffixes_dirty")), "count");
  rep.add("core.delta_reused", static_cast<double>(counter(delta_snap, "delta_suffixes_reused")), "count");
  rep.add("core.delta_run_ms", median_ms("core.run_delta"), "ms");
  rep.add("serve.store_apply_ms", median_ms("serve.apply_delta"), "ms");
  rep.add("serve.store_reload_ms", median_ms("serve.reload"), "ms");
  rep.add("serve.generations", static_cast<double>(gens_counted), "count");
  rep.add("trace.unattributed_frac", unattributed, "ratio");
  rep.add("trace.overhead_frac", traced_ns / untraced_1w_ns - 1.0, "ratio");
  return rep;
}

}  // namespace perfbench
