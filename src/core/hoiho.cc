#include "core/hoiho.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>

#include "core/delta.h"
#include "core/ncb.h"
#include "io/checkpoint.h"
#include "util/sysinfo.h"
#include "util/thread_pool.h"

namespace hoiho::core {

std::size_t HoihoResult::geolocated_router_count() const {
  std::vector<topo::RouterId> routers;
  for (const SuffixResult& sr : suffixes) {
    if (!sr.usable()) continue;
    for (std::size_t i = 0; i < sr.eval.per_hostname.size(); ++i) {
      if (sr.eval.per_hostname[i].outcome == Outcome::kTP)
        routers.push_back(sr.tagged[i].ref.router);
    }
  }
  std::sort(routers.begin(), routers.end());
  routers.erase(std::unique(routers.begin(), routers.end()), routers.end());
  return routers.size();
}

std::size_t HoihoResult::count(NcClass c) const {
  std::size_t n = 0;
  for (const SuffixResult& sr : suffixes)
    if (sr.has_nc() && sr.cls == c) ++n;
  return n;
}

std::string RunReport::to_json(std::string_view indent) const {
  const std::string pad(indent);
  std::string out = "{\n";
  out += pad + "  \"metrics\": " + metrics.to_json(pad + "  ") + ",\n";
  out += pad + "  \"spans\": " + obs::to_json(spans, pad + "  ") + ",\n";
  out += pad + "  \"dropped_spans\": " + std::to_string(dropped_spans) + "\n";
  out += pad + "}";
  return out;
}

// Registry handles for the pipeline counters, resolved once per call so the
// per-suffix hot path only pays relaxed adds. All handles live in the
// config's registry and stay valid for its lifetime.
struct Hoiho::PipelineMetrics {
  obs::Registry* registry;  // for per-worker gauges resolved at fold time
  obs::Counter suffixes, suffixes_skipped, suffixes_usable;
  obs::Counter hostnames, tagged_hostnames;
  obs::Counter candidates_generated, ncs_built, learned_hints;
  obs::Counter stage_us_tag, stage_us_regex, stage_us_eval, stage_us_learn;
  obs::Counter cache_hits, cache_misses, cache_prefilter_rejects, cache_bypasses;
  obs::Counter rx_subjects, rx_candidates, rx_programs_run, rx_hits, rx_programs_compiled;
  obs::Counter budget_exhausted;
  obs::Counter pool_tasks_stolen, pool_steal_failures, pool_worker_stalled;
  obs::Counter stream_batches;
  obs::Counter checkpoint_batches_committed, checkpoint_batches_resumed;
  obs::Counter checkpoint_results_resumed, checkpoint_commit_failures, checkpoint_discarded;
  obs::Counter model_save_failures;
  obs::Counter delta_dirty, delta_reused, delta_added, delta_removed, delta_relearn_us;
  obs::Gauge grid_cells;
  obs::Gauge pool_tasks_submitted, pool_tasks_executed;
  obs::Gauge peak_rss_bytes;
  obs::Histogram suffix_ns, pool_queue_wait_ns;

  explicit PipelineMetrics(obs::Registry& r)
      : registry(&r),
        suffixes(r.counter("pipeline_suffixes")),
        suffixes_skipped(r.counter("pipeline_suffixes_skipped")),
        suffixes_usable(r.counter("pipeline_suffixes_usable")),
        hostnames(r.counter("pipeline_hostnames")),
        tagged_hostnames(r.counter("pipeline_tagged_hostnames")),
        candidates_generated(r.counter("pipeline_candidates_generated")),
        ncs_built(r.counter("pipeline_ncs_built")),
        learned_hints(r.counter("pipeline_learned_hints")),
        stage_us_tag(r.counter("pipeline_stage_us{stage=\"tag\"}")),
        stage_us_regex(r.counter("pipeline_stage_us{stage=\"regex_gen\"}")),
        stage_us_eval(r.counter("pipeline_stage_us{stage=\"eval\"}")),
        stage_us_learn(r.counter("pipeline_stage_us{stage=\"learn\"}")),
        cache_hits(r.counter("consistency_cache_hits")),
        cache_misses(r.counter("consistency_cache_misses")),
        cache_prefilter_rejects(r.counter("consistency_cache_prefilter_rejects")),
        cache_bypasses(r.counter("consistency_cache_bypasses")),
        rx_subjects(r.counter("rx_set_subjects")),
        rx_candidates(r.counter("rx_set_candidates")),
        rx_programs_run(r.counter("rx_set_programs_run")),
        rx_hits(r.counter("rx_set_hits")),
        rx_programs_compiled(r.counter("rx_programs_compiled")),
        budget_exhausted(r.counter("pipeline_budget_exhausted")),
        pool_tasks_stolen(r.counter("pool_tasks_stolen")),
        pool_steal_failures(r.counter("pool_steal_failures")),
        pool_worker_stalled(r.counter("pool_worker_stalled")),
        stream_batches(r.counter("pipeline_stream_batches")),
        checkpoint_batches_committed(r.counter("checkpoint_batches_committed")),
        checkpoint_batches_resumed(r.counter("checkpoint_batches_resumed")),
        checkpoint_results_resumed(r.counter("checkpoint_results_resumed")),
        checkpoint_commit_failures(r.counter("checkpoint_commit_failures")),
        checkpoint_discarded(r.counter("checkpoint_discarded")),
        model_save_failures(r.counter("pipeline_model_save_failures")),
        delta_dirty(r.counter("delta_suffixes_dirty")),
        delta_reused(r.counter("delta_suffixes_reused")),
        delta_added(r.counter("delta_suffixes_added")),
        delta_removed(r.counter("delta_suffixes_removed")),
        delta_relearn_us(r.counter("delta_relearn_us")),
        grid_cells(r.gauge("pipeline_expected_rtt_grid_cells")),
        pool_tasks_submitted(r.gauge("pipeline_pool_tasks_submitted")),
        pool_tasks_executed(r.gauge("pipeline_pool_tasks_executed")),
        peak_rss_bytes(r.gauge("pipeline_peak_rss_bytes")),
        suffix_ns(r.histogram("pipeline_suffix_ns")),
        pool_queue_wait_ns(r.histogram("pool_queue_wait_ns")) {}

  // Folds one pool's stats into the registry: the aggregate counters plus a
  // per-worker depth/executed gauge pair, labelled by worker index. The
  // labelled gauges replace the old single pipeline_pool_max_queue_depth
  // gauge — a shared high-water mark hid which deque actually backed up.
  void fold_pool(const util::WorkStealingPool::Stats& ps) {
    pool_tasks_submitted.add(static_cast<std::int64_t>(ps.submitted));
    pool_tasks_executed.add(static_cast<std::int64_t>(ps.executed));
    pool_tasks_stolen.add(ps.tasks_stolen);
    pool_steal_failures.add(ps.steal_failures);
    for (std::size_t w = 0; w < ps.workers.size(); ++w) {
      const std::string label = "{worker=\"" + std::to_string(w) + "\"}";
      obs::Gauge depth = registry->gauge("pipeline_pool_max_queue_depth" + label);
      depth.set(std::max(depth.load(), static_cast<std::int64_t>(ps.workers[w].max_queue_depth)));
      registry->gauge("pipeline_pool_worker_executed" + label)
          .add(static_cast<std::int64_t>(ps.workers[w].executed));
    }
  }
};

// Wall time per pipeline stage of one suffix run, fed into the
// pipeline_stage_us counters.
struct Hoiho::StageTimes {
  double tag_ms = 0;    // stage 2: apparent-geohint tagging
  double regex_ms = 0;  // stage 3 generation: base + merge + class embedding
  double eval_ms = 0;   // stage 3 scoring: candidate ranking + NC building
  double learn_ms = 0;  // stage 4: geohint learning + re-evaluation
};

std::shared_ptr<const measure::ExpectedRttGrid> Hoiho::expected_rtt_grid(
    const measure::Measurements& meas) const {
  if (!config_.expected_rtt_grid || meas.vps.empty() ||
      dict_.size() * meas.vps.size() > config_.max_grid_cells) {
    return nullptr;
  }
  GridCache& gc = *grid_cache_;
  const std::scoped_lock lock(gc.mu);
  const auto same_vps = [&] {
    if (gc.vp_coords.size() != meas.vps.size()) return false;
    for (std::size_t i = 0; i < gc.vp_coords.size(); ++i)
      if (!(gc.vp_coords[i] == meas.vps[i].coord)) return false;
    return true;
  };
  if (gc.grid == nullptr || !same_vps()) {
    gc.grid = std::make_shared<measure::ExpectedRttGrid>(dict_, meas.vps);
    gc.vp_coords.clear();
    for (const measure::VantagePoint& vp : meas.vps) gc.vp_coords.push_back(vp.coord);
  }
  return gc.grid;
}

SuffixResult Hoiho::run_suffix(const topo::SuffixGroup& group,
                               const measure::Measurements& meas) const {
  return run_suffix_instrumented(group, meas, nullptr, nullptr);
}

SuffixResult Hoiho::run_suffix_instrumented(const topo::SuffixGroup& group,
                                            const measure::Measurements& meas,
                                            PipelineMetrics* pm, obs::Tracer* tracer) const {
  const std::uint64_t t0 = obs::Tracer::now_ns();
  obs::Span span(tracer, "suffix", group.suffix);
  span.set_work(group.hostnames.size());

  SuffixResult result;
  StageTimes stages;
  measure::ConsistencyCache::Stats cache_stats;
  if (!config_.consistency_cache) {
    result = run_suffix_impl(group, meas, nullptr, pm, tracer, stages);
  } else {
    // One cache per suffix run, shared by stages 2-4. The cache is used from
    // this thread only; cross-suffix parallelism in run() gives each worker
    // its own cache. The expected-RTT grid behind it IS shared across
    // workers (immutable once built).
    const std::shared_ptr<const measure::ExpectedRttGrid> grid = expected_rtt_grid(meas);
    measure::ConsistencyCache cache(meas, dict_.size(), config_.apparent.slack_ms,
                                    /*prefilter=*/true, grid.get());
    result = run_suffix_impl(group, meas, &cache, pm, tracer, stages);
    cache_stats = cache.stats();
  }
  // Stamp the content fingerprint on every path (skipped suffixes too):
  // incremental runs diff against it, and a prior entry without one would
  // read as always-dirty.
  result.fingerprint = suffix_fingerprint(group, meas);

  if (pm != nullptr) {
    pm->suffixes.inc();
    pm->hostnames.add(result.hostname_count);
    pm->tagged_hostnames.add(result.tagged_count);
    if (result.usable()) pm->suffixes_usable.inc();
    pm->learned_hints.add(result.learned.size());
    pm->budget_exhausted.add(result.eval.counts.budget_exhausted);
    pm->stage_us_tag.add(static_cast<std::uint64_t>(stages.tag_ms * 1e3));
    pm->stage_us_regex.add(static_cast<std::uint64_t>(stages.regex_ms * 1e3));
    pm->stage_us_eval.add(static_cast<std::uint64_t>(stages.eval_ms * 1e3));
    pm->stage_us_learn.add(static_cast<std::uint64_t>(stages.learn_ms * 1e3));
    pm->cache_hits.add(cache_stats.hits);
    pm->cache_misses.add(cache_stats.misses);
    pm->cache_prefilter_rejects.add(cache_stats.prefilter_rejects);
    pm->cache_bypasses.add(cache_stats.bypasses);
    pm->suffix_ns.observe(static_cast<double>(obs::Tracer::now_ns() - t0));
  }
  return result;
}

namespace {

// Accumulates wall time into a StageTimes field across interleaved stages.
class Stopwatch {
 public:
  explicit Stopwatch(double& sink) : sink_(sink), t0_(std::chrono::steady_clock::now()) {}
  ~Stopwatch() {
    sink_ += std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0_)
                 .count();
  }

 private:
  double& sink_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

SuffixResult Hoiho::run_suffix_impl(const topo::SuffixGroup& group,
                                    const measure::Measurements& meas,
                                    measure::ConsistencyCache* cache, PipelineMetrics* pm,
                                    obs::Tracer* tracer, StageTimes& stages) const {
  SuffixResult result;
  result.suffix = group.suffix;
  result.hostname_count = group.hostnames.size();

  // Stage 2: tag apparent geohints.
  {
    const Stopwatch sw(stages.tag_ms);
    obs::Span span(tracer, "tag", group.suffix);
    span.set_work(group.hostnames.size());
    const ApparentTagger tagger(dict_, meas, config_.apparent, cache);
    result.tagged = tagger.tag_all(group.hostnames);
  }
  for (const TaggedHostname& th : result.tagged)
    if (th.has_hint()) ++result.tagged_count;
  if (result.tagged_count < config_.min_tagged_hostnames) {
    if (pm != nullptr) pm->suffixes_skipped.inc();
    return result;
  }

  Evaluator evaluator(dict_, meas, config_.apparent.slack_ms, cache);
  evaluator.set_use_compiled(config_.compiled_regex);
  // Fold the evaluator's set-matching work into the registry on every exit
  // path (the evaluator dies with this frame).
  struct EvalObsFold {
    PipelineMetrics* pm;
    const Evaluator& ev;
    ~EvalObsFold() {
      if (pm == nullptr) return;
      const rx::MatchStats& ms = ev.match_stats();
      pm->rx_subjects.add(ms.subjects);
      pm->rx_candidates.add(ms.candidates);
      pm->rx_programs_run.add(ms.programs_run);
      pm->rx_hits.add(ms.hits);
      pm->rx_programs_compiled.add(ev.compiled_program_count());
    }
  } eval_fold{pm, evaluator};

  // Stage 3 phase 1: base regexes, seeded from a bounded prefix of the
  // tagged hostnames.
  GenConfig gen_config = config_.gen;
  gen_config.compiled_matcher = config_.compiled_regex;
  const RegexGenerator generator(gen_config);
  std::vector<GeoRegex> candidates;
  {
    const Stopwatch sw(stages.regex_ms);
    obs::Span span(tracer, "regex_gen", group.suffix);
    std::vector<TaggedHostname> seeds;
    for (const TaggedHostname& th : result.tagged) {
      if (!th.has_hint()) continue;
      seeds.push_back(th);
      if (seeds.size() >= config_.max_seed_hostnames) break;
    }
    candidates = generator.generate_base(seeds);
    span.set_work(candidates.size());
    if (pm != nullptr) pm->candidates_generated.add(candidates.size());
  }
  if (candidates.empty()) return result;

  // Rank base candidates by ATP and prune — the whole set is scored in one
  // SetMatcher pass per hostname. The survivors' evaluations are kept and
  // handed to the NC builder, which then only scores the regexes that
  // merge/embed add below them.
  std::vector<NcEvaluation> base_evals;
  {
    const Stopwatch sw(stages.eval_ms);
    obs::Span span(tracer, "eval", group.suffix);
    span.set_work(candidates.size());
    std::vector<NcEvaluation> evals = evaluator.evaluate_candidates(candidates, result.tagged);
    struct Ranked {
      GeoRegex gr;
      NcEvaluation eval;
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
    if (ranked.size() > config_.max_candidates) ranked.resize(config_.max_candidates);
    candidates.clear();
    base_evals.reserve(ranked.size());
    for (Ranked& r : ranked) {
      candidates.push_back(std::move(r.gr));
      base_evals.push_back(std::move(r.eval));
    }
  }
  if (candidates.empty()) return result;

  {
    const Stopwatch sw(stages.regex_ms);
    obs::Span span(tracer, "regex_gen", group.suffix);
    // Stage 3 phase 2: merge similar regexes.
    {
      const std::vector<GeoRegex> merged = generator.merge(candidates);
      candidates.insert(candidates.end(), merged.begin(), merged.end());
    }
    // Stage 3 phase 3: embed character classes.
    {
      std::vector<GeoRegex> refined;
      for (const GeoRegex& gr : candidates) {
        if (auto r = generator.embed_classes(gr, result.tagged)) refined.push_back(std::move(*r));
      }
      candidates.insert(candidates.end(), refined.begin(), refined.end());
    }
    dedup_regexes(candidates);
  }

  // Stage 3 phase 4: build candidate NCs.
  const NcBuilder builder(evaluator, config_.sets);
  std::vector<NcBuilder::Candidate> ncs;
  {
    const Stopwatch sw(stages.eval_ms);
    obs::Span span(tracer, "eval", group.suffix);
    // The pruned base regexes sit (deduplicated, in rank order) at the front
    // of `candidates`: merge/embed only append, and dedup keeps first
    // occurrences, so base_evals still lines up with the prefix.
    ncs = builder.build(group.suffix, std::move(candidates), result.tagged,
                        std::move(base_evals));
    span.set_work(ncs.size());
    if (pm != nullptr) pm->ncs_built.add(ncs.size());
  }
  if (ncs.empty()) return result;

  // Stage 4: learn operator geohints for the top candidates, then
  // re-evaluate them (learning can reorder the ranking).
  std::vector<std::vector<LearnedHint>> learned_per(ncs.size());
  if (config_.enable_learning) {
    const Stopwatch sw(stages.learn_ms);
    obs::Span span(tracer, "learn", group.suffix);
    const GeohintLearner learner(evaluator, config_.learn);
    const std::size_t n = std::min(ncs.size(), config_.learn_top_n);
    for (std::size_t i = 0; i < n; ++i) {
      learned_per[i] = learner.learn(ncs[i].nc, result.tagged, ncs[i].eval);
      span.add_work(learned_per[i].size());
      if (!learned_per[i].empty()) ncs[i].eval = evaluator.evaluate(ncs[i].nc, result.tagged);
    }
    std::vector<std::size_t> order(ncs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ncs[a].eval.counts.atp() > ncs[b].eval.counts.atp();
    });
    std::vector<NcBuilder::Candidate> ncs2;
    std::vector<std::vector<LearnedHint>> learned2;
    for (std::size_t idx : order) {
      ncs2.push_back(std::move(ncs[idx]));
      learned2.push_back(std::move(learned_per[idx]));
    }
    ncs = std::move(ncs2);
    learned_per = std::move(learned2);
  }

  // Stage 5: select and classify.
  const NcBuilder::Candidate* best = select_best(ncs, config_.rank);
  if (best == nullptr) return result;
  const std::size_t best_idx = static_cast<std::size_t>(best - ncs.data());
  result.nc = best->nc;
  result.eval = best->eval;
  result.learned = learned_per[best_idx];
  result.cls = classify(result.eval, config_.rank);
  return result;
}

// One learning call (run, run_stream or run_delta): the registry handles,
// the tracer and, when more than one worker would run, the work-stealing
// pool. Workers are clamped to min(threads, task bound, hardware): suffix
// learning is CPU-bound, so workers beyond the core count only add
// preemption (measurably pessimizing small corpora on 1-core hosts), and
// output is threads-invariant, so the clamp is unobservable in results.
// The pool lives for the whole call — run_stream reuses it for every batch —
// and its stats are folded into the registry when the call ends.
struct Hoiho::Pass {
  std::optional<PipelineMetrics> metrics;
  PipelineMetrics* pm = nullptr;
  obs::Tracer* tracer;
  std::optional<util::WorkStealingPool> pool;

  Pass(const HoihoConfig& config, std::size_t max_tasks) : tracer(config.tracer) {
    if (config.registry != nullptr) pm = &metrics.emplace(*config.registry);
    const std::size_t threads = std::min({util::WorkStealingPool::resolve(config.threads),
                                          max_tasks, util::WorkStealingPool::resolve(0)});
    if (threads > 1) {
      pool.emplace(threads);
      if (pm != nullptr) pool->set_queue_wait_histogram(pm->pool_queue_wait_ns);
    }
  }
  ~Pass() {
    if (pool && pm != nullptr) pm->fold_pool(pool->stats());
  }
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;
};

std::vector<SuffixResult> Hoiho::learn(Pass& pass,
                                       std::span<const topo::SuffixGroup* const> groups,
                                       const measure::Measurements& meas,
                                       const std::function<void()>& overlap) const {
  PipelineMetrics* pm = pass.pm;
  if (pm != nullptr && config_.consistency_cache) {
    // Build the shared grid up front (the workers would race to the same
    // build anyway) so its size is on record even with nothing to learn.
    // Every batch of a campaign shares its VP set, so later calls hit the
    // memo.
    if (const auto grid = expected_rtt_grid(meas))
      pm->grid_cells.set(static_cast<std::int64_t>(grid->location_count() * grid->vp_count()));
  }

  // Suffix runs are independent: each reads only the shared const inputs
  // (dictionary, groups, measurements) and writes its own slot, so results
  // land in group order whichever worker ran them.
  std::vector<SuffixResult> slots(groups.size());
  const auto learn_one = [&](std::size_t i) {
    slots[i] = run_suffix_instrumented(*groups[i], meas, pm, pass.tracer);
  };
  if (!pass.pool) {
    for (std::size_t i = 0; i < groups.size(); ++i) learn_one(i);
    if (overlap) overlap();
  } else {
    // Suffix sizes are heavily skewed (one consumer ISP next to dozens of
    // small operators), so tasks are seeded cost-descending: every worker
    // starts on one of the k largest suffixes, and whoever drains first
    // steals the smallest remaining task from a neighbour instead of idling.
    std::vector<std::size_t> order(groups.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return groups[a]->hostnames.size() > groups[b]->hostnames.size();
    });
    std::vector<std::function<void()>> tasks;
    tasks.reserve(order.size());
    for (std::size_t idx : order) tasks.push_back([&learn_one, idx] { learn_one(idx); });
    util::WorkStealingPool& pool = *pass.pool;
    pool.seed(std::move(tasks));
    // The workers only touch `groups`; whatever `overlap` touches stays on
    // this thread.
    if (overlap) overlap();
    if (config_.worker_stall_ms > 0) {
      // Watchdog: surface workers stuck on one suffix (one episode per
      // task) instead of blocking silently.
      while (!pool.wait_idle_for(std::chrono::milliseconds(config_.worker_stall_ms))) {
        const std::size_t stalled =
            pool.scan_stalled(static_cast<std::uint64_t>(config_.worker_stall_ms));
        if (pm != nullptr) pm->pool_worker_stalled.add(stalled);
      }
    } else {
      pool.wait_idle();
    }
  }
  if (pm != nullptr) {
    pm->peak_rss_bytes.set(
        std::max(pm->peak_rss_bytes.load(), static_cast<std::int64_t>(util::peak_rss_bytes())));
  }
  return slots;
}

namespace {

std::vector<const topo::SuffixGroup*> addresses(const std::vector<topo::SuffixGroup>& groups) {
  std::vector<const topo::SuffixGroup*> out;
  out.reserve(groups.size());
  for (const topo::SuffixGroup& g : groups) out.push_back(&g);
  return out;
}

// Per-hostname payloads point into whatever owns the hostnames (a stream
// batch, a change feed); strip them so streamed and merged results are both
// safe and small (aggregate counts, the NC, learned hints, and the class
// survive).
void compact(SuffixResult& sr) {
  std::vector<TaggedHostname>().swap(sr.tagged);
  std::vector<HostnameEval>().swap(sr.eval.per_hostname);
}

// Fingerprints every config knob that changes learned output
// (learn_signature, shared with incremental relearning) plus the stream
// identity, so a checkpoint written under one config/world never resumes
// under another. Output-invariant knobs (threads, caches, compiled_regex,
// observability pointers) are excluded by learn_signature.
std::uint64_t checkpoint_signature(const HoihoConfig& c, const io::SuffixStream& stream,
                                   std::size_t dict_size) {
  io::StreamSignature sig;
  sig.mix(learn_signature(c, dict_size)).mix(stream.signature());
  return sig.value();
}

}  // namespace

HoihoResult Hoiho::run(const topo::Topology& topo, const measure::Measurements& meas) const {
  obs::Span run_span(config_.tracer, "run");
  const std::vector<topo::SuffixGroup> groups = topo.group_by_suffix();
  run_span.set_work(groups.size());
  Pass pass(config_, groups.size());
  std::vector<SuffixResult> slots = learn(pass, addresses(groups), meas);

  HoihoResult result;
  for (SuffixResult& sr : slots)
    if (sr.hostname_count > 0) result.suffixes.push_back(std::move(sr));
  return result;
}

HoihoResult Hoiho::run_stream(io::SuffixStream& stream) const {
  // Batch sizes vary, so only threads and hardware bound the workers.
  Pass pass(config_, std::numeric_limits<std::size_t>::max());
  PipelineMetrics* pm = pass.pm;
  obs::Span run_span(config_.tracer, "run_stream");
  HoihoResult result;

  // Durability (DESIGN.md §14): commit every batch's compacted results to a
  // WAL + manifest, and resume after the last committed batch when the
  // directory already holds a checkpoint for this exact config and stream.
  std::optional<io::Checkpoint> ckpt;
  std::size_t skip_batches = 0;
  if (!config_.checkpoint_dir.empty()) {
    ckpt.emplace(config_.checkpoint_dir, checkpoint_signature(config_, stream, dict_.size()),
                 dict_);
    io::Checkpoint::Resume resume = ckpt->open();
    if (pm != nullptr) {
      if (resume.discarded) pm->checkpoint_discarded.inc();
      pm->checkpoint_batches_resumed.add(resume.batches);
      pm->checkpoint_results_resumed.add(resume.results.size());
    }
    skip_batches = resume.batches;
    result.suffixes = std::move(resume.results);
  }

  std::size_t total_suffixes = 0;
  bool truncated = false;  // a commit failure cut the run short mid-stream
  std::optional<io::SuffixBatch> batch = stream.next_batch();
  // Replay the stream past already-committed batches: the stream is
  // deterministic (signature-checked), so batch k regenerated now is the
  // batch k whose results the WAL already holds.
  while (skip_batches > 0 && batch) {
    --skip_batches;
    batch = stream.next_batch();
  }
  while (batch) {
    total_suffixes += batch->groups.size();
    // Double buffering: this thread renders batch k+1 while the workers
    // learn batch k.
    std::optional<io::SuffixBatch> next;
    std::vector<SuffixResult> slots = learn(pass, addresses(batch->groups), batch->pings,
                                            [&] { next = stream.next_batch(); });

    const std::size_t batch_begin = result.suffixes.size();
    for (SuffixResult& sr : slots) {
      if (sr.hostname_count == 0) continue;
      compact(sr);
      result.suffixes.push_back(std::move(sr));
    }
    if (ckpt) {
      std::string err;
      if (ckpt->commit_batch(
              std::span<const SuffixResult>(result.suffixes).subspan(batch_begin), &err)) {
        if (pm != nullptr) pm->checkpoint_batches_committed.inc();
      } else {
        // Durability-first: drop the uncommitted batch and stop — exactly
        // the state a crash at this boundary leaves, so a rerun resumes
        // here and relearns only this batch.
        if (pm != nullptr) pm->checkpoint_commit_failures.inc();
        result.suffixes.resize(batch_begin);
        truncated = true;
        break;
      }
    }
    if (pm != nullptr) pm->stream_batches.inc();
    batch = std::move(next);
  }
  run_span.set_work(total_suffixes);

  // Emit the serving model straight from the learner (extension picks the
  // format, ".ncb" → binary) — no convert step between learning and
  // serving. A truncated run holds a prefix of the stream, not the model
  // the caller asked for, so it does not overwrite a previous good file.
  if (!config_.model_out.empty() && !truncated) {
    std::vector<StoredConvention> stored;
    stored.reserve(result.suffixes.size());
    for (const SuffixResult& sr : result.suffixes)
      if (sr.has_nc()) stored.push_back(StoredConvention{sr.nc, sr.cls});
    // Canonical (suffix-sorted) order: what makes delta application
    // byte-identical to a from-scratch save (core/delta.h).
    sort_conventions(stored);
    std::string err;
    if (!save_model_to_file(config_.model_out, stored, dict_, &err)) {
      if (pm != nullptr) pm->model_save_failures.inc();
    }
  }

  if (config_.registry != nullptr) stream.report().publish(*config_.registry, "stream");
  return result;
}

DeltaRunReport Hoiho::run_delta(const WorldDelta& world, const PriorRun& prior) const {
  DeltaRunReport report;
  obs::Span run_span(config_.tracer, "run_delta");
  const std::vector<topo::SuffixGroup>& groups = world.changed.groups;
  const measure::Measurements& meas = world.changed.pings;
  run_span.set_work(groups.size());

  // Compatibility gates: a prior run under a different learner config or a
  // different VP campaign cannot seed reuse — the expected-RTT geometry
  // moved under every suffix, so the caller must fall back to a full run.
  const std::uint64_t sig = learn_signature(config_, dict_.size());
  if (prior.learn_sig != 0 && prior.learn_sig != sig) {
    report.error = "prior run learner-config signature mismatch (full relearn required)";
    return report;
  }
  if (!groups.empty() && prior.vp_hash != 0 &&
      vp_set_hash(meas.vps) != prior.vp_hash) {
    report.error = "vantage-point set changed since the prior run (full relearn required)";
    return report;
  }
  std::unordered_set<std::string_view> removed_set(world.removed.begin(), world.removed.end());
  for (const topo::SuffixGroup& g : groups)
    if (removed_set.contains(g.suffix)) {
      report.error = "suffix '" + g.suffix + "' both changed and removed";
      return report;
    }

  // Diff: fingerprint every incoming group; an unchanged fingerprint means
  // the prior result (and all its ConsistencyCache/eval work) is reused
  // verbatim. A prior fingerprint of 0 (pre-fingerprint checkpoint) never
  // matches — unknown content is always dirty.
  std::vector<const topo::SuffixGroup*> dirty;
  for (const topo::SuffixGroup& g : groups) {
    const SuffixResult* prev = prior.find(g.suffix);
    if (prev != nullptr && prev->fingerprint != 0 &&
        prev->fingerprint == suffix_fingerprint(g, meas))
      ++report.reused;
    else
      dirty.push_back(&g);
  }

  // Relearn only the dirty suffixes; the shared expected-RTT grid memo
  // serves every rerun.
  const auto t_relearn = std::chrono::steady_clock::now();
  Pass pass(config_, dirty.size());
  std::vector<SuffixResult> fresh = learn(pass, dirty, meas);
  report.dirty = dirty.size();
  report.relearn_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t_relearn)
          .count();

  // Merge: prior order with dirty results swapped in and removals dropped;
  // brand-new suffixes append in group order. Fresh results are compacted
  // like run_stream's so chained PriorRuns stay bounded.
  std::unordered_map<std::string_view, std::size_t> fresh_by_suffix;
  fresh_by_suffix.reserve(fresh.size());
  for (std::size_t k = 0; k < fresh.size(); ++k) fresh_by_suffix[dirty[k]->suffix] = k;
  report.delta.base_generation = prior.generation;
  std::vector<char> fresh_used(fresh.size(), 0);
  report.result.suffixes.reserve(prior.results.size() + groups.size());
  for (const SuffixResult& prev : prior.results) {
    if (removed_set.contains(prev.suffix)) {
      ++report.removed;
      if (prev.has_nc()) report.delta.removes.push_back(prev.suffix);
      continue;
    }
    const auto fit = fresh_by_suffix.find(prev.suffix);
    if (fit != fresh_by_suffix.end()) {
      SuffixResult& nr = fresh[fit->second];
      fresh_used[fit->second] = 1;
      if (nr.hostname_count == 0) {  // run() drops empty groups; so does the merge
        ++report.removed;
        if (prev.has_nc()) report.delta.removes.push_back(prev.suffix);
        continue;
      }
      if (nr.has_nc())
        report.delta.upserts.push_back(StoredConvention{nr.nc, nr.cls});
      else if (prev.has_nc())
        report.delta.removes.push_back(prev.suffix);  // lost its convention
      compact(nr);
      report.result.suffixes.push_back(std::move(nr));
      continue;
    }
    report.result.suffixes.push_back(prev);  // untouched or fingerprint-reused
  }
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    if (fresh_used[k]) continue;
    SuffixResult& nr = fresh[k];
    if (nr.hostname_count == 0) continue;
    ++report.added;
    if (nr.has_nc()) report.delta.upserts.push_back(StoredConvention{nr.nc, nr.cls});
    compact(nr);
    report.result.suffixes.push_back(std::move(nr));
  }
  // Canonical order (core/delta.h): merge-by-suffix application stays
  // byte-identical to a from-scratch save.
  sort_conventions(report.delta.upserts);
  std::sort(report.delta.removes.begin(), report.delta.removes.end());

  if (pass.pm != nullptr) {
    pass.pm->delta_dirty.add(report.dirty);
    pass.pm->delta_reused.add(report.reused);
    pass.pm->delta_added.add(report.added);
    pass.pm->delta_removed.add(report.removed);
    pass.pm->delta_relearn_us.add(static_cast<std::uint64_t>(report.relearn_wall_ms * 1e3));
  }
  return report;
}

RunReport Hoiho::reported(const std::function<HoihoResult(const Hoiho&)>& body) const {
  std::optional<obs::Registry> own_registry;
  std::optional<obs::Tracer> own_tracer;
  Hoiho h = *this;
  if (h.config_.registry == nullptr) h.config_.registry = &own_registry.emplace();
  if (h.config_.tracer == nullptr) h.config_.tracer = &own_tracer.emplace();

  RunReport report;
  report.result = body(h);
  report.metrics = h.config_.registry->snapshot();
  report.spans = h.config_.tracer->spans();
  report.dropped_spans = h.config_.tracer->dropped();
  return report;
}

RunReport Hoiho::run_report(const topo::Topology& topo,
                            const measure::Measurements& meas) const {
  return reported([&](const Hoiho& h) { return h.run(topo, meas); });
}

RunReport Hoiho::run_stream_report(io::SuffixStream& stream) const {
  return reported([&](const Hoiho& h) { return h.run_stream(stream); });
}

}  // namespace hoiho::core
