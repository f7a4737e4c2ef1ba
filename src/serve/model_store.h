// Hot-reloadable model storage for the serving subsystem.
//
// A ModelStore turns a saved convention file (core/nc_io format) into an
// immutable ModelSnapshot — a fully-built Geolocator plus provenance —
// published behind a mutex-guarded shared_ptr (one uncontended lock per
// current() call; the server takes one snapshot per request batch, so the
// lock is off the per-lookup path). Readers grab the current snapshot and
// keep lookups on it even while a reload swaps in a successor, so a reload
// never drops or torn-reads a request:
//
//   reader:  auto snap = store.current();   // refcount pins the model
//            snap->geolocator.locate(...)   // const, thread-safe
//   admin:   store.reload()                 // builds aside, swaps atomically
//
// Failed reloads (missing file, malformed model) keep the previous snapshot
// serving and report the error; there is no window with no model installed.
//
// Since the incremental-relearning redesign (DESIGN.md §16) the store's
// public surface is generation-addressed rather than file-addressed: every
// way a model can change — reload(), install(), rollback(), apply_delta()
// — routes through one publish(snapshot, options) pipeline that numbers,
// canary-gates, swaps, and archives the generation. apply_delta() takes a
// core::ModelDelta (the learner's run_delta output, or a delta file) and
// builds the successor snapshot by structural sharing: unchanged suffixes
// keep the base generation's compiled matchers (for an mmap'd ncb base,
// views into the base mapping, which the new snapshot pins), so the apply
// cost scales with the delta, not the model.
#pragma once

#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/geolocate.h"
#include "core/nc_io.h"
#include "core/ncb.h"
#include "fuse/fuser.h"
#include "geo/dictionary.h"
#include "serve/metrics.h"

namespace hoiho::serve {

// One immutable, reference-counted model generation.
struct ModelSnapshot {
  core::Geolocator geolocator;
  std::uint64_t generation = 0;      // monotonically increasing per install
  std::size_t convention_count = 0;  // usable conventions actually added
  std::size_t program_count = 0;     // compiled regex programs prebuilt in add()
  std::string source;                // file path or "<memory>"
  std::string format = "text";       // "text" | "ncb" | "ncb_mmap"
  std::vector<std::string> warnings; // loader notes (dropped hints, dupes)

  // The full stored convention list (kPoor included — the serialized model
  // keeps them even though the Geolocator skips them), in canonical
  // suffix-sorted order. This is what apply_delta merges against and what
  // re-serializes byte-identically for the archive. Text loads and
  // install() populate it eagerly; an ncb base leaves it empty and the
  // first apply_delta materializes it via NcbModel::to_stored().
  std::vector<core::StoredConvention> stored;

  // When the snapshot was built from a binary model, this pins the mapping
  // (or aligned buffer) the Geolocator's matchers are views over. Must
  // outlive the geolocator member — declared after it, destroyed first is
  // fine because the matchers also hold their own keepalives; this handle
  // additionally lets admin surfaces report bytes_mapped().
  std::shared_ptr<const core::NcbModel> ncb;

  // Measurement-side context for the GEO verb (null = hostname-only
  // fusion). Shared across generations: a model reload keeps the context,
  // a set_fuse_context() republishes the model (RTT campaigns and models
  // churn on different cadences).
  std::shared_ptr<const fuse::FuseContext> fuse;

  explicit ModelSnapshot(const geo::GeoDictionary& dict) : geolocator(dict) {}
};

class ModelStore {
 public:
  // `path` may be empty for stores fed only via install() (tests, benches).
  // Construction installs an empty generation-0 snapshot; call reload() to
  // load the file.
  explicit ModelStore(const geo::GeoDictionary& dict, std::string path = {});

  // The current snapshot; never null. Safe from any thread.
  std::shared_ptr<const ModelSnapshot> current() const {
    std::lock_guard lock(snap_mu_);
    return snap_;
  }

  // Re-reads the model file and atomically swaps in the new snapshot.
  // Returns the error message on failure (previous snapshot stays current).
  // Serialized internally; safe from any thread.
  std::optional<std::string> reload();

  // Installs an in-memory model (conventions classified kPoor are skipped,
  // matching the daemon's file path). Always succeeds.
  void install(const std::vector<core::StoredConvention>& conventions,
               std::string source = "<memory>");

  // Attaches (or replaces, or clears with null) the fusion context every
  // snapshot carries. The current snapshot is republished with the new
  // context under a fresh generation, so readers that pin a snapshot see a
  // consistent (model, context) pair; subsequent reload()s inherit it.
  void set_fuse_context(std::shared_ptr<const fuse::FuseContext> ctx);

  // One mtime-watch poll step (what --watch-ms drives). Deploys rewrite the
  // model via rename(), so a poll can land mid-deploy: the file may be
  // transiently missing or still being written. Rather than treating either
  // as a failed reload (and logging every poll), the watcher:
  //   - reports kMissing while the file is absent — not an error, no reload;
  //   - debounces: a new mtime must be observed identical on two consecutive
  //     polls before a reload is attempted (kDebounced while waiting);
  //   - reloads only then, so a failure is reported once per file change,
  //     not once per poll.
  // Comparison uses nanosecond mtime (st_mtim), so back-to-back rewrites
  // within the same second are still detected.
  enum class WatchOutcome { kUnchanged, kMissing, kDebounced, kReloaded, kReloadFailed };
  WatchOutcome poll_watch(std::string* error = nullptr);

  // --- Generation-addressed publishing (DESIGN.md §16) ---

  // Knobs for one publish. Defaults match reload(): canary-gated, archived
  // when archive_bytes is non-empty.
  struct PublishOptions {
    bool bypass_canary = false;        // install()/rollback(): operator actions
    std::string_view archive_bytes{};  // serialized model for the lineage archive
  };

  // The single pipeline every model change goes through: canary-gate the
  // candidate (unless bypassed), assign the next generation number, swap it
  // in for readers, archive the bytes, and update model lifecycle metrics.
  // On rejection the serving snapshot is untouched and the error names the
  // divergence. *new_generation (if non-null) receives the published number.
  std::optional<std::string> publish(std::shared_ptr<ModelSnapshot> snap,
                                     const PublishOptions& opts,
                                     std::uint64_t* new_generation = nullptr);
  std::optional<std::string> publish(std::shared_ptr<ModelSnapshot> snap) {
    return publish(std::move(snap), PublishOptions{}, nullptr);
  }

  // What one apply_delta() did, for admin responses and benches.
  struct DeltaApply {
    std::uint64_t base_generation = 0;  // generation the delta was applied on
    std::uint64_t new_generation = 0;
    std::size_t upserts = 0;
    std::size_t removes = 0;
    std::size_t conventions = 0;  // usable conventions in the new snapshot
  };

  // Applies a model delta (core/delta.h) to the *serving* generation and
  // publishes the successor. Rejects — previous snapshot stays current,
  // serve_delta_rejected bumps — when the delta's base generation is not
  // the serving one (stale delta: the world moved underneath it) or when it
  // removes a suffix the base does not carry (a torn or mismatched delta).
  // The successor shares every unchanged suffix's compiled matcher with the
  // base snapshot and is archived re-serialized in the base's format, so
  // rollback targets stay self-contained. Canary-gated like a reload.
  std::optional<std::string> apply_delta(const core::ModelDelta& delta,
                                         DeltaApply* out = nullptr);

  // Loads a delta file (strict: checksum footer required — a torn delta
  // never publishes) and applies it. The DELTA admin verb and the delta
  // watcher both land here.
  std::optional<std::string> apply_delta_file(const std::string& path,
                                              DeltaApply* out = nullptr);

  // Watches `path` for model *deltas* the way poll_watch watches the model
  // file: missing file is idle (deploys drop the delta in by rename), a new
  // ns-mtime must hold still for one poll before the file is applied, and a
  // failed/rejected apply is reported once per file change, not per poll.
  // Empty path disables. Driven by the daemon's --delta-watch flag.
  void set_delta_watch(std::string path);
  WatchOutcome poll_delta_watch(std::string* error = nullptr);

  // --- Versioned lineage & health-gated publishing (DESIGN.md §14) ---

  // Keeps the last `n` published model files as `<path>.gens/gen-<N>.nc`
  // (oldest pruned past n). 0 (the default) disables archiving. The archive
  // directory is rescanned here so generation numbers keep increasing
  // across daemon restarts — a rollback target never collides with a fresh
  // install's number.
  void set_keep_generations(std::size_t n);

  // Canary gate: before a reload() (or watch-triggered reload) publishes,
  // replay the queries in `path` against the candidate snapshot. Each line
  // is `<hostname>` (must not answer MISS) or `<hostname>,<expected>` where
  // <expected> is the exact wire response ("MISS" or "lat,lon,code,method");
  // '#' lines are comments. More than `max_failures` divergences reject the
  // reload: the serving snapshot is untouched, the error names the first
  // divergence, and serve_reload_rejected is bumped. An unreadable canary
  // file also rejects (fail closed — a gate that silently vanishes is worse
  // than a loud one). Empty `path` disables the gate. install() and
  // rollback() bypass it (explicit operator actions).
  void set_canary(std::string path, std::size_t max_failures = 0);

  // Counters for rejected reloads / rollbacks (serve_reload_rejected,
  // serve_rollbacks) and the model load-path metrics; null = uncounted.
  // Must outlive the store. A load that happened before metrics were
  // attached (the daemon's boot load precedes the server's registry) is
  // replayed here so the load-path counters are truthful for a process
  // that never hot-swaps.
  void set_metrics(Metrics* metrics);

  // Binary models are mmap'ed by default (reload cost O(pages touched)).
  // false loads them into an owned buffer instead — with full payload
  // verification — for callers that must not hold a file mapping (tests,
  // benches comparing load strategies).
  void set_map_binary(bool on);

  // Archived generation numbers, ascending. Empty when archiving is off.
  std::vector<std::uint64_t> list_generations();

  // Republishes archived generation `gen` under a fresh generation number
  // (lineage is append-only: a rollback is a new generation whose bytes are
  // an old one's, so GENS shows the full history). Bypasses the canary.
  // The rolled-back model is re-archived, and the mtime watcher will not
  // re-load the bad on-disk file afterwards (its stamp was recorded at the
  // failed/rolled-back load). Returns the error message on failure;
  // *new_generation (if non-null) receives the published number on success.
  std::optional<std::string> rollback(std::uint64_t gen,
                                      std::uint64_t* new_generation = nullptr);

  std::uint64_t generation() const { return current()->generation; }
  const std::string& path() const { return path_; }
  const geo::GeoDictionary& dictionary() const { return dict_; }

 private:
  // Nanosecond-resolution mtime plus existence, so two rewrites within one
  // second still compare unequal.
  struct FileStamp {
    bool exists = false;
    std::time_t sec = 0;
    long nsec = 0;
    bool same(const FileStamp& o) const {
      return exists == o.exists && sec == o.sec && nsec == o.nsec;
    }
  };

  static FileStamp file_stamp(const std::string& path);

  // One mtime watcher (poll_watch's model, poll_delta_watch's delta); its
  // owner holds reload_mu_. `recorded` is the stamp at the last (attempted)
  // load or apply: reload_locked records the model's, poll_delta_watch the
  // delta's, so a failure is reported once per file change, not per poll.
  struct Watch {
    FileStamp recorded;
    FileStamp pending;  // candidate awaiting debounce
    bool pending_valid = false;
    // One poll step over `path`: the idle outcome (kUnchanged, kMissing,
    // kDebounced), or nullopt once a new stamp has held still for a poll
    // and the caller should load the file (`pending` holds its stamp).
    std::optional<WatchOutcome> step(const std::string& path);
  };
  // The swap itself (numbers the snapshot, flips snap_); publish() adds the
  // gate/archive/metrics around it. Requires reload_mu_.
  void swap_in_locked(std::shared_ptr<ModelSnapshot> snap);
  std::optional<std::string> publish_locked(std::shared_ptr<ModelSnapshot> snap,
                                            const PublishOptions& opts,
                                            std::uint64_t* new_generation);
  std::optional<std::string> reload_locked();       // requires reload_mu_
  std::optional<std::string> apply_delta_locked(const core::ModelDelta& delta,
                                                DeltaApply* out);  // requires reload_mu_

  // Lineage helpers; all require reload_mu_.
  std::string gens_dir() const { return path_ + ".gens"; }
  // Archives carry the extension of the format they hold: gen-<N>.nc for
  // text bytes, gen-<N>.ncb for binary (rollback probes both).
  std::string gen_file(std::uint64_t gen, core::ModelFormat format) const;
  std::vector<std::uint64_t> list_generations_locked() const;
  void scan_archive_locked();  // advances next_generation_ past archived gens
  void archive_locked(std::uint64_t gen, std::string_view bytes);
  std::optional<std::string> canary_check_locked(const ModelSnapshot& candidate) const;
  void record_pending_load_locked();  // flushes the stashed load into metrics_

  const geo::GeoDictionary& dict_;
  std::string path_;
  std::shared_ptr<const fuse::FuseContext> fuse_ctx_;  // guarded by reload_mu_
  std::mutex reload_mu_;       // serializes reload/install; readers never take it
  std::uint64_t next_generation_ = 1;  // guarded by reload_mu_
  std::size_t keep_generations_ = 0;   // guarded by reload_mu_
  bool map_binary_ = true;             // guarded by reload_mu_
  std::string canary_path_;            // guarded by reload_mu_
  std::size_t canary_max_failures_ = 0;  // guarded by reload_mu_
  Metrics* metrics_ = nullptr;         // set once before serving; not guarded
  long long pending_load_us_ = -1;     // boot-load cost awaiting metrics; reload_mu_
  std::string pending_load_format_;    // guarded by reload_mu_
  std::size_t pending_load_mapped_ = 0;  // guarded by reload_mu_
  Watch model_watch_;                  // guarded by reload_mu_
  std::string delta_path_;             // delta watch target; reload_mu_
  Watch delta_watch_;                  // guarded by reload_mu_
  mutable std::mutex snap_mu_;         // guards snap_ swap/copy only
  std::shared_ptr<const ModelSnapshot> snap_;
};

}  // namespace hoiho::serve
