#include "serve/model_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "serve/protocol.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace hoiho::serve {

namespace {

// Reads a whole file; false on open/read failure. Model files are small
// (the daemon reloads them whole anyway), so buffering in memory lets one
// read feed parsing, the canary build, and the generation archive.
bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  *out = buf.str();
  return true;
}

// Reads just enough of the file to sniff the model format (the ncb magic is
// 8 bytes). Keeps the mmap reload path from reading the whole model only to
// decide how to load it.
bool read_head(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  char buf[8] = {};
  in.read(buf, sizeof buf);
  out->assign(buf, static_cast<std::size_t>(in.gcount()));
  return true;
}

bool write_file_durable(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      ::unlink(tmp.c_str());
      return false;
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

// Parses "gen-<N>.nc" / "gen-<N>.ncb"; nullopt for anything else in the
// archive dir. Archives carry the extension of the format they hold.
std::optional<std::uint64_t> gen_from_name(std::string_view name) {
  if (!util::starts_with(name, "gen-")) return std::nullopt;
  std::size_t ext = 0;
  if (util::ends_with(name, ".ncb"))
    ext = 4;
  else if (util::ends_with(name, ".nc"))
    ext = 3;
  else
    return std::nullopt;
  const std::string_view digits = name.substr(4, name.size() - 4 - ext);
  if (digits.empty() || digits.size() > 20) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

// Builds a snapshot from parsed conventions — the shared tail of the text
// reload and rollback paths (install has its own copy to keep its
// always-succeeds contract). The full list (kPoor included) is retained as
// snap->stored in canonical order so apply_delta can merge against it.
std::shared_ptr<ModelSnapshot> build_snapshot(const geo::GeoDictionary& dict,
                                              std::vector<core::StoredConvention> loaded,
                                              std::string source,
                                              std::vector<std::string> warnings,
                                              std::shared_ptr<const fuse::FuseContext> fuse) {
  auto snap = std::make_shared<ModelSnapshot>(dict);
  snap->source = std::move(source);
  snap->warnings = std::move(warnings);
  snap->fuse = std::move(fuse);
  for (const core::StoredConvention& sc : loaded) {
    if (sc.cls == core::NcClass::kPoor) continue;  // unusable per stage 5
    snap->geolocator.add(sc.nc, sc.cls);
  }
  snap->convention_count = snap->geolocator.convention_count();
  snap->program_count = snap->geolocator.program_count();
  core::sort_conventions(loaded);
  snap->stored = std::move(loaded);
  return snap;
}

// Binary twin: the Geolocator is assembled as views over the model (no
// regex recompilation); the snapshot pins the mapping via snap->ncb.
std::shared_ptr<ModelSnapshot> build_snapshot_ncb(const geo::GeoDictionary& dict,
                                                  std::shared_ptr<const core::NcbModel> model,
                                                  std::string source,
                                                  std::shared_ptr<const fuse::FuseContext> fuse) {
  auto snap = std::make_shared<ModelSnapshot>(dict);
  snap->source = std::move(source);
  snap->fuse = std::move(fuse);
  snap->format = model->mapped() ? "ncb_mmap" : "ncb";
  model->build_geolocator(snap->geolocator, &snap->warnings);
  snap->convention_count = snap->geolocator.convention_count();
  snap->program_count = snap->geolocator.program_count();
  snap->ncb = std::move(model);
  return snap;
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
}

}  // namespace

ModelStore::ModelStore(const geo::GeoDictionary& dict, std::string path)
    : dict_(dict), path_(std::move(path)) {
  auto empty = std::make_shared<ModelSnapshot>(dict_);
  empty->source = path_.empty() ? "<memory>" : path_;
  std::lock_guard lock(snap_mu_);
  snap_ = std::move(empty);
}

ModelStore::FileStamp ModelStore::file_stamp(const std::string& path) {
  struct stat st{};
  FileStamp fs;
  if (::stat(path.c_str(), &st) != 0) return fs;
  fs.exists = true;
  fs.sec = st.st_mtim.tv_sec;
  fs.nsec = st.st_mtim.tv_nsec;
  return fs;
}

void ModelStore::swap_in_locked(std::shared_ptr<ModelSnapshot> snap) {
  snap->generation = next_generation_++;
  if (metrics_ != nullptr)
    metrics_->model_generation.set(static_cast<std::int64_t>(snap->generation));
  std::shared_ptr<const ModelSnapshot> next(std::move(snap));
  {
    std::lock_guard lock(snap_mu_);
    snap_.swap(next);
  }
  // `next` (the previous snapshot) is released outside the lock when it
  // goes out of scope — possibly the last reference, freeing the model.
}

std::optional<std::string> ModelStore::publish_locked(std::shared_ptr<ModelSnapshot> snap,
                                                      const PublishOptions& opts,
                                                      std::uint64_t* new_generation) {
  if (!opts.bypass_canary) {
    if (const auto rejected = canary_check_locked(*snap)) {
      if (metrics_ != nullptr) metrics_->reload_rejected.inc();
      return rejected;
    }
  }
  const std::uint64_t gen = next_generation_;
  swap_in_locked(std::move(snap));
  if (!opts.archive_bytes.empty()) archive_locked(gen, opts.archive_bytes);
  if (new_generation != nullptr) *new_generation = gen;
  return std::nullopt;
}

std::optional<std::string> ModelStore::publish(std::shared_ptr<ModelSnapshot> snap,
                                               const PublishOptions& opts,
                                               std::uint64_t* new_generation) {
  std::lock_guard lock(reload_mu_);
  return publish_locked(std::move(snap), opts, new_generation);
}

std::optional<std::string> ModelStore::reload() {
  std::lock_guard lock(reload_mu_);
  return reload_locked();
}

std::optional<std::string> ModelStore::reload_locked() {
  if (path_.empty()) return "model store has no file path";
  const auto t0 = std::chrono::steady_clock::now();
  // Record the stamp before parsing so a write racing the load triggers one
  // more watch cycle rather than being missed.
  model_watch_.recorded = file_stamp(path_);
  if (const auto f = util::failpoint::hit("store.reload"))
    return "model file '" + path_ + "': injected reload failure";

  // Sniff the format from the first bytes so one store serves both: the ncb
  // magic picks the binary loader, anything else is text.
  std::string head;
  if (!read_head(path_, &head)) return "cannot open model file '" + path_ + "'";

  std::shared_ptr<ModelSnapshot> snap;
  std::string owned_bytes;            // text / heap-ncb bytes, kept for the archive
  std::string_view archive_bytes;    // what archive_locked persists
  if (core::detect_model_format(head) == core::ModelFormat::kNcb) {
    std::string error;
    std::shared_ptr<const core::NcbModel> model;
    if (map_binary_) {
      model = core::NcbModel::open(path_, &error);
    } else {
      if (!read_file(path_, &owned_bytes)) return "cannot open model file '" + path_ + "'";
      model = core::NcbModel::from_bytes(owned_bytes, &error);
    }
    if (model == nullptr) return "model file '" + path_ + "': " + error;
    snap = build_snapshot_ncb(dict_, std::move(model), path_, fuse_ctx_);
    archive_bytes = snap->ncb->raw_bytes();
  } else {
    if (!read_file(path_, &owned_bytes)) return "cannot open model file '" + path_ + "'";
    std::string error;
    std::vector<std::string> warnings;
    std::istringstream in(owned_bytes);
    auto loaded = core::load_conventions(in, dict_, &error, &warnings);
    if (!loaded) return "model file '" + path_ + "': " + error;
    snap = build_snapshot(dict_, std::move(*loaded), path_, std::move(warnings), fuse_ctx_);
    archive_bytes = owned_bytes;
  }

  const std::string format = snap->format;
  const std::size_t mapped = snap->ncb != nullptr ? snap->ncb->bytes_mapped() : 0;
  PublishOptions opts;
  opts.archive_bytes = archive_bytes;
  if (const auto rejected = publish_locked(std::move(snap), opts, nullptr)) {
    // The candidate parsed but fails the health gate: keep the previous
    // generation serving. The watch stamp was already recorded, so the
    // watcher won't retry the same bad file every poll.
    return "model file '" + path_ + "': " + *rejected;
  }
  // Stash the load facts even when no metrics are attached yet: the boot
  // load precedes the server's registry, and set_metrics replays the stash
  // so the load-path counters are truthful for a daemon that never swaps.
  pending_load_us_ = static_cast<long long>(elapsed_us(t0));
  pending_load_format_ = format;
  pending_load_mapped_ = mapped;
  if (metrics_ != nullptr) record_pending_load_locked();
  return std::nullopt;
}

void ModelStore::record_pending_load_locked() {
  if (pending_load_us_ < 0) return;
  const auto us = static_cast<std::uint64_t>(pending_load_us_);
  metrics_->reload_us.observe(static_cast<double>(us));
  if (pending_load_format_ == "ncb_mmap") {
    metrics_->load_build_us_ncb_mmap.add(us);
    metrics_->load_bytes_mapped.add(pending_load_mapped_);
  } else if (pending_load_format_ == "ncb") {
    metrics_->load_build_us_ncb.add(us);
  } else {
    metrics_->load_build_us_text.add(us);
  }
  pending_load_us_ = -1;
}

void ModelStore::set_metrics(Metrics* metrics) {
  std::lock_guard lock(reload_mu_);
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    record_pending_load_locked();
    // Publishes that preceded the registry (the boot load) still surface
    // through the generation gauge.
    metrics_->model_generation.set(static_cast<std::int64_t>(generation()));
  }
}

void ModelStore::set_keep_generations(std::size_t n) {
  std::lock_guard lock(reload_mu_);
  keep_generations_ = n;
  if (n > 0 && !path_.empty()) scan_archive_locked();
}

void ModelStore::set_canary(std::string path, std::size_t max_failures) {
  std::lock_guard lock(reload_mu_);
  canary_path_ = std::move(path);
  canary_max_failures_ = max_failures;
}

void ModelStore::set_map_binary(bool on) {
  std::lock_guard lock(reload_mu_);
  map_binary_ = on;
}

std::string ModelStore::gen_file(std::uint64_t gen, core::ModelFormat format) const {
  return gens_dir() + "/gen-" + std::to_string(gen) +
         (format == core::ModelFormat::kNcb ? ".ncb" : ".nc");
}

std::vector<std::uint64_t> ModelStore::list_generations_locked() const {
  std::vector<std::uint64_t> gens;
  DIR* d = ::opendir(gens_dir().c_str());
  if (d == nullptr) return gens;
  while (struct dirent* e = ::readdir(d)) {
    if (const auto g = gen_from_name(e->d_name)) gens.push_back(*g);
  }
  ::closedir(d);
  std::sort(gens.begin(), gens.end());
  gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
  return gens;
}

std::vector<std::uint64_t> ModelStore::list_generations() {
  std::lock_guard lock(reload_mu_);
  return list_generations_locked();
}

void ModelStore::scan_archive_locked() {
  const std::vector<std::uint64_t> gens = list_generations_locked();
  if (!gens.empty()) next_generation_ = std::max(next_generation_, gens.back() + 1);
}

void ModelStore::archive_locked(std::uint64_t gen, std::string_view bytes) {
  if (keep_generations_ == 0 || path_.empty()) return;
  ::mkdir(gens_dir().c_str(), 0755);  // EEXIST is the common case
  // Best-effort: a full disk must not turn a healthy publish into a failed
  // reload — the archive exists to serve rollbacks, not to gate serving.
  if (!write_file_durable(gen_file(gen, core::detect_model_format(bytes)), bytes)) return;
  std::vector<std::uint64_t> gens = list_generations_locked();
  for (std::size_t i = 0; gens.size() - i > keep_generations_; ++i) {
    ::unlink(gen_file(gens[i], core::ModelFormat::kText).c_str());
    ::unlink(gen_file(gens[i], core::ModelFormat::kNcb).c_str());
  }
}

std::optional<std::string> ModelStore::canary_check_locked(
    const ModelSnapshot& candidate) const {
  if (canary_path_.empty()) return std::nullopt;
  std::string text;
  if (!read_file(canary_path_, &text))
    return "canary file '" + canary_path_ + "' unreadable (failing closed)";
  std::size_t queries = 0, failures = 0;
  std::string first;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = std::string_view(text).substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t comma = line.find(',');
    const std::string_view host = comma == std::string_view::npos ? line : line.substr(0, comma);
    ++queries;
    const auto loc = candidate.geolocator.locate(host);
    const std::string got = loc ? format_hit(*loc) : format_miss();
    const bool ok = comma == std::string_view::npos ? loc.has_value()
                                                    : got == line.substr(comma + 1);
    if (!ok) {
      ++failures;
      if (first.empty()) first = std::string(host) + " -> " + got;
    }
  }
  if (queries == 0)
    return "canary file '" + canary_path_ + "' has no queries (failing closed)";
  if (failures > canary_max_failures_)
    return "canary rejected: " + std::to_string(failures) + "/" + std::to_string(queries) +
           " queries diverged (first: " + first + ")";
  return std::nullopt;
}

std::optional<std::string> ModelStore::rollback(std::uint64_t gen,
                                                std::uint64_t* new_generation) {
  std::lock_guard lock(reload_mu_);
  if (path_.empty()) return "model store has no file path";
  if (keep_generations_ == 0) return "generation archive disabled (--keep-generations)";
  const auto t0 = std::chrono::steady_clock::now();
  // Probe both archive extensions; the bytes themselves (not the name)
  // pick the loader, so a mislabeled archive still restores correctly.
  std::string source = gen_file(gen, core::ModelFormat::kText);
  std::string bytes;
  if (!read_file(source, &bytes)) {
    source = gen_file(gen, core::ModelFormat::kNcb);
    if (!read_file(source, &bytes))
      return "generation " + std::to_string(gen) + " is not in the archive";
  }
  std::shared_ptr<ModelSnapshot> snap;
  if (core::detect_model_format(bytes) == core::ModelFormat::kNcb) {
    // Archive restore is the opt-in-to-full-verification path: from_bytes
    // checks the payload hash, catching archives that rotted on disk.
    std::string error;
    auto model = core::NcbModel::from_bytes(bytes, &error);
    if (model == nullptr)
      return "archived generation " + std::to_string(gen) + ": " + error;
    snap = build_snapshot_ncb(dict_, std::move(model), source, fuse_ctx_);
  } else {
    std::string error;
    std::vector<std::string> warnings;
    std::istringstream in(bytes);
    auto loaded = core::load_conventions(in, dict_, &error, &warnings);
    if (!loaded) return "archived generation " + std::to_string(gen) + ": " + error;
    snap = build_snapshot(dict_, std::move(*loaded), source, std::move(warnings), fuse_ctx_);
  }
  PublishOptions opts;
  opts.bypass_canary = true;  // explicit operator action
  opts.archive_bytes = bytes;
  std::uint64_t published = 0;
  if (const auto err = publish_locked(std::move(snap), opts, &published)) return err;
  if (metrics_ != nullptr) {
    metrics_->rollbacks.inc();
    metrics_->reload_us.observe(static_cast<double>(elapsed_us(t0)));
  }
  if (new_generation != nullptr) *new_generation = published;
  return std::nullopt;
}

void ModelStore::install(const std::vector<core::StoredConvention>& conventions,
                         std::string source) {
  std::lock_guard lock(reload_mu_);
  auto snap = std::make_shared<ModelSnapshot>(dict_);
  snap->source = std::move(source);
  snap->fuse = fuse_ctx_;
  for (const core::StoredConvention& sc : conventions) {
    if (sc.cls == core::NcClass::kPoor) continue;
    snap->geolocator.add(sc.nc, sc.cls);
  }
  snap->convention_count = snap->geolocator.convention_count();
  snap->program_count = snap->geolocator.program_count();
  snap->stored = conventions;
  core::sort_conventions(snap->stored);
  PublishOptions opts;
  opts.bypass_canary = true;  // install() always succeeds
  publish_locked(std::move(snap), opts, nullptr);
}

void ModelStore::set_fuse_context(std::shared_ptr<const fuse::FuseContext> ctx) {
  std::lock_guard lock(reload_mu_);
  fuse_ctx_ = std::move(ctx);
  // Republish the live model with the new context: copy the current
  // snapshot (the Geolocator's compiled matchers copy with it — no regex
  // recompilation) and swap the context. Readers that pinned the previous
  // snapshot finish on the old (model, context) pair, consistently.
  std::shared_ptr<ModelSnapshot> snap;
  {
    std::lock_guard slock(snap_mu_);
    snap = std::make_shared<ModelSnapshot>(*snap_);
  }
  snap->fuse = fuse_ctx_;
  PublishOptions opts;
  opts.bypass_canary = true;  // the model bytes are unchanged
  publish_locked(std::move(snap), opts, nullptr);
}

std::optional<ModelStore::WatchOutcome> ModelStore::Watch::step(const std::string& path) {
  if (path.empty()) return WatchOutcome::kUnchanged;
  const FileStamp now = file_stamp(path);
  if (!now.exists) {
    // Mid-rename window of a deploy (or a genuinely deleted file). Keep
    // serving the loaded snapshot and keep watching; don't count this as a
    // failed reload.
    pending_valid = false;
    return WatchOutcome::kMissing;
  }
  if (now.same(recorded)) {
    pending_valid = false;
    return WatchOutcome::kUnchanged;
  }
  if (!pending_valid || !now.same(pending)) {
    // New mtime: wait until it holds still for one full poll interval so we
    // don't load a file another process is still writing.
    pending = now;
    pending_valid = true;
    return WatchOutcome::kDebounced;
  }
  pending_valid = false;
  return std::nullopt;
}

ModelStore::WatchOutcome ModelStore::poll_watch(std::string* error) {
  std::lock_guard lock(reload_mu_);
  if (const auto idle = model_watch_.step(path_)) return *idle;
  if (const auto err = reload_locked()) {
    if (error != nullptr) *error = *err;
    return WatchOutcome::kReloadFailed;
  }
  return WatchOutcome::kReloaded;
}

std::optional<std::string> ModelStore::apply_delta(const core::ModelDelta& delta,
                                                   DeltaApply* out) {
  std::lock_guard lock(reload_mu_);
  return apply_delta_locked(delta, out);
}

std::optional<std::string> ModelStore::apply_delta_locked(const core::ModelDelta& delta,
                                                          DeltaApply* out) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto reject = [&](std::string msg) -> std::optional<std::string> {
    if (metrics_ != nullptr) metrics_->delta_rejected.inc();
    return msg;
  };

  const std::shared_ptr<const ModelSnapshot> base = current();
  if (delta.base_generation != base->generation)
    return reject("delta targets generation " + std::to_string(delta.base_generation) +
                  " but generation " + std::to_string(base->generation) + " is serving");

  // The merge base: the snapshot's stored list, materialized from the ncb
  // image the first time a delta lands on a binary generation.
  std::vector<core::StoredConvention> stored;
  if (base->stored.empty() && base->ncb != nullptr) {
    std::string error;
    auto s = base->ncb->to_stored(dict_, &error);
    if (!s) return reject("base model: " + error);
    stored = std::move(*s);
    core::sort_conventions(stored);
  } else {
    stored = base->stored;
  }

  // Successor snapshot by structural sharing: the copied Geolocator keeps
  // every unchanged suffix's compiled matcher (for an ncb base, views into
  // the mapping the copied snap->ncb handle pins).
  auto snap = std::make_shared<ModelSnapshot>(*base);
  snap->source = "delta onto gen " + std::to_string(base->generation);
  snap->warnings.clear();

  const auto find_stored = [&stored](std::string_view suffix) {
    return std::find_if(stored.begin(), stored.end(), [&](const core::StoredConvention& sc) {
      return sc.nc.suffix == suffix;
    });
  };
  for (const std::string& suffix : delta.removes) {
    const auto it = find_stored(suffix);
    if (it == stored.end())
      return reject("delta removes unknown suffix '" + suffix + "'");
    stored.erase(it);
    snap->geolocator.remove(suffix);  // no-op for kPoor entries (never added)
  }
  for (const core::StoredConvention& sc : delta.upserts) {
    const auto it = find_stored(sc.nc.suffix);
    if (it == stored.end())
      stored.push_back(sc);
    else
      *it = sc;
    if (sc.cls == core::NcClass::kPoor)
      snap->geolocator.remove(sc.nc.suffix);  // demoted: stored, not served
    else
      snap->geolocator.add(sc.nc, sc.cls);
  }
  core::sort_conventions(stored);
  snap->stored = std::move(stored);
  snap->convention_count = snap->geolocator.convention_count();
  snap->program_count = snap->geolocator.program_count();

  // Archive bytes re-serialized in the base's format, so a delta-built
  // generation is as self-contained a rollback target as a full load.
  std::string bytes;
  if (keep_generations_ > 0 && !path_.empty()) {
    if (base->ncb != nullptr) {
      bytes = core::serialize_conventions_ncb(snap->stored, dict_);
    } else {
      std::ostringstream buf;
      core::save_conventions(buf, snap->stored, dict_);
      bytes = buf.str();
      bytes += core::checksum_footer_line(core::fnv1a_hash(bytes));
      bytes += '\n';
    }
  }
  const std::size_t upserts = delta.upserts.size();
  const std::size_t removes = delta.removes.size();
  const std::size_t conventions = snap->convention_count;
  PublishOptions opts;
  opts.archive_bytes = bytes;
  std::uint64_t published = 0;
  if (const auto err = publish_locked(std::move(snap), opts, &published))
    return reject(*err);
  if (metrics_ != nullptr) {
    metrics_->delta_applies.inc();
    metrics_->delta_apply_us.observe(static_cast<double>(elapsed_us(t0)));
  }
  if (out != nullptr) {
    out->base_generation = delta.base_generation;
    out->new_generation = published;
    out->upserts = upserts;
    out->removes = removes;
    out->conventions = conventions;
  }
  return std::nullopt;
}

std::optional<std::string> ModelStore::apply_delta_file(const std::string& path,
                                                        DeltaApply* out) {
  std::lock_guard lock(reload_mu_);
  std::string bytes;
  if (!read_file(path, &bytes)) {
    if (metrics_ != nullptr) metrics_->delta_rejected.inc();
    return "cannot open delta file '" + path + "'";
  }
  std::string error;
  std::istringstream in(bytes);
  const auto delta = core::load_model_delta(in, dict_, &error);
  if (!delta) {
    if (metrics_ != nullptr) metrics_->delta_rejected.inc();
    return "delta file '" + path + "': " + error;
  }
  return apply_delta_locked(*delta, out);
}

void ModelStore::set_delta_watch(std::string path) {
  std::lock_guard lock(reload_mu_);
  delta_path_ = std::move(path);
  delta_watch_ = Watch{};
}

ModelStore::WatchOutcome ModelStore::poll_delta_watch(std::string* error) {
  std::unique_lock lock(reload_mu_);
  if (const auto idle = delta_watch_.step(delta_path_)) return *idle;
  // Record before applying: a failed or stale delta is reported once per
  // file change, not once per poll (same contract as poll_watch).
  delta_watch_.recorded = delta_watch_.pending;
  const std::string path = delta_path_;
  lock.unlock();
  if (const auto err = apply_delta_file(path)) {
    if (error != nullptr) *error = *err;
    return WatchOutcome::kReloadFailed;
  }
  return WatchOutcome::kReloaded;
}

}  // namespace hoiho::serve
