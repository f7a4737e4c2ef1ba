#include "fuse/fuser.h"

#include <algorithm>
#include <charconv>
#include <istream>

#include "util/csv.h"

namespace hoiho::fuse {

namespace {

// fuse_rank_score buckets: scores live in [0, 1], so decile bounds give the
// histogram real resolution (the registry's default bounds are latency ns).
constexpr double kScoreBounds[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

// Builds the (location x VP) speed-of-light grid when it fits the cap;
// null (per-candidate haversine fallback, same doubles) when it does not.
std::unique_ptr<measure::ExpectedRttGrid> maybe_build_grid(const geo::GeoDictionary& dict,
                                                           const measure::Measurements& meas,
                                                           std::size_t max_grid_cells) {
  if (meas.vps.empty() || dict.size() * meas.vps.size() > max_grid_cells) return nullptr;
  return std::make_unique<measure::ExpectedRttGrid>(dict, meas.vps);
}

}  // namespace

std::optional<std::vector<SubjectRow>> load_subjects(std::istream& in,
                                                     const io::LoadOptions& opt,
                                                     io::LoadReport* report) {
  io::LoadReport local;
  io::LoadReport& rep = report != nullptr ? *report : local;
  std::vector<SubjectRow> rows;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    ++rep.lines;
    if (line.size() > opt.max_line_bytes) {
      if (!rep.skip(opt, "oversized_line", lineno,
                    "line exceeds " + std::to_string(opt.max_line_bytes) + " bytes"))
        return std::nullopt;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const util::CsvRow row = util::parse_csv_line(line);
    if (row.empty()) continue;
    if (row.size() != 2 && row.size() != 3) {
      if (!rep.skip(opt, "bad_fields", lineno, "need subject,router[,hostname]"))
        return std::nullopt;
      continue;
    }
    SubjectRow sr;
    sr.subject = row[0];
    if (sr.subject.empty()) {
      if (!rep.skip(opt, "bad_fields", lineno, "empty subject")) return std::nullopt;
      continue;
    }
    std::uint32_t router = 0;
    const auto [ptr, ec] =
        std::from_chars(row[1].data(), row[1].data() + row[1].size(), router);
    if (ec != std::errc() || ptr != row[1].data() + row[1].size()) {
      if (!rep.skip(opt, "bad_number", lineno, "non-numeric router id")) return std::nullopt;
      continue;
    }
    sr.router = router;
    if (row.size() == 3) sr.hostname = row[2];
    if (opt.max_records > 0 && rows.size() >= opt.max_records) {
      rep.fail("line " + std::to_string(lineno) + ": more than " +
               std::to_string(opt.max_records) + " rows (record cap)");
      return std::nullopt;
    }
    rows.push_back(std::move(sr));
    ++rep.records;
  }
  if (in.bad()) {
    rep.fail("stream read failure");
    return std::nullopt;
  }
  return rows;
}

FuseMetrics::FuseMetrics(obs::Registry& registry)
    : candidates(registry.counter("fuse_candidates")),
      rtt_infeasible(registry.counter("fuse_rtt_infeasible")),
      rank_score(registry.histogram("fuse_rank_score", kScoreBounds)) {}

std::shared_ptr<const FuseContext> FuseContext::build(const topo::Topology& topology,
                                                      measure::Measurements meas,
                                                      const geo::GeoDictionary& dict,
                                                      PopulationPrior prior,
                                                      std::size_t max_grid_cells) {
  auto ctx = std::shared_ptr<FuseContext>(new FuseContext());
  ctx->meas_ = std::move(meas);
  ctx->prior_ = std::move(prior);
  for (const topo::Router& router : topology.routers()) {
    for (const topo::Interface& ifc : router.interfaces) {
      if (!ifc.address.empty()) ctx->subjects_.emplace(ifc.address, router.id);
      if (ifc.hostname) ctx->subjects_.emplace(ifc.hostname->full, router.id);
    }
  }
  if (const std::size_t r = topology.size(); r > 0) {
    ctx->router_hostname_.resize(r);
    for (const topo::Router& router : topology.routers()) {
      for (const topo::Interface& ifc : router.interfaces) {
        if (ifc.hostname && ctx->router_hostname_[router.id].empty()) {
          ctx->router_hostname_[router.id] = ifc.hostname->full;
          break;
        }
      }
    }
  }
  ctx->grid_ = maybe_build_grid(dict, ctx->meas_, max_grid_cells);
  return ctx;
}

std::shared_ptr<const FuseContext> FuseContext::build(std::span<const SubjectRow> subjects,
                                                      measure::Measurements meas,
                                                      const geo::GeoDictionary& dict,
                                                      PopulationPrior prior,
                                                      std::size_t max_grid_cells) {
  auto ctx = std::shared_ptr<FuseContext>(new FuseContext());
  ctx->meas_ = std::move(meas);
  ctx->prior_ = std::move(prior);
  topo::RouterId max_router = 0;
  bool any = false;
  for (const SubjectRow& sr : subjects) {
    if (sr.subject.empty() || sr.router == topo::kInvalidRouter) continue;
    ctx->subjects_.emplace(sr.subject, sr.router);
    if (!sr.hostname.empty()) ctx->subjects_.emplace(sr.hostname, sr.router);
    max_router = std::max(max_router, sr.router);
    any = true;
  }
  if (any) {
    ctx->router_hostname_.resize(static_cast<std::size_t>(max_router) + 1);
    for (const SubjectRow& sr : subjects) {
      if (sr.router == topo::kInvalidRouter) continue;
      std::string& slot = ctx->router_hostname_[sr.router];
      if (!slot.empty()) continue;
      // Prefer the explicit hostname column; else a dotted subject is its
      // own hostname (a bare address is not extractable).
      if (!sr.hostname.empty()) {
        slot = sr.hostname;
      } else if (sr.subject.find('.') != std::string::npos &&
                 sr.subject.find_first_not_of("0123456789.") != std::string::npos) {
        slot = sr.subject;
      }
    }
  }
  ctx->grid_ = maybe_build_grid(dict, ctx->meas_, max_grid_cells);
  return ctx;
}

FuseResult Fuser::fuse(std::string_view subject,
                       const std::optional<geo::Coordinate>& claimed) const {
  FuseResult out;
  if (ctx_ != nullptr) out.router = ctx_->router_for(subject);

  out.set = gather_candidates(geolocator_, subject, claimed);
  if (!out.set.matched && ctx_ != nullptr && out.router != topo::kInvalidRouter) {
    // The subject was an interface address (or an unnamed alias): extract
    // from the router's representative hostname instead.
    const std::string_view hostname = ctx_->hostname_for(out.router);
    if (!hostname.empty() && hostname != subject)
      out.set = gather_candidates(geolocator_, hostname, claimed);
  }
  metrics_.candidates.add(out.set.candidates.size());

  if (ctx_ != nullptr && out.router != topo::kInvalidRouter) {
    const RttFilter filter(ctx_->measurements(), ctx_->grid(), config_.rtt);
    const std::size_t infeasible = filter.apply(out.router, out.set.candidates);
    metrics_.rtt_infeasible.add(infeasible);
    for (const Candidate& c : out.set.candidates)
      if (c.rtt_checked) {
        out.rtt_constrained = true;
        break;
      }
  }

  const Ranker ranker(geolocator_.dictionary(),
                      ctx_ != nullptr ? &ctx_->prior() : nullptr, config_.rank);
  out.verdicts = ranker.rank(out.set);
  if (out.answered()) metrics_.rank_score.observe(out.best().score);
  return out;
}

}  // namespace hoiho::fuse
