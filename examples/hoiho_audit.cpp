// Audit a claimed IP -> location feed against hostname + RTT evidence
// (DESIGN.md §13; the headline use case of "IP Geolocation through Reverse
// DNS", see PAPERS.md).
//
// Two modes:
//
//   File mode — audit a real feed against a saved model and RTT campaign:
//     ./build/examples/hoiho_audit --model m.txt --subjects s.csv
//         --rtt rtt.txt --feed feed.csv [--population pop.csv]
//         [--agree-km 100] [--show 10]
//   The model comes from `hoihod --write-demo-model` or save_conventions;
//   subjects are `subject,router[,hostname]` rows; the RTT file is the
//   rtt_io format; the feed is `subject,lat,lon` ('#' comments allowed
//   everywhere; corrupt rows are skipped and counted).
//
//   Demo mode (no flags) — build a synthetic world with ground truth,
//   learn conventions, synthesize a feed where every tenth row claims a
//   far-away city, and audit it. Shows the full loop without any files.
//
// Exit code: 0 if the audit ran (regardless of outcomes), 1 on bad input,
// 2 on a bad command line.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/hoiho.h"
#include "core/nc_io.h"
#include "fuse/audit.h"
#include "measure/rtt_io.h"
#include "sim/probing.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace hoiho;

namespace {

// Prints a lenient-load report if anything was skipped.
void report_skips(const char* what, const io::LoadReport& rep) {
  if (rep.skipped_total() == 0) return;
  std::fprintf(stderr, "%s: %s\n", what, rep.summary().c_str());
  for (const std::string& d : rep.diagnostics)
    std::fprintf(stderr, "  %s\n", d.c_str());
}

void print_rows(const std::vector<fuse::AuditRow>& rows, std::size_t show) {
  std::printf("\n%-28s %-8s %9s %7s  %s\n", "subject", "outcome", "nearest", "score",
              "evidence");
  for (std::size_t i = 0; i < rows.size() && i < show; ++i) {
    const fuse::AuditRow& r = rows[i];
    std::printf("%-28s %-8s %8.1fk %7.3f  %s\n", r.subject.c_str(),
                std::string(fuse::to_string(r.outcome)).c_str(), r.nearest_km, r.top_score,
                r.evidence.c_str());
  }
  if (rows.size() > show) std::printf("... (%zu more rows)\n", rows.size() - show);
}

void print_summary(const fuse::AuditSummary& s) {
  std::printf("\naudited %zu rows: %zu agree, %zu refute, %zu unknown\n", s.rows, s.agree,
              s.refute, s.unknown);
}

int run_demo(std::size_t show) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  std::printf("demo mode: synthetic world, synthetic feed (10%% injected-wrong rows)\n");

  sim::WorldConfig wc;
  wc.seed = 20260808;
  wc.operators = 40;
  wc.geohint_scheme_rate = 0.8;
  const sim::World world = sim::generate_world(dict, wc);
  measure::Measurements pings = sim::probe_pings(world, {});

  const core::Hoiho hoiho(dict);
  const core::HoihoResult result = hoiho.run(world.topology, pings);
  core::Geolocator geolocator(dict);
  for (const core::SuffixResult& sr : result.suffixes)
    if (sr.usable()) geolocator.add(sr.nc, sr.cls);

  const auto ctx = fuse::FuseContext::build(world.topology, std::move(pings), dict);

  // Feed: true coordinates, except every tenth row claims a city >= 1000 km
  // away — the rows the auditor should refute.
  util::Rng rng(7);
  std::vector<fuse::FeedRow> feed;
  for (const sim::HostnameTruth& truth : world.truths) {
    if (!truth.has_geohint || feed.size() >= 500) continue;
    const geo::Coordinate& at =
        dict.location(world.topology.router(truth.router).true_location).coord;
    fuse::FeedRow row;
    row.subject = truth.hostname;
    row.claimed = at;
    if (feed.size() % 10 == 9) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto pick = static_cast<geo::LocationId>(rng.next_below(dict.size()));
        if (geo::distance_km(dict.location(pick).coord, at) >= 1000.0) {
          row.claimed = dict.location(pick).coord;
          break;
        }
      }
    }
    feed.push_back(std::move(row));
  }

  const fuse::Auditor auditor(geolocator, ctx.get());
  std::vector<fuse::AuditRow> rows;
  const fuse::AuditSummary summary = auditor.audit_feed(feed, &rows);
  print_rows(rows, show);
  print_summary(summary);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_path, subjects_path, rtt_path, feed_path, population_path;
  double agree_km = 100.0;
  std::size_t show = 10;
  util::Args args(argc, argv,
                  "usage: hoiho_audit [--model FILE --subjects FILE --rtt FILE --feed FILE]\n"
                  "                   [--population FILE] [--agree-km KM] [--show N]\n"
                  "with no flags, runs a self-contained synthetic demo\n");
  while (args.next()) {
    if (args.is("--model")) model_path = args.value();
    else if (args.is("--subjects")) subjects_path = args.value();
    else if (args.is("--rtt")) rtt_path = args.value();
    else if (args.is("--feed")) feed_path = args.value();
    else if (args.is("--population")) population_path = args.value();
    else if (args.is("--agree-km")) agree_km = std::atof(args.value());
    else if (args.is("--show")) show = static_cast<std::size_t>(std::atoi(args.value()));
    else args.reject();
  }
  if (model_path.empty()) return run_demo(show);
  if (subjects_path.empty() || feed_path.empty()) {
    std::fprintf(stderr, "file mode needs --model, --subjects and --feed\n");
    return 1;
  }

  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const io::LoadOptions lenient{.lenient = true};

  std::ifstream min(model_path);
  std::string error;
  const auto stored =
      min ? core::load_conventions(min, dict, &error)
          : (error = "cannot open file", std::nullopt);
  if (!stored) {
    std::fprintf(stderr, "cannot load model %s: %s\n", model_path.c_str(), error.c_str());
    return 1;
  }
  core::Geolocator geolocator(dict);
  for (const core::StoredConvention& sc : *stored)
    if (core::is_usable(sc.cls)) geolocator.add(sc.nc, sc.cls);
  std::printf("model: %zu conventions from %s\n", stored->size(), model_path.c_str());

  std::ifstream sin(subjects_path);
  io::LoadReport srep;
  const auto subjects = sin ? fuse::load_subjects(sin, lenient, &srep) : std::nullopt;
  if (!subjects) {
    std::fprintf(stderr, "cannot load subjects %s: %s\n", subjects_path.c_str(),
                 srep.error.c_str());
    return 1;
  }
  report_skips("subjects", srep);

  topo::RouterId router_count = 0;
  for (const fuse::SubjectRow& sr : *subjects)
    if (sr.router != topo::kInvalidRouter && sr.router + 1 > router_count)
      router_count = sr.router + 1;

  measure::Measurements meas({}, router_count);
  if (!rtt_path.empty()) {
    std::ifstream rin(rtt_path);
    io::LoadReport rrep;
    auto loaded = rin ? measure::load_measurements(rin, router_count, lenient, &rrep)
                      : std::nullopt;
    if (!loaded) {
      std::fprintf(stderr, "cannot load rtt %s: %s\n", rtt_path.c_str(), rrep.error.c_str());
      return 1;
    }
    report_skips("rtt", rrep);
    meas = std::move(*loaded);
  }

  fuse::PopulationPrior prior;
  if (!population_path.empty()) {
    std::ifstream pin(population_path);
    io::LoadReport prep;
    auto loaded = pin ? fuse::PopulationPrior::load(pin, dict, lenient, &prep) : std::nullopt;
    if (!loaded) {
      std::fprintf(stderr, "cannot load population %s: %s\n", population_path.c_str(),
                   prep.error.c_str());
      return 1;
    }
    report_skips("population", prep);
    prior = std::move(*loaded);
  }

  std::ifstream fin(feed_path);
  io::LoadReport frep;
  const auto feed = fin ? fuse::load_feed(fin, lenient, &frep) : std::nullopt;
  if (!feed) {
    std::fprintf(stderr, "cannot load feed %s: %s\n", feed_path.c_str(), frep.error.c_str());
    return 1;
  }
  report_skips("feed", frep);
  std::printf("subjects: %zu, rtt samples for %zu routers, feed rows: %zu\n",
              subjects->size(), static_cast<std::size_t>(router_count), feed->size());

  const auto ctx = fuse::FuseContext::build(*subjects, std::move(meas), dict, std::move(prior));
  fuse::AuditConfig config;
  config.agree_km = agree_km;
  const fuse::Auditor auditor(geolocator, ctx.get(), config);
  std::vector<fuse::AuditRow> rows;
  const fuse::AuditSummary summary = auditor.audit_feed(*feed, &rows);
  print_rows(rows, show);
  print_summary(summary);
  return 0;
}
