// Reproduces paper Figure 9: per-network comparison of Hoiho against HLOC,
// DRoP and undns on the 13 ground-truth validation networks.
//
// A method scores a true positive when it geolocates a hostname within
// 40 km of the router's true location; a false positive when it answers but
// is wrong; the remainder are false negatives.
//
// Paper: Hoiho correctly geolocates 94.0% of hostnames with a geohint on
// average, vs HLOC 73.1%, DRoP 56.6%; method PPVs 95.6% (Hoiho), 85.1%
// (HLOC), 87.2% (DRoP), 98.3% (undns, with many FNs).
#include <cstdio>
#include <map>

#include "baselines/drop.h"
#include "baselines/hloc.h"
#include "baselines/undns.h"
#include "common.h"
#include "core/geolocate.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, /*takes_scale=*/false);
  const sim::ValidationScenario sc = sim::make_validation();
  const geo::GeoDictionary& dict = *sc.world.dict;

  // --- train / prepare each method -------------------------------------------
  const core::HoihoResult hoiho_result = bench::run_hoiho(sc.world, sc.pings);
  core::Geolocator hoiho_geo(dict);
  for (const core::SuffixResult& sr : hoiho_result.suffixes)
    if (sr.usable()) hoiho_geo.add(sr.nc);

  baselines::DropConfig drop_config;
  drop_config.rule_retention = 0.8;  // the published ruleset predates the snapshot
  drop_config.retention_seed = 29;
  baselines::Drop drop(dict, drop_config);
  drop.train(sc.world.topology, sc.traces);  // DRoP only had traceroute RTTs

  const baselines::Hloc hloc(dict);
  const baselines::Undns undns = baselines::Undns::from_world(sc.world);

  // --- score ------------------------------------------------------------------
  const std::vector<std::string> methods = {"hoiho", "hloc", "drop", "undns"};
  std::map<std::string, std::map<std::string, bench::MethodScore>> scores;  // suffix -> method

  for (const sim::HostnameTruth& truth : sc.world.truths) {
    if (!truth.has_geohint) continue;
    std::string canonical;
    const auto host = dns::parse_hostname(truth.hostname, canonical);
    if (!host) continue;
    const std::string suffix(host->suffix());
    const geo::LocationId router_truth = sc.world.topology.router(truth.router).true_location;

    // Hoiho.
    geo::LocationId answer = geo::kInvalidLocation;
    if (const auto loc = hoiho_geo.locate(truth.hostname)) answer = loc->location;
    bench::score_answer(scores[suffix]["hoiho"], dict, answer, router_truth);

    // HLOC (run-time; cannot probe nysernet).
    answer = geo::kInvalidLocation;
    const bool reachable = !sc.hloc_unreachable.contains(suffix);
    if (const auto loc = hloc.locate(*host, truth.router, sc.pings, reachable))
      answer = *loc;
    bench::score_answer(scores[suffix]["hloc"], dict, answer, router_truth);

    // DRoP.
    answer = geo::kInvalidLocation;
    if (const auto loc = drop.locate(*host)) answer = *loc;
    bench::score_answer(scores[suffix]["drop"], dict, answer, router_truth);

    // undns.
    answer = geo::kInvalidLocation;
    if (const auto loc = undns.locate(*host)) answer = *loc;
    bench::score_answer(scores[suffix]["undns"], dict, answer, router_truth);
  }

  std::printf("Figure 9: router geolocation from hostnames, per validation network\n");
  std::printf("(TP%% / FP%% of hostnames with geohints; rest are FN)\n\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"suffix", "#hosts", "hoiho", "hloc", "drop", "undns"});
  std::map<std::string, double> tp_sum, fptotal, tpn, fpn;
  for (const std::string& suffix : sc.suffixes) {
    std::vector<std::string> row = {suffix,
                                    std::to_string(scores[suffix]["hoiho"].with_geohint)};
    for (const std::string& m : methods) {
      const bench::MethodScore& s = scores[suffix][m];
      row.push_back(util::fmt_double(s.tp_pct(), 1) + "/" + util::fmt_double(s.fp_pct(), 1));
      tp_sum[m] += s.tp_pct();
      tpn[m] += static_cast<double>(s.tp);
      fpn[m] += static_cast<double>(s.fp);
    }
    rows.push_back(row);
  }
  std::vector<std::string> avg = {"average TP%", ""};
  std::vector<std::string> ppv = {"PPV", ""};
  for (const std::string& m : methods) {
    avg.push_back(util::fmt_double(tp_sum[m] / static_cast<double>(sc.suffixes.size()), 1));
    ppv.push_back(util::fmt_pct(tpn[m], tpn[m] + fpn[m]));
  }
  rows.push_back(avg);
  rows.push_back(ppv);
  bench::print_table(rows);

  std::printf("\nPaper: average TP%% hoiho 94.0, hloc 73.1, drop 56.6;\n");
  std::printf("PPV hoiho 95.6%%, hloc 85.1%%, drop 87.2%%, undns 98.3%%.\n");
  return 0;
}
