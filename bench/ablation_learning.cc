// The paper's stage-4 ablation (§6.1): with learned geohints Hoiho
// correctly geolocates 94.0% of hostnames with a geohint (PPV 95.6%);
// without learning, 82.4% (PPV 94.5%).
#include <cstdio>

#include "common.h"
#include "core/geolocate.h"
#include "util/strings.h"

using namespace hoiho;

namespace {

bench::MethodScore score_run(const sim::ValidationScenario& sc, bool enable_learning) {
  core::HoihoConfig config;
  config.enable_learning = enable_learning;
  const core::HoihoResult result = bench::run_hoiho(sc.world, sc.pings, config);
  core::Geolocator geolocator(*sc.world.dict);
  for (const core::SuffixResult& sr : result.suffixes)
    if (sr.usable()) geolocator.add(sr.nc);

  bench::MethodScore score;
  for (const sim::HostnameTruth& truth : sc.world.truths) {
    if (!truth.has_geohint) continue;
    geo::LocationId answer = geo::kInvalidLocation;
    if (const auto loc = geolocator.locate(truth.hostname)) answer = loc->location;
    bench::score_answer(score, *sc.world.dict, answer,
                        sc.world.topology.router(truth.router).true_location);
  }
  return score;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, /*takes_scale=*/false);
  const sim::ValidationScenario sc = sim::make_validation();

  std::printf("Ablation: stage-4 geohint learning on/off (validation scenario)\n\n");
  const bench::MethodScore with = score_run(sc, true);
  const bench::MethodScore without = score_run(sc, false);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"configuration", "hostnames", "correct", "TP%", "PPV"});
  rows.push_back({"with learned geohints", std::to_string(with.with_geohint),
                  std::to_string(with.tp), util::fmt_double(with.tp_pct(), 1),
                  util::fmt_double(with.ppv(), 1)});
  rows.push_back({"without learned geohints", std::to_string(without.with_geohint),
                  std::to_string(without.tp), util::fmt_double(without.tp_pct(), 1),
                  util::fmt_double(without.ppv(), 1)});
  bench::print_table(rows);

  std::printf("\nPaper: 94.0%% / PPV 95.6%% with learning vs 82.4%% / PPV 94.5%% without.\n");
  return 0;
}
