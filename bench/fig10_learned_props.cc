// Reproduces paper Figure 10: properties of learned geohints.
//
// (a) CDF of the shortest RTT from a VP to routers using each learned hint.
//     Paper: 48.6% of learned hints within 10 ms (1000 km) of a VP; 80%
//     within 22 ms.
// (b) CDF of the distance from the learned location to the airport whose
//     IATA code the hint collides with. Paper: 93.5% more than 1000 km
//     away; median >= 7600 km — i.e. learned meanings are usually far from
//     the dictionary meaning, which is why learning matters.
#include <cstdio>
#include <map>

#include "common.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  const double scale = bench::parse_args(argc, argv, /*takes_scale=*/true);
  sim::WorldConfig config;
  config.seed = 515151;  // same world as table5_learned_hints
  config.operators = static_cast<std::size_t>(220 * scale);
  config.geohint_scheme_rate = 0.6;
  config.custom_operator_rate = 0.65;
  config.size_xm = 8.0;   // transit-heavy operator mix
  config.vp_count = 40;   // paper-like VP sparsity relative to the atlas
  const sim::World world = sim::generate_world(geo::builtin_dictionary(), config);
  const auto meas = sim::probe_pings(world, {});
  const core::HoihoResult result = bench::run_hoiho(world, meas);
  const geo::GeoDictionary& dict = *world.dict;

  std::vector<double> closest_rtts, collision_distances;
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    for (const auto& [key, loc] : sr.nc.learned) {
      // Shortest RTT from any VP to the routers that use this hint.
      double best = 1e18;
      for (std::size_t i = 0; i < sr.eval.per_hostname.size(); ++i) {
        if (sr.eval.per_hostname[i].code != key.second) continue;
        const auto closest = meas.pings.closest_vp(sr.tagged[i].ref.router);
        if (closest) best = std::min(best, closest->second);
      }
      if (best < 1e17) closest_rtts.push_back(best);

      // Distance to the dictionary meaning, when the code collides.
      for (const geo::LocationId dict_loc : dict.lookup(key.first, key.second)) {
        collision_distances.push_back(
            geo::distance_km(dict.location(loc).coord, dict.location(dict_loc).coord));
        break;
      }
    }
  }

  std::printf("Figure 10(a): shortest VP RTT to learned-hint routers (n=%zu)\n\n",
              closest_rtts.size());
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"percentile", "RTT (ms)"});
  for (const double p : {10.0, 25.0, 48.6, 50.0, 80.0, 90.0}) {
    rows.push_back({"p" + util::fmt_double(p, 1),
                    util::fmt_double(bench::percentile(closest_rtts, p), 1)});
  }
  bench::print_table(rows);
  std::size_t within10 = 0, within22 = 0;
  for (const double r : closest_rtts) {
    if (r <= 10) ++within10;
    if (r <= 22) ++within22;
  }
  std::printf("\nwithin 10 ms: %s (paper 48.6%%);  within 22 ms: %s (paper 80%%)\n",
              util::fmt_pct(static_cast<double>(within10),
                            static_cast<double>(closest_rtts.size()))
                  .c_str(),
              util::fmt_pct(static_cast<double>(within22),
                            static_cast<double>(closest_rtts.size()))
                  .c_str());

  std::printf("\nFigure 10(b): distance from learned location to same-code airport (n=%zu)\n\n",
              collision_distances.size());
  rows.clear();
  rows.push_back({"percentile", "km"});
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
    rows.push_back({"p" + util::fmt_double(p, 0),
                    util::fmt_double(bench::percentile(collision_distances, p), 0)});
  }
  bench::print_table(rows);
  std::size_t over1000 = 0;
  for (const double d : collision_distances)
    if (d > 1000) ++over1000;
  std::printf("\nmore than 1000 km from the airport: %s (paper 93.5%%)\n",
              util::fmt_pct(static_cast<double>(over1000),
                            static_cast<double>(collision_distances.size()))
                  .c_str());
  return 0;
}
