// Reproduces paper Table 5: the most frequently learned three-letter
// geohints across suffixes, with the IATA "alternatives" operators could
// have used for those locations.
//
// Paper: ash (Ashburn, 12 suffixes), tor (Toronto, 10), wdc (Washington, 9),
// tok (Tokyo, 8), zur (Zurich, 8), ldn (London, 7); four of the six collide
// with real IATA codes.
#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  const double scale = bench::parse_args(argc, argv, /*takes_scale=*/true);
  sim::WorldConfig config;
  config.seed = 515151;
  config.operators = static_cast<std::size_t>(220 * scale);
  config.geohint_scheme_rate = 0.6;
  config.custom_operator_rate = 0.65;
  config.size_xm = 8.0;     // transit-heavy operator mix
  const sim::World world = sim::generate_world(geo::builtin_dictionary(), config);
  const auto meas = sim::probe_pings(world, {});
  const core::HoihoResult result = bench::run_hoiho(world, meas);
  const geo::GeoDictionary& dict = *world.dict;

  // Aggregate learned three-letter hints across suffixes.
  struct HintAgg {
    std::size_t suffixes = 0;
    std::map<geo::LocationId, std::size_t> locations;
  };
  std::map<std::string, HintAgg> agg;
  // Count of suffixes using each dictionary code at each location (for the
  // "alternatives" column).
  std::map<std::string, std::size_t> dict_code_suffixes;
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    for (const auto& [key, loc] : sr.nc.learned) {
      if (key.first != geo::HintType::kIata) continue;
      HintAgg& a = agg[key.second];
      ++a.suffixes;
      ++a.locations[loc];
    }
    for (const std::string& code : sr.eval.unique_tp_codes) {
      if (code.size() == 3 && !dict.lookup(geo::HintType::kIata, code).empty())
        ++dict_code_suffixes[code];
    }
  }

  std::vector<std::pair<std::string, HintAgg>> sorted(agg.begin(), agg.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.second.suffixes > b.second.suffixes; });

  std::printf("Table 5: most frequently learned three-letter geohints (scale=%.2f)\n\n", scale);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"collides", "hint", "#suffixes", "location", "alternatives"});
  std::size_t shown = 0;
  for (const auto& [code, a] : sorted) {
    if (shown++ >= 8) break;
    // Majority location.
    geo::LocationId major = a.locations.begin()->first;
    for (const auto& [loc, n] : a.locations)
      if (n > a.locations.at(major)) major = loc;
    const geo::Location& loc = dict.location(major);
    std::string where = loc.city;
    if (!loc.state.empty()) where += ", " + loc.state;
    where += ", " + loc.country;
    // Alternatives: dictionary IATA codes within 100 km of the location.
    std::string alternatives;
    for (geo::LocationId id = 0; id < dict.size(); ++id) {
      if (geo::distance_km(dict.location(id).coord, loc.coord) > 100) continue;
      for (const std::string& alt : dict.codes(id).iata) {
        if (!alternatives.empty()) alternatives += ", ";
        alternatives += alt + ":" + std::to_string(dict_code_suffixes[alt]);
      }
    }
    const bool collides = !dict.lookup(geo::HintType::kIata, code).empty();
    rows.push_back({collides ? "(x)" : "   ", code, std::to_string(a.suffixes), where,
                    alternatives});
  }
  bench::print_table(rows);

  std::printf("\nPaper: ash:12, tor:10, wdc:9, tok:8, zur:8, ldn:7; 4 of 6 collide with IATA.\n");

  // Headline §6.2 statistic: fraction of usable IATA NCs with >= 1 learned hint.
  std::size_t iata_ncs = 0, with_custom = 0;
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    if (sr.nc.regexes.front().plan.primary() != core::Role::kIata) continue;
    ++iata_ncs;
    for (const auto& [key, loc] : sr.nc.learned)
      if (key.first == geo::HintType::kIata) {
        ++with_custom;
        break;
      }
  }
  std::printf("usable IATA NCs with >=1 learned hint: %s (paper: 147/461 = 38.2%%)\n",
              util::fmt_pct(static_cast<double>(with_custom), static_cast<double>(iata_ncs))
                  .c_str());
  return 0;
}
