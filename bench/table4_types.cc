// Reproduces paper Table 4: good/promising NCs by geohint type and whether
// the convention also embeds a state and/or country code.
//
// Paper (Aug '20 IPv4, good NCs): IATA 51.7%, city names 38.9%, CLLI 12.1%,
// LOCODE 1.3%, facility 0.3%; IATA conventions embed a country code far
// more often (23.6% incl. state) than city/CLLI conventions do.
#include <cstdio>
#include <map>

#include "common.h"
#include "util/strings.h"

using namespace hoiho;

namespace {

struct TypeCounts {
  std::size_t none = 0, state = 0, country = 0, both = 0;
  std::size_t total() const { return none + state + country + both; }
};

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::parse_args(argc, argv, /*takes_scale=*/true);
  std::printf("Table 4: NC geohint types and annotations (IPv4 Aug '20 style, scale=%.2f)\n\n",
              scale);

  const sim::ItdkScenario sc = sim::make_itdk(sim::ItdkKind::kIpv4Aug20, scale);
  const core::HoihoResult result = bench::run_hoiho(sc.world, sc.pings);

  std::map<core::Role, TypeCounts> good, promising;
  std::size_t n_good = 0, n_promising = 0;
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    auto& table = sr.cls == core::NcClass::kGood ? good : promising;
    (sr.cls == core::NcClass::kGood ? n_good : n_promising)++;
    // Classify by the primary role of the NC's top regex; annotations by
    // what any regex in the NC extracts.
    const core::Role primary = sr.nc.regexes.front().plan.primary();
    const bool has_cc = sr.nc.regexes.front().plan.extracts(core::Role::kCountryCode);
    const bool has_st = sr.nc.regexes.front().plan.extracts(core::Role::kStateCode);
    TypeCounts& counts = table[primary];
    if (has_cc && has_st) ++counts.both;
    else if (has_cc) ++counts.country;
    else if (has_st) ++counts.state;
    else ++counts.none;
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Geohint", "Annotation", "Good", "", "Promising", ""});
  const auto pct = [](std::size_t v, std::size_t total) {
    return total == 0 ? std::string("-")
                      : "(" + util::fmt_pct(static_cast<double>(v), static_cast<double>(total)) + ")";
  };
  for (const auto role : {core::Role::kIata, core::Role::kCityName, core::Role::kClli,
                          core::Role::kLocode, core::Role::kFacility}) {
    const TypeCounts g = good.count(role) ? good[role] : TypeCounts{};
    const TypeCounts p = promising.count(role) ? promising[role] : TypeCounts{};
    const std::string name(to_string(role));
    rows.push_back({name, "- none", std::to_string(g.none), pct(g.none, n_good),
                    std::to_string(p.none), pct(p.none, n_promising)});
    rows.push_back({"", "- state", std::to_string(g.state), pct(g.state, n_good),
                    std::to_string(p.state), pct(p.state, n_promising)});
    rows.push_back({"", "- country", std::to_string(g.country), pct(g.country, n_good),
                    std::to_string(p.country), pct(p.country, n_promising)});
    rows.push_back({"", "- both", std::to_string(g.both), pct(g.both, n_good),
                    std::to_string(p.both), pct(p.both, n_promising)});
    rows.push_back({"", "- total", std::to_string(g.total()), pct(g.total(), n_good),
                    std::to_string(p.total()), pct(p.total(), n_promising)});
  }
  rows.push_back({"Overall", "", std::to_string(n_good), "", std::to_string(n_promising), ""});
  bench::print_table(rows);

  std::printf(
      "\nPaper (good NCs): IATA 51.7%%, city 38.9%%, CLLI 12.1%%, LOCODE 1.3%%, facility 0.3%%.\n");
  return 0;
}
