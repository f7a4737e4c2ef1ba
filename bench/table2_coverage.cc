// Reproduces paper Table 2: coverage of usable naming conventions on each
// ITDK — routers with hostnames, with apparent geohints, and geolocated by
// usable (good/promising) NCs.
//
// Paper: ~8.8%/8.5% of IPv4 and ~5.3%/5.8% of IPv6 routers have apparent
// geohints; usable NCs extract 83.4-89.6% of them (7.6%/7.1%/4.7%/5.2% of
// all routers geolocated).
#include <cstdio>
#include <set>

#include "common.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  const double scale = bench::parse_args(argc, argv, /*takes_scale=*/true);
  std::printf("Table 2: Coverage of usable NCs (synthetic, scale=%.2f)\n\n", scale);

  std::vector<std::string> total = {"total"}, hostnames = {"with hostname"},
                           apparent = {"with apparent geohint"}, located = {"geolocated"},
                           extracted = {"(%% of apparent extracted)"};
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Routers", "IPv4 Aug '20", "IPv4 Mar '21", "IPv6 Nov '20", "IPv6 Mar '21"});

  for (const sim::ItdkKind kind : {sim::ItdkKind::kIpv4Aug20, sim::ItdkKind::kIpv4Mar21,
                                   sim::ItdkKind::kIpv6Nov20, sim::ItdkKind::kIpv6Mar21}) {
    const sim::ItdkScenario sc = sim::make_itdk(kind, scale);
    const core::HoihoResult result = bench::run_hoiho(sc.world, sc.pings);

    const std::size_t n = sc.world.topology.size();
    const std::size_t with_host = sc.world.topology.count_with_hostname();

    // Routers with >= 1 hostname carrying an apparent geohint; routers
    // geolocated (TP under a usable NC).
    std::set<topo::RouterId> tagged_routers, located_routers;
    std::size_t apparent_hostnames = 0, extracted_hostnames = 0;
    for (const core::SuffixResult& sr : result.suffixes) {
      for (std::size_t i = 0; i < sr.tagged.size(); ++i) {
        if (!sr.tagged[i].has_hint()) continue;
        ++apparent_hostnames;
        tagged_routers.insert(sr.tagged[i].ref.router);
        if (sr.usable() && i < sr.eval.per_hostname.size() &&
            sr.eval.per_hostname[i].outcome == core::Outcome::kTP) {
          ++extracted_hostnames;
          located_routers.insert(sr.tagged[i].ref.router);
        }
      }
    }

    total.push_back(util::fmt_count(n));
    hostnames.push_back(util::fmt_count(with_host) + " (" +
                        util::fmt_pct(static_cast<double>(with_host), static_cast<double>(n)) + ")");
    apparent.push_back(util::fmt_count(tagged_routers.size()) + " (" +
                       util::fmt_pct(static_cast<double>(tagged_routers.size()),
                                     static_cast<double>(n)) +
                       ")");
    located.push_back(util::fmt_count(located_routers.size()) + " (" +
                      util::fmt_pct(static_cast<double>(located_routers.size()),
                                    static_cast<double>(n)) +
                      ")");
    extracted.push_back(util::fmt_pct(static_cast<double>(extracted_hostnames),
                                      static_cast<double>(apparent_hostnames)));
  }
  rows.push_back(total);
  rows.push_back(hostnames);
  rows.push_back(apparent);
  rows.push_back(located);
  rows.push_back(extracted);
  bench::print_table(rows);

  std::printf("\nPaper: usable NCs extracted 83.4-89.6%% of apparent geohints.\n");
  return 0;
}
