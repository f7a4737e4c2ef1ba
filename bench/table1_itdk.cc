// Reproduces paper Table 1: summary of the (synthetic) ITDKs — router
// counts, hostname coverage, RTT coverage, and vantage points.
//
// Paper values for reference: IPv4 2.56M/2.57M routers with ~55%/54%
// hostnames and ~82% RTT coverage from 106/100 VPs; IPv6 559K/525K routers
// with ~15%/16% hostnames and ~47%/45% RTT coverage from 46/39 VPs.
#include <cstdio>

#include "common.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  const double scale = bench::parse_args(argc, argv, /*takes_scale=*/true);
  std::printf("Table 1: Summary of ITDKs used in this work (synthetic, scale=%.2f)\n\n", scale);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Routers", "IPv4 Aug '20", "IPv4 Mar '21", "IPv6 Nov '20", "IPv6 Mar '21"});

  std::vector<std::string> total = {"total"}, hostnames = {"w/ hostnames"},
                           rtt = {"w/ RTT"}, vps = {"Vantage Points"};
  for (const sim::ItdkKind kind : {sim::ItdkKind::kIpv4Aug20, sim::ItdkKind::kIpv4Mar21,
                                   sim::ItdkKind::kIpv6Nov20, sim::ItdkKind::kIpv6Mar21}) {
    const sim::ItdkScenario sc = sim::make_itdk(kind, scale);
    const std::size_t n = sc.world.topology.size();
    const std::size_t with_host = sc.world.topology.count_with_hostname();
    const std::size_t with_rtt = sc.pings.pings.responsive_router_count();
    total.push_back(util::fmt_count(n));
    hostnames.push_back(util::fmt_count(with_host) + " (" +
                        util::fmt_pct(static_cast<double>(with_host), static_cast<double>(n)) +
                        ")");
    rtt.push_back(util::fmt_count(with_rtt) + " (" +
                  util::fmt_pct(static_cast<double>(with_rtt), static_cast<double>(n)) + ")");
    vps.push_back(std::to_string(sc.pings.vps.size()));
  }
  rows.push_back(total);
  rows.push_back(hostnames);
  rows.push_back(rtt);
  rows.push_back(vps);
  bench::print_table(rows);

  std::printf(
      "\nPaper: IPv4 hostname coverage ~55%%, RTT ~82%%; IPv6 hostname ~15-16%%, RTT ~45-47%%.\n");
  return 0;
}
