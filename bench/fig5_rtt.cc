// Reproduces paper Figure 5: why follow-up pings beat traceroute-observed
// RTTs as geolocation constraints.
//
// (a) CDF of the minimum RTT per router: ping campaign vs RTTs observed in
//     the traceroutes that built the ITDK. Paper: median 16 ms (ping) vs
//     68 ms (traceroute) — 4.25x, i.e. a ~180x larger feasible area (pi r^2).
// (b) Number of VPs with a sample per router: paper: 35.8% of routers seen
//     by one VP in traceroute; pings obtained samples from ~89% of VPs.
#include <cstdio>

#include "common.h"
#include "geo/coord.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  const double scale = bench::parse_args(argc, argv, /*takes_scale=*/true);
  const sim::ItdkScenario sc = sim::make_itdk(sim::ItdkKind::kIpv4Aug20, scale);

  std::vector<double> ping_min, trace_min, ping_frac, trace_single;
  std::size_t trace_one_vp = 0, trace_routers = 0;
  double vp_sample_fraction_sum = 0;
  std::size_t responsive = 0;
  for (const topo::Router& r : sc.world.topology.routers()) {
    const auto p = sc.pings.pings.closest_vp(r.id);
    if (p) {
      ping_min.push_back(p->second);
      ++responsive;
      vp_sample_fraction_sum += static_cast<double>(sc.pings.pings.sample_count(r.id)) /
                                static_cast<double>(sc.pings.vps.size());
    }
    const auto t = sc.traces.pings.closest_vp(r.id);
    if (t) {
      trace_min.push_back(t->second);
      ++trace_routers;
      if (sc.traces.pings.sample_count(r.id) == 1) ++trace_one_vp;
    }
  }

  std::printf("Figure 5(a): CDF of minimum RTT per router (ms)\n\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"percentile", "ping (ms)", "traceroute (ms)"});
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0}) {
    rows.push_back({"p" + util::fmt_double(p, 0), util::fmt_double(bench::percentile(ping_min, p), 1),
                    util::fmt_double(bench::percentile(trace_min, p), 1)});
  }
  bench::print_table(rows);

  const double med_ping = bench::percentile(ping_min, 50);
  const double med_trace = bench::percentile(trace_min, 50);
  const double r_ping = geo::max_distance_km(med_ping);
  const double r_trace = geo::max_distance_km(med_trace);
  std::printf(
      "\nmedian ping %.1f ms vs traceroute %.1f ms: %.2fx RTT, %.0fx feasible area (pi r^2)\n",
      med_ping, med_trace, med_trace / med_ping,
      (r_trace * r_trace) / (r_ping * r_ping));
  std::printf("paper: 16 ms vs 68 ms: 4.25x RTT, 180x area\n");

  std::printf("\nFigure 5(b): vantage points with a sample, per router\n\n");
  std::printf("routers observed by exactly one VP in traceroute: %s (paper: 35.8%%)\n",
              util::fmt_pct(static_cast<double>(trace_one_vp),
                            static_cast<double>(trace_routers))
                  .c_str());
  std::printf("mean fraction of VPs with ping samples (responsive routers): %s (paper: 89.4%%)\n",
              util::fmt_pct(vp_sample_fraction_sum, static_cast<double>(responsive)).c_str());
  return 0;
}
