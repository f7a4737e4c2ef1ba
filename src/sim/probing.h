// Probing simulator: generates the RTT measurements a real campaign would
// (paper §5.1.4 and fig. 5).
//
// Two models:
//   * probe_pings — the paper's follow-up ping campaign: every VP probes
//     every responsive router; RTT = best-case(great-circle) x inflation +
//     noise, inflation >= inflation_min so the physical invariant
//     (measured >= speed-of-light bound) always holds.
//   * probe_traceroutes — the RTTs that happen to be observed in the
//     traceroutes that built the ITDK (DRoP's only input): each router is
//     seen from only a few VPs, with larger path inflation. This reproduces
//     the fig. 5 gap (median traceroute RTT ~4x the ping RTT; ~36% of
//     routers seen from a single VP).
#pragma once

#include "measure/consistency_cache.h"
#include "measure/rtt_matrix.h"
#include "sim/internet.h"

namespace hoiho::sim {

struct PingConfig {
  std::uint64_t seed = 2;
  double router_response_rate = 0.82;  // routers answering any probe
  double vp_sample_rate = 0.95;        // per-VP success, given responsive
  double inflation_min = 1.15;         // path stretch over great-circle
  double inflation_max = 2.2;
  double noise_min_ms = 0.5;           // access networks, queueing, processing
  double noise_max_ms = 4.0;

  // Anycast-style contamination (src/fuse/ robustness stress): an affected
  // router's RTTs are sampled as if it sat at a random VP's city — every
  // vantage point then sees latency consistent with somewhere other than
  // the router's true location, the signature of an anycast or
  // tunnel-terminated address. 0 (the default) takes no rng draw, keeping
  // seeded campaigns byte-identical.
  double anycast_rate = 0.0;
};

measure::Measurements probe_pings(const World& world, const PingConfig& config = {});

// Range form of probe_pings, for streaming generation: probes routers
// [begin, end) of `topology` (which must carry true locations) from
// `meas.vps`, recording into `meas.pings`. Drawing from one rng across the
// whole range reproduces probe_pings exactly; the streaming generator
// instead calls this once per suffix with a per-suffix rng so the samples
// are independent of batch boundaries.
//
// Routers only ever sit at dictionary locations, so the speed-of-light base
// RTT of a sample is read from `grid`, which must be built over `dict` and
// `meas.vps` (it holds exactly geo::min_rtt_ms(location, VP)). Anycast
// routers and locations without a valid coordinate have no grid cell and
// compute it directly.
void probe_pings_range(const geo::GeoDictionary& dict, const measure::ExpectedRttGrid& grid,
                       const topo::Topology& topology, topo::RouterId begin, topo::RouterId end,
                       const PingConfig& config, util::Rng& rng, measure::Measurements& meas);

struct TraceConfig {
  std::uint64_t seed = 3;
  double router_seen_rate = 1.0;   // routers appearing in any traceroute
  double p_single_vp = 0.36;       // routers observed by exactly one VP
  std::size_t max_vps = 6;         // otherwise 2..max_vps observers
  // Observing VPs are drawn from the nearest `nearest_fraction` of VPs —
  // paths that traverse a router tend to start in its region, but the
  // observing VP is rarely the *closest* one (paper §5.1.4).
  double nearest_fraction = 0.35;
  double inflation_min = 1.3;      // indirect forward paths
  double inflation_max = 3.0;
  double noise_min_ms = 2.0;
  double noise_max_ms = 12.0;
};

measure::Measurements probe_traceroutes(const World& world, const TraceConfig& config = {});

}  // namespace hoiho::sim
