#include "sim/probing.h"

#include <algorithm>

#include "geo/coord.h"
#include "util/rng.h"

namespace hoiho::sim {

namespace {

double sample_rtt(util::Rng& rng, double base_ms, double inflation_min, double inflation_max,
                  double noise_min, double noise_max) {
  const double inflation = rng.next_range(inflation_min, inflation_max);
  const double noise = rng.next_range(noise_min, noise_max);
  return base_ms * inflation + noise;
}

}  // namespace

void probe_pings_range(const geo::GeoDictionary& dict, const measure::ExpectedRttGrid& grid,
                       const topo::Topology& topology, topo::RouterId begin, topo::RouterId end,
                       const PingConfig& config, util::Rng& rng, measure::Measurements& meas) {
  for (topo::RouterId r = begin; r < end; ++r) {
    const topo::Router& router = topology.router(r);
    if (!rng.next_bool(config.router_response_rate)) continue;
    geo::Coordinate at = dict.location(router.true_location).coord;
    bool direct = !at.valid();  // the grid holds NaN for invalid coordinates
    // Anycast contamination: the RTTs describe a random VP's city instead
    // of the router's true location. Guarded so the default (0) takes no
    // rng draw and existing seeded campaigns are unchanged.
    if (config.anycast_rate > 0 && !meas.vps.empty() &&
        rng.next_bool(config.anycast_rate)) {
      at = meas.vps[rng.next_below(meas.vps.size())].coord;
      direct = true;
    }
    for (measure::VpId v = 0; v < meas.vps.size(); ++v) {
      if (!rng.next_bool(config.vp_sample_rate)) continue;
      const double base = direct ? geo::min_rtt_ms(at, meas.vps[v].coord)
                                 : grid.at(router.true_location, v);
      meas.pings.record(router.id, v, sample_rtt(rng, base, config.inflation_min,
                                                 config.inflation_max, config.noise_min_ms,
                                                 config.noise_max_ms));
    }
  }
}

measure::Measurements probe_pings(const World& world, const PingConfig& config) {
  util::Rng rng(config.seed);
  measure::Measurements meas(world.vps, world.topology.size());
  const measure::ExpectedRttGrid grid(*world.dict, meas.vps);
  probe_pings_range(*world.dict, grid, world.topology, 0,
                    static_cast<topo::RouterId>(world.topology.size()), config, rng, meas);
  return meas;
}

measure::Measurements probe_traceroutes(const World& world, const TraceConfig& config) {
  util::Rng rng(config.seed);
  measure::Measurements meas(world.vps, world.topology.size());
  const geo::GeoDictionary& dict = *world.dict;
  if (meas.vps.empty()) return meas;
  // The pool of observer VPs per router: the nearest fraction, minus the
  // single closest VP (which rarely happens to traceroute through it).
  const std::size_t pool_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(meas.vps.size()) *
                                  config.nearest_fraction));
  std::vector<std::pair<double, measure::VpId>> by_distance(meas.vps.size());
  for (const topo::Router& router : world.topology.routers()) {
    if (!rng.next_bool(config.router_seen_rate)) continue;
    const geo::Coordinate& at = dict.location(router.true_location).coord;
    for (measure::VpId v = 0; v < meas.vps.size(); ++v)
      by_distance[v] = {geo::distance_km(at, meas.vps[v].coord), v};
    std::sort(by_distance.begin(), by_distance.end());
    std::size_t n_vps = 1;
    if (!rng.next_bool(config.p_single_vp) && config.max_vps > 1) {
      n_vps = 2 + rng.next_below(config.max_vps - 1);
    }
    for (std::size_t k = 0; k < n_vps; ++k) {
      // Skip the closest VP when the pool allows it.
      const std::size_t lo = pool_size > 2 ? 1 : 0;
      const std::size_t pick = lo + rng.next_below(pool_size - lo);
      const measure::VpId v = by_distance[pick].second;
      const double base = geo::min_rtt_ms(at, meas.vps[v].coord);
      meas.pings.record(router.id, v, sample_rtt(rng, base, config.inflation_min,
                                                 config.inflation_max, config.noise_min_ms,
                                                 config.noise_max_ms));
    }
  }
  return meas;
}

}  // namespace hoiho::sim
