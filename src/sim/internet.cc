#include "sim/internet.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "geo/coord.h"
#include "util/strings.h"

namespace hoiho::sim {

namespace {

// Synthetic operator name material.
const std::vector<std::string> kSyllables = {
    "tel", "net", "ver", "lum", "glo", "pac", "atla", "nor", "sur", "col",
    "era", "via", "zen", "arc", "omni", "uni", "den", "fib", "lin", "kor",
    "mira", "sol", "vex", "qui", "bel", "tra", "san", "pol", "gri", "hex",
};

const std::vector<std::string> kTlds = {
    "net", "net", "net", "com", "com", "org", "eu", "io", "net.au", "co.uk", "de", "jp",
};

std::string make_suffix(util::Rng& rng, std::set<std::string>& used) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string name = kSyllables[rng.next_below(kSyllables.size())] +
                       kSyllables[rng.next_below(kSyllables.size())];
    if (rng.next_bool(0.3)) name += kSyllables[rng.next_below(kSyllables.size())];
    if (rng.next_bool(0.2)) name += std::to_string(rng.next_int(1, 9));
    const std::string suffix = name + "." + kTlds[rng.next_below(kTlds.size())];
    if (used.insert(suffix).second) return suffix;
  }
  // Fall back to a counter-based unique name.
  std::string suffix = "op" + std::to_string(used.size()) + ".net";
  used.insert(suffix);
  return suffix;
}

std::string make_address(bool ipv6, std::size_t n) {
  if (ipv6) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "2001:db8:%zx:%zx::%zx", (n >> 24) & 0xffff,
                  (n >> 12) & 0xfff, n & 0xfff);
    return buf;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "10.%zu.%zu.%zu", (n >> 16) & 255, (n >> 8) & 255, n & 255);
  return buf;
}

}  // namespace

std::vector<measure::VantagePoint> make_vps(const geo::GeoDictionary& dict, std::size_t count) {
  std::vector<geo::LocationId> ids(dict.size());
  for (geo::LocationId i = 0; i < dict.size(); ++i) ids[i] = i;
  std::stable_sort(ids.begin(), ids.end(), [&](geo::LocationId a, geo::LocationId b) {
    const geo::Location& la = dict.location(a);
    const geo::Location& lb = dict.location(b);
    if (la.has_facility != lb.has_facility) return la.has_facility;
    return la.population > lb.population;
  });
  std::vector<measure::VantagePoint> vps;
  for (geo::LocationId id : ids) {
    if (vps.size() >= count) break;
    const geo::Location& loc = dict.location(id);
    measure::VantagePoint vp;
    const geo::LocationCodes& codes = dict.codes(id);
    vp.name = !codes.iata.empty() ? codes.iata.front()
                                  : geo::squash_place_name(loc.city).substr(0, 4);
    vp.country = loc.country;
    vp.coord = loc.coord;
    vps.push_back(std::move(vp));
  }
  return vps;
}

LocationPools build_location_pools(const geo::GeoDictionary& dict) {
  LocationPools pools;
  for (geo::LocationId id = 0; id < dict.size(); ++id) {
    pools.all.push_back(id);
    const geo::LocationCodes& codes = dict.codes(id);
    if (!codes.iata.empty()) pools.with_iata.push_back(id);
    if (!codes.clli.empty()) pools.with_clli.push_back(id);
    if (!codes.locode.empty()) pools.with_locode.push_back(id);
    if (!dict.facility_addresses(id).empty()) pools.with_facility.push_back(id);
    if (!dict.location(id).state.empty()) pools.with_state.push_back(id);
  }
  // Ambiguous-name losers: a squashed city name shared with a sibling,
  // where the sibling wins the Geolocator's facility-then-population
  // tiebreak (core/geolocate.cc) — hostname-only extraction resolves the
  // name to the winner, so a router actually at a loser is mislocated.
  for (geo::LocationId id = 0; id < dict.size(); ++id) {
    const auto siblings =
        dict.lookup(geo::HintType::kCityName, geo::squash_place_name(dict.location(id).city));
    if (siblings.size() < 2) continue;
    geo::LocationId winner = siblings.front();
    for (geo::LocationId s : siblings) {
      const geo::Location& a = dict.location(s);
      const geo::Location& w = dict.location(winner);
      const bool better = a.has_facility != w.has_facility ? a.has_facility
                                                           : a.population > w.population;
      if (better) winner = s;
    }
    if (id != winner) pools.ambiguous_losers.push_back(id);
  }
  // Well-known custom-hint locations (paper table 5): looked up once.
  for (const char* name : {"Ashburn", "Toronto", "Washington", "Tokyo", "Zurich", "London"}) {
    const auto ids = dict.lookup(geo::HintType::kCityName, geo::squash_place_name(name));
    for (geo::LocationId id : ids) {
      const geo::Location& loc = dict.location(id);
      // Disambiguate to the famous instance (facility-bearing).
      if (loc.has_facility) {
        pools.well_known.push_back(id);
        break;
      }
    }
  }
  return pools;
}

topo::RouterId render_operator(const OperatorSpec& spec, const geo::GeoDictionary& dict,
                               bool ipv6, double hostname_rate, double stale_rate,
                               std::size_t& addr_counter, util::Rng& rng,
                               topo::Topology& topology, std::vector<HostnameTruth>& truths) {
  const topo::RouterId first = static_cast<topo::RouterId>(topology.size());

  // Population weights (dampened) over the footprint for router placement:
  // router deployment correlates with population density (Lakhina et al.)
  // but operators deploy several routers even at their smaller sites.
  std::vector<double> weights;
  weights.reserve(spec.footprint.size());
  for (geo::LocationId id : spec.footprint)
    weights.push_back(std::sqrt(1.0 + static_cast<double>(dict.location(id).population)));

  // A PoP is typically a handful of routers: place up to four per footprint
  // site round-robin, then spread the remainder by population.
  const std::size_t guaranteed =
      std::min(spec.router_count, 4 * std::max<std::size_t>(1, spec.footprint.size()));
  for (std::size_t i = 0; i < spec.router_count; ++i) {
    const geo::LocationId loc = i < guaranteed
                                    ? spec.footprint[i % spec.footprint.size()]
                                    : spec.footprint[rng.next_weighted(weights)];
    const topo::RouterId rid = topology.add_router(loc);
    const bool named = rng.next_bool(hostname_rate);
    const std::size_t n_ifaces = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < n_ifaces; ++k) {
      const std::string addr = make_address(ipv6, ++addr_counter);
      if (!named) {
        topology.add_interface(rid, addr, {});
        continue;
      }
      // Stale hostname: the name encodes a different footprint city.
      geo::LocationId intended = loc;
      bool stale = false;
      if (spec.footprint.size() > 1 && rng.next_bool(stale_rate)) {
        for (int attempt = 0; attempt < 4; ++attempt) {
          const geo::LocationId other = spec.footprint[rng.next_weighted(weights)];
          if (other != loc) {
            intended = other;
            stale = true;
            break;
          }
        }
      }
      const auto rendered = render_hostname(spec.scheme, dict, intended, spec.suffix, rng);
      if (!rendered) {
        topology.add_interface(rid, addr, {});
        continue;
      }
      topology.add_interface(rid, addr, rendered->hostname);
      HostnameTruth truth;
      truth.router = rid;
      truth.hostname = rendered->hostname;
      truth.has_geohint = rendered->has_geohint;
      truth.intended = rendered->has_geohint ? intended : geo::kInvalidLocation;
      truth.stale = stale && rendered->has_geohint;
      truths.push_back(std::move(truth));
    }
  }
  return first;
}

void add_operator(World& world, OperatorSpec spec, double hostname_rate, double stale_rate,
                  util::Rng& rng) {
  const std::size_t first_truth = world.truths.size();
  render_operator(spec, *world.dict, world.ipv6, hostname_rate, stale_rate, world.addr_counter,
                  rng, world.topology, world.truths);
  for (std::size_t i = first_truth; i < world.truths.size(); ++i)
    world.truth_index.emplace(world.truths[i].hostname, i);
  world.operators.push_back(std::move(spec));
}

SampledOperator sample_operator(const geo::GeoDictionary& dict, const LocationPools& pools,
                                const WorldConfig& config, std::string suffix, util::Rng& rng,
                                std::size_t forced_router_count) {
  SampledOperator out;
  OperatorSpec& spec = out.spec;
  spec.suffix = std::move(suffix);
  spec.router_count =
      forced_router_count != 0
          ? forced_router_count
          : std::min<std::size_t>(
                config.max_routers_per_operator,
                2 + static_cast<std::size_t>(rng.next_pareto(config.size_xm, config.size_alpha)));

  // Large operators (consumer access networks) contribute most hostnames
  // but rarely embed geohints; transit/backbone operators (smaller router
  // counts) usually do. This reproduces the paper's aggregate: ~55% of
  // routers have hostnames but only ~9% have apparent geohints.
  double p_geo = config.geohint_scheme_rate;
  if (spec.router_count > 60) p_geo *= 0.25;       // consumer access networks
  else if (spec.router_count < 6) p_geo *= 0.5;    // too small to bother
  else p_geo *= 1.5;                               // transit/backbone operators
  const bool has_geo = rng.next_bool(std::min(1.0, p_geo));
  core::Role role = core::Role::kIata;
  bool cc = false, st = false;
  if (has_geo) {
    const std::size_t pick = rng.next_weighted(
        {config.w_iata, config.w_city, config.w_clli, config.w_locode, config.w_facility});
    switch (pick) {
      case 0:
        role = core::Role::kIata;
        cc = rng.next_bool(config.p_country_iata);
        st = !cc && rng.next_bool(config.p_state_iata);
        break;
      case 1:
        role = core::Role::kCityName;
        cc = rng.next_bool(config.p_country_city);
        st = rng.next_bool(config.p_state_city);
        break;
      case 2:
        role = core::Role::kClli;
        cc = rng.next_bool(config.p_country_clli);
        break;
      case 3: role = core::Role::kLocode; break;
      default: role = core::Role::kFacility; break;
    }
  }
  spec.scheme = sample_scheme(role, cc, st, rng);
  spec.scheme.has_geohint = has_geo;
  if (!has_geo) {
    // Strip geohint parts: the operator names routers without locations.
    for (LabelTemplate& label : spec.scheme.labels) {
      std::erase_if(label, [](const Part& p) { return p.kind == PartKind::kGeo; });
    }
    std::erase_if(spec.scheme.labels, [](const LabelTemplate& l) { return l.empty(); });
    if (spec.scheme.labels.empty())
      spec.scheme.labels = {{Part::role(), Part::num()}};
    // Customer / vanity labels (paper challenge 5 noise).
    if (rng.next_bool(0.55))
      spec.scheme.labels.insert(spec.scheme.labels.begin(), {Part::word(), Part::num()});
  } else if (rng.next_bool(0.15)) {
    spec.scheme.labels.insert(spec.scheme.labels.begin(), {Part::word(), Part::dash(),
                                                           Part::num()});
  }
  if (role == core::Role::kClli && rng.next_bool(config.p_split_clli))
    spec.scheme.split_clli = true;
  if (rng.next_bool(config.inconsistent_rate)) spec.scheme.inconsistency = 0.35;
  if (rng.next_bool(0.35)) spec.scheme.extra_label_rate = 0.4;

  // Footprint: population-weighted sample from the pool the scheme can
  // name; state-annotated schemes stay in countries with subdivisions.
  const std::vector<geo::LocationId>* pool = &pools.all;
  if (has_geo) {
    switch (role) {
      case core::Role::kIata: pool = &pools.with_iata; break;
      case core::Role::kClli: pool = &pools.with_clli; break;
      case core::Role::kLocode: pool = &pools.with_locode; break;
      case core::Role::kFacility: pool = &pools.with_facility; break;
      default: pool = &pools.all; break;
    }
    if (st) pool = &pools.with_state;
  }
  std::vector<geo::LocationId> candidates = *pool;
  std::vector<double> weights;
  weights.reserve(candidates.size());
  for (geo::LocationId id : candidates)
    weights.push_back(1.0 + static_cast<double>(dict.location(id).population));
  // Several routers per site: typical sites host 4-6 routers.
  const std::size_t footprint_size = std::min(
      candidates.size(), std::max<std::size_t>(4, spec.router_count / 5));
  if (config.spatial_footprint && !candidates.empty()) {
    // Spatially-embedded deployment: a home site, its nearest code-bearing
    // neighbours, plus the occasional far satellite (an IXP presence or an
    // acquired PoP on another continent). Each candidate's distance from
    // home is computed once and the (distance, id) pairs are stable-sorted
    // on the distance alone, which orders them exactly as comparing freshly
    // computed distances would.
    const geo::LocationId home = candidates[rng.next_weighted(weights)];
    const geo::Coordinate& at = dict.location(home).coord;
    std::vector<std::pair<double, geo::LocationId>> by_distance;
    by_distance.reserve(candidates.size());
    for (geo::LocationId id : candidates)
      by_distance.emplace_back(geo::distance_km(at, dict.location(id).coord), id);
    std::stable_sort(by_distance.begin(), by_distance.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::set<geo::LocationId> chosen;
    std::size_t next_near = 0;
    while (chosen.size() < footprint_size && next_near < by_distance.size()) {
      if (rng.next_bool(config.satellite_site_rate)) {
        chosen.insert(by_distance[rng.next_below(by_distance.size())].second);
      } else {
        chosen.insert(by_distance[next_near++].second);
      }
    }
    spec.footprint.assign(chosen.begin(), chosen.end());
  } else {
    std::set<geo::LocationId> chosen;
    for (int attempt = 0; chosen.size() < footprint_size && attempt < 2000; ++attempt)
      chosen.insert(candidates[rng.next_weighted(weights)]);
    spec.footprint.assign(chosen.begin(), chosen.end());
  }

  // Misleading geohints (ambiguous_operator_rate): an affected city-name
  // operator concentrates its whole deployment at loser namesakes, so
  // extraction alone sends every one of its routers to the famous sibling.
  // The rate check comes first so the default (0) takes no rng draw and
  // seeded worlds stay byte-identical.
  if (config.ambiguous_operator_rate > 0 && has_geo && role == core::Role::kCityName &&
      !pools.ambiguous_losers.empty() && rng.next_bool(config.ambiguous_operator_rate)) {
    std::set<geo::LocationId> chosen;
    const std::size_t want =
        std::min(pools.ambiguous_losers.size(), std::max<std::size_t>(2, footprint_size));
    for (int attempt = 0; chosen.size() < want && attempt < 2000; ++attempt)
      chosen.insert(
          pools.ambiguous_losers[rng.next_below(pools.ambiguous_losers.size())]);
    spec.footprint.assign(chosen.begin(), chosen.end());
  }

  // Custom geohints. Only operators with enough routers per site can
  // anchor a learnable custom code (three congruent routers, §5.4).
  const bool custom_capable = has_geo && spec.router_count >= 12 &&
                              (role == core::Role::kIata ||
                               role == core::Role::kLocode ||
                               role == core::Role::kClli);
  if (custom_capable && rng.next_bool(config.custom_operator_rate)) {
    // Bias IATA operators toward the community custom locations (paper
    // table 5: many suffixes independently converge on ash/tor/wdc/...).
    if (role == core::Role::kIata) {
      for (int k = 0; k < 2; ++k) {
        if (pools.well_known.empty() || !rng.next_bool(0.55)) continue;
        const geo::LocationId id = pools.well_known[rng.next_below(pools.well_known.size())];
        if (std::find(spec.footprint.begin(), spec.footprint.end(), id) ==
            spec.footprint.end())
          spec.footprint.push_back(id);
      }
    }
    std::size_t n_custom = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(spec.footprint.size()) *
                                    config.custom_loc_frac));
    std::vector<geo::LocationId> shuffled = spec.footprint;
    rng.shuffle(shuffled);
    // Prefer well-known custom locations, then the biggest sites (which
    // host the most routers, so the codes are learnable).
    std::stable_sort(shuffled.begin(), shuffled.end(), [&](geo::LocationId a, geo::LocationId b) {
      const bool wa =
          std::find(pools.well_known.begin(), pools.well_known.end(), a) != pools.well_known.end();
      const bool wb =
          std::find(pools.well_known.begin(), pools.well_known.end(), b) != pools.well_known.end();
      if (wa != wb) return wa;
      return dict.location(a).population > dict.location(b).population;
    });
    for (geo::LocationId id : shuffled) {
      if (spec.scheme.custom_codes.size() >= n_custom) break;
      const auto code = make_custom_code(role, dict, id, rng);
      if (code) spec.scheme.custom_codes[id] = *code;
    }
  }

  out.stale_rate = config.stale_rate;
  if (rng.next_bool(config.mislabel_operator_rate)) out.stale_rate += config.mislabel_rate;
  // Backbone/transit operators name nearly all their routers; consumer
  // networks name far fewer (tuned so the aggregate matches the
  // configured hostname rate).
  out.hostname_rate = has_geo ? std::min(0.92, config.hostname_rate * 1.35)
                              : config.hostname_rate * 0.85;
  return out;
}

World generate_world(const geo::GeoDictionary& dict, const WorldConfig& config) {
  util::Rng rng(config.seed);
  World world;
  world.dict = &dict;
  world.ipv6 = config.ipv6;
  world.vps = make_vps(dict, config.vp_count);

  const LocationPools pools = build_location_pools(dict);

  std::set<std::string> used_suffixes;
  for (std::size_t op = 0; op < config.operators; ++op) {
    SampledOperator sampled =
        sample_operator(dict, pools, config, make_suffix(rng, used_suffixes), rng);
    add_operator(world, std::move(sampled.spec), sampled.hostname_rate, sampled.stale_rate,
                 rng);
  }
  return world;
}

}  // namespace hoiho::sim
