// Quickstart: learn a naming convention for one suffix from a handful of
// hostnames plus RTT measurements, then geolocate hostnames with it.
//
// This mirrors the paper's he.net example (fig. 8a): the operator labels
// Ashburn, VA routers with "ash" — which the IATA dictionary says is Nashua,
// NH — and the learner both infers the regex and learns the operator's
// meaning of "ash" from speed-of-light constraints.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "core/geolocate.h"
#include "core/hoiho.h"
#include "geo/dictionary.h"
#include "sim/internet.h"
#include "sim/probing.h"
#include "util/cli.h"

using namespace hoiho;

namespace {

geo::LocationId city(const geo::GeoDictionary& dict, const char* name, const char* country) {
  for (geo::LocationId id : dict.lookup(geo::HintType::kCityName, geo::squash_place_name(name)))
    if (geo::same_country(dict.location(id).country, country)) return id;
  return geo::kInvalidLocation;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv, "usage: quickstart\n");
  while (args.next()) args.reject();
  const geo::GeoDictionary& dict = geo::builtin_dictionary();

  // 1. Build a tiny topology: one operator ("example.net") with routers in
  //    five cities, labelled with IATA-style codes — except Ashburn, which
  //    has no airport code, so the operator made one up: "ash".
  sim::World world;
  world.dict = &dict;
  world.vps = sim::make_vps(dict, 80);

  sim::NamingScheme scheme;
  // A fixed, readable template: role + num "." geo + num ".example.net".
  scheme.hint_role = core::Role::kIata;
  scheme.labels = {{sim::Part::role(), sim::Part::num()},
                   {sim::Part::geo(), sim::Part::num()}};
  const geo::LocationId ashburn = city(dict, "Ashburn", "us");
  scheme.custom_codes[ashburn] = "ash";

  util::Rng rng(7);
  std::size_t addr = 0;
  for (const geo::LocationId loc : {ashburn, city(dict, "London", "gb"),
                                    city(dict, "Tokyo", "jp"), city(dict, "Seattle", "us"),
                                    city(dict, "Frankfurt", "de")}) {
    for (int i = 0; i < 6; ++i) {
      const topo::RouterId rid = world.topology.add_router(loc);
      const auto rendered = sim::render_hostname(scheme, dict, loc, "example.net", rng);
      world.topology.add_interface(rid, "10.0.0." + std::to_string(++addr),
                                   rendered->hostname);
    }
  }

  // 2. Probe it: every VP pings every router (simulated speed-of-light
  //    physics plus path inflation).
  const measure::Measurements meas = sim::probe_pings(world, sim::PingConfig{});

  // 3. Learn: run the five-stage method.
  core::Hoiho hoiho(dict);
  const core::HoihoResult result = hoiho.run(world.topology, meas);

  for (const core::SuffixResult& sr : result.suffixes) {
    std::printf("suffix %s: %zu hostnames, %zu with apparent geohints\n", sr.suffix.c_str(),
                sr.hostname_count, sr.tagged_count);
    if (!sr.has_nc()) {
      std::printf("  no naming convention learned\n");
      continue;
    }
    std::printf("  classification: %s  (TP=%zu FP=%zu FN=%zu UNK=%zu, PPV=%.1f%%)\n",
                std::string(to_string(sr.cls)).c_str(), sr.eval.counts.tp, sr.eval.counts.fp,
                sr.eval.counts.fn, sr.eval.counts.unk, 100.0 * sr.eval.counts.ppv());
    for (const core::GeoRegex& gr : sr.nc.regexes)
      std::printf("  regex [%s]: %s\n", gr.plan.to_string().c_str(), gr.to_string().c_str());
    for (const core::LearnedHint& lh : sr.nc.learned.empty()
             ? std::vector<core::LearnedHint>{}
             : sr.learned) {
      const geo::Location& loc = dict.location(lh.location);
      std::printf("  learned geohint: \"%s\" -> %s, %s (tp=%zu fp=%zu)\n", lh.code.c_str(),
                  loc.city.c_str(), loc.country.c_str(), lh.tp, lh.fp);
    }
  }

  // 4. Apply: geolocate hostnames with the learned conventions — no
  //    measurements needed at this point.
  core::Geolocator geolocator(dict);
  for (const core::SuffixResult& sr : result.suffixes)
    if (sr.usable()) geolocator.add(sr.nc);

  for (const char* hostname : {"core1.ash2.example.net", "br7.lhr12.example.net",
                               "gw3.nrt1.example.net"}) {
    const auto loc = geolocator.locate(hostname);
    if (loc) {
      const geo::Location& l = dict.location(loc->location);
      std::printf("%-28s -> %s, %s%s\n", hostname, l.city.c_str(), l.country.c_str(),
                  loc->via_learned ? "  (learned geohint)" : "");
    } else {
      std::printf("%-28s -> (no geolocation)\n", hostname);
    }
  }
  return 0;
}
