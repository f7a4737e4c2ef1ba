// Geolocation comparison on a synthetic world with ground truth: obtain
// naming conventions — either loaded from a saved model file or learned
// with Hoiho and round-tripped through nc_io — then geolocate every
// geohint-bearing hostname with Hoiho, DRoP, HLOC, undns, CBG and
// Shortest Ping, reporting each method's accuracy against the simulator's
// ground truth.
//
// Run: ./build/examples/geolocate_hostnames [n_operators] [--model FILE]
//
// With --model, conventions come from FILE (as written by save_conventions
// or `hoihod --write-demo-model`) instead of re-running the learning
// pipeline. Without it, the example learns, saves, and reloads through a
// temporary file so the serialized path is exercised either way.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "baselines/cbg.h"
#include "baselines/drop.h"
#include "baselines/hloc.h"
#include "baselines/shortest_ping.h"
#include "baselines/undns.h"
#include "core/geolocate.h"
#include "core/hoiho.h"
#include "core/nc_io.h"
#include "sim/probing.h"
#include "util/cli.h"

using namespace hoiho;

namespace {

// Loads conventions from `path`, exiting with a message on failure.
std::vector<core::StoredConvention> load_model(const std::string& path,
                                               const geo::GeoDictionary& dict) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open model file %s\n", path.c_str());
    std::exit(1);
  }
  std::string error;
  std::vector<std::string> warnings;
  auto loaded = core::load_conventions(in, dict, &error, &warnings);
  if (!loaded) {
    std::fprintf(stderr, "bad model file %s: %s\n", path.c_str(), error.c_str());
    std::exit(1);
  }
  for (const std::string& w : warnings)
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  std::printf("loaded %zu conventions from %s\n", loaded->size(), path.c_str());
  return *loaded;
}

}  // namespace

int main(int argc, char** argv) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();

  util::Args args(argc, argv, "usage: geolocate_hostnames [n_operators] [--model FILE]\n");
  std::string model_path;
  std::size_t operators = 60;
  for (bool have_operators = false; args.next();) {
    if (args.is("--model")) {
      model_path = args.value();
      continue;
    }
    if (have_operators || args.is_flag()) args.reject();
    const std::string arg(args.arg());
    char* end = nullptr;
    operators = std::strtoul(arg.c_str(), &end, 10);
    if (end == arg.c_str() || *end != '\0' || operators == 0)
      args.fail("n_operators must be a positive integer, got " + arg);
    have_operators = true;
  }

  sim::WorldConfig config;
  config.seed = 20260707;
  config.operators = operators;
  config.geohint_scheme_rate = 0.8;
  const sim::World world = sim::generate_world(dict, config);
  const measure::Measurements pings = sim::probe_pings(world, {});
  const measure::Measurements traces = sim::probe_traceroutes(world, {});

  std::printf("world: %zu operators, %zu routers, %zu hostnames\n\n", world.operators.size(),
              world.topology.size(), world.truths.size());

  // Obtain conventions: from the given model file, or by learning and then
  // round-tripping the result through the nc_io text format in memory.
  std::vector<core::StoredConvention> stored;
  if (!model_path.empty()) {
    stored = load_model(model_path, dict);
  } else {
    const core::Hoiho hoiho(dict);
    const core::HoihoResult result = hoiho.run(world.topology, pings);
    std::vector<core::StoredConvention> learned;
    for (const core::SuffixResult& sr : result.suffixes)
      if (sr.usable()) learned.push_back({sr.nc, sr.cls});
    std::stringstream io;
    core::save_conventions(io, learned, dict);
    std::string error;
    auto reloaded = core::load_conventions(io, dict, &error);
    if (!reloaded) {
      std::fprintf(stderr, "learned model failed to round-trip: %s\n", error.c_str());
      return 1;
    }
    stored = *reloaded;
    std::printf("learned %zu usable conventions (round-tripped through nc_io)\n",
                stored.size());
  }

  core::Geolocator geolocator(dict);
  for (const core::StoredConvention& sc : stored)
    if (core::is_usable(sc.cls)) geolocator.add(sc.nc);

  // Prepare the baselines.
  baselines::Drop drop(dict);
  drop.train(world.topology, traces);
  const baselines::Hloc hloc(dict);
  const baselines::Undns undns = baselines::Undns::from_world(world);

  // Score every hostname that truly carries a geohint. A hostname-based
  // answer is correct within 40 km of the router's true location;
  // delay-based answers (CBG, shortest ping) get the same bar.
  struct Tally {
    std::size_t answered = 0, correct = 0;
  };
  std::map<std::string, Tally> tallies;
  std::size_t total = 0;
  const auto judge = [&](const char* method, const geo::Coordinate& answer,
                         const geo::Coordinate& truth) {
    Tally& t = tallies[method];
    ++t.answered;
    if (geo::distance_km(answer, truth) <= 40.0) ++t.correct;
  };

  for (const sim::HostnameTruth& truth : world.truths) {
    if (!truth.has_geohint) continue;
    ++total;
    const geo::Coordinate& at = dict.location(world.topology.router(truth.router).true_location).coord;
    std::string canonical;
    const auto host = dns::parse_hostname(truth.hostname, canonical);
    if (!host) continue;

    if (const auto loc = geolocator.locate(truth.hostname)) judge("hoiho", loc->coord, at);
    if (const auto loc = drop.locate(*host)) judge("drop", dict.location(*loc).coord, at);
    if (const auto loc = hloc.locate(*host, truth.router, pings))
      judge("hloc", dict.location(*loc).coord, at);
    if (const auto loc = undns.locate(*host)) judge("undns", dict.location(*loc).coord, at);
    if (const auto sp = baselines::shortest_ping(pings, truth.router))
      judge("shortest-ping", sp->coord, at);
  }

  // CBG once per responsive router (it is delay-only; hostname-independent).
  std::size_t cbg_routers = 0, cbg_correct = 0;
  double cbg_error_sum = 0;
  for (const topo::Router& r : world.topology.routers()) {
    if (!pings.pings.responsive(r.id)) continue;
    const auto cbg = baselines::cbg_locate(pings, r.id);
    if (!cbg) continue;
    ++cbg_routers;
    cbg_error_sum += cbg->error_km;
    if (geo::distance_km(cbg->estimate, dict.location(r.true_location).coord) <= 40.0)
      ++cbg_correct;
  }

  std::printf("\n%zu hostnames with geohints\n\n", total);
  std::printf("%-14s %10s %10s %10s\n", "method", "answered", "correct", "correct%");
  for (const char* m : {"hoiho", "hloc", "drop", "undns", "shortest-ping"}) {
    const Tally& t = tallies[m];
    std::printf("%-14s %10zu %10zu %9.1f%%\n", m, t.answered, t.correct,
                t.answered == 0 ? 0.0 : 100.0 * static_cast<double>(t.correct) /
                                            static_cast<double>(t.answered));
  }
  std::printf("\nCBG (per router): %zu multilaterated, %zu within 40 km, mean error radius %.0f km\n",
              cbg_routers, cbg_correct,
              cbg_routers == 0 ? 0.0 : cbg_error_sum / static_cast<double>(cbg_routers));
  return 0;
}
