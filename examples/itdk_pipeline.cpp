// End-to-end ITDK-style pipeline with file I/O: generate a world, write it
// out in the CAIDA-style nodes/names formats, read it back (as a consumer
// of real ITDK data would), run the learner, and dump the per-suffix
// conventions — the shape of the paper's published regex website.
//
// Run: ./build/examples/itdk_pipeline [output_dir]   (default itdk_out)

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/hoiho.h"
#include "core/geolocate.h"
#include "core/nc_io.h"
#include "sim/scenario.h"
#include "topo/itdk_io.h"
#include "util/cli.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  util::Args args(argc, argv, "usage: itdk_pipeline [output_dir]   (default itdk_out)\n");
  std::filesystem::path dir = "itdk_out";
  for (bool have_dir = false; args.next(); have_dir = true) {
    if (have_dir || args.is_flag()) args.reject();
    dir = args.arg();
  }
  std::filesystem::create_directories(dir);

  // 1. Generate a small IPv4-style world and probe it.
  sim::WorldConfig config;
  config.seed = 777;
  config.operators = 40;
  config.geohint_scheme_rate = 0.7;
  const sim::World world = sim::generate_world(geo::builtin_dictionary(), config);
  const measure::Measurements pings = sim::probe_pings(world, {});

  // 2. Write the ITDK-style files.
  {
    std::ofstream nodes(dir / "midar-iff.nodes");
    topo::write_nodes(nodes, world.topology);
    std::ofstream names(dir / "itdk-run.names");
    topo::write_names(names, world.topology);
  }
  std::printf("wrote %s/{midar-iff.nodes, itdk-run.names}\n", dir.c_str());

  // 3. Read them back, as a downstream consumer would.
  std::ifstream nodes(dir / "midar-iff.nodes");
  std::ifstream names(dir / "itdk-run.names");
  std::string error;
  const auto loaded = topo::read_itdk(nodes, &names, &error);
  if (!loaded) {
    std::fprintf(stderr, "failed to read ITDK files: %s\n", error.c_str());
    return 1;
  }
  std::printf("read back %zu routers (%zu with hostnames)\n", loaded->size(),
              loaded->count_with_hostname());

  // 4. Run the learner on the re-loaded topology. (Note: RTTs index routers
  //    by id; the round trip preserves router order.)
  const core::Hoiho hoiho(geo::builtin_dictionary());
  const core::HoihoResult result = hoiho.run(*loaded, pings);

  // 5. Publish the learned conventions in the machine-readable format
  //    (core/nc_io.h) — the shape of the paper's regex website — and read
  //    them back into a Geolocator to prove the artifact is self-contained.
  std::vector<core::StoredConvention> stored;
  for (const core::SuffixResult& sr : result.suffixes) {
    if (!sr.usable()) continue;
    stored.push_back(core::StoredConvention{sr.nc, sr.cls});
  }
  const std::filesystem::path out = dir / "conventions.txt";
  {
    std::ofstream conv(out);
    core::save_conventions(conv, stored, geo::builtin_dictionary());
  }
  std::printf("wrote %zu usable conventions to %s\n", stored.size(), out.c_str());

  std::ifstream conv_in(out);
  const auto reloaded = core::load_conventions(conv_in, geo::builtin_dictionary());
  if (!reloaded) {
    std::fprintf(stderr, "failed to reload conventions\n");
    return 1;
  }
  core::Geolocator geolocator(geo::builtin_dictionary());
  for (const core::StoredConvention& sc : *reloaded) geolocator.add(sc.nc);
  std::size_t located = 0;
  for (const sim::HostnameTruth& truth : world.truths)
    if (geolocator.locate(truth.hostname)) ++located;
  std::printf("reloaded conventions geolocate %zu of %zu hostnames\n", located,
              world.truths.size());
  return 0;
}
