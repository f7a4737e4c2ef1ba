// perfbench: the repository's benchmark binary. One invocation runs
// one workload in its own process:
//
//   perfbench --workload {learn_itdk|serve_lookup|serve_geo_churn}
//             --seed N --seconds S --trace {0|1} [--out-dir DIR]
//
// The last stdout line is {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The full report (sample counts, percentiles, work counts, environment)
// is written to DIR/<workload>-seed<N>-trace<T>.json. See NOTES.md.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload {learn_itdk|serve_lookup|serve_geo_churn} --seed N\n"
    "                 --seconds S --trace {0|1} [--out-dir DIR]\n";

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start = perfbench::now_ns();
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to report numbers from an unoptimised build\n");
  return 3;
#endif
  const std::string_view build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "perfbench: build type '%s' is not an optimised build\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::string workload, out_dir = ".";
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 2;
    }
    if (i + 1 >= argc || !arg.starts_with("--")) {
      std::fprintf(stderr, "perfbench: unexpected argument '%s'\n%s", argv[i], kUsage);
      return 2;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") workload = value;
    else if (arg == "--seed") ok = have_seed = parse_u64(value, &seed);
    else if (arg == "--seconds") ok = parse_u64(value, &seconds) && seconds > 0;
    else if (arg == "--trace") ok = parse_u64(value, &trace) && trace <= 1;
    else if (arg == "--out-dir") out_dir = value;
    else {
      std::fprintf(stderr, "perfbench: unknown flag '%s'\n%s", argv[i - 1], kUsage);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad value '%s' for %s\n", value, argv[i - 1]);
      return 2;
    }
  }
  if (workload != "learn_itdk" && workload != "serve_lookup" && workload != "serve_geo_churn") {
    std::fprintf(stderr, "perfbench: --workload must name a workload\n%s", kUsage);
    return 2;
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    std::fprintf(stderr, "perfbench: --seed, --seconds and --trace are required\n%s", kUsage);
    return 2;
  }

  perfbench::Env env;
  env.nproc = perfbench::cpus_available();
  env.learner_workers = std::max<std::size_t>(1, std::min<std::size_t>(3, env.nproc - 1));
  std::error_code ec;
  env.out_dir = out_dir;
  env.work_dir = out_dir + "/tmp-" + workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(env.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", env.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  const bool traced = trace == 1;
  perfbench::Report rep =
      workload == "learn_itdk"
          ? perfbench::run_learn_itdk(env, seed, static_cast<double>(seconds), traced, process_start)
          : perfbench::run_serve(env, workload, seed, static_cast<double>(seconds), traced, process_start);
  std::filesystem::remove_all(env.work_dir, ec);

  rep.note("env", "{\"nproc\": " + std::to_string(env.nproc) +
                      ", \"learner_workers\": " + std::to_string(env.learner_workers) +
                      ", \"server_workers\": " + std::to_string(env.server_workers) +
                      ", \"compiler\": " + perfbench::json_string(PERFBENCH_CXX_ID) +
                      ", \"build_type\": " + perfbench::json_string(PERFBENCH_BUILD_TYPE) + "}");
  const std::string report = perfbench::report_json(rep, workload, seed, traced);
  const std::string path = out_dir + "/" + workload + "-seed" + std::to_string(seed) + "-trace" +
                           std::to_string(trace) + ".json";
  std::ofstream(path) << report << "\n";

  for (const std::string& p : rep.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  for (const perfbench::Metric& m : rep.metrics)
    std::fprintf(stderr, "perfbench: %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", perfbench::result_line(rep).c_str());
  return 0;
}
