// The three perfbench workloads. Each runs in its own process (main.cc),
// builds its inputs from the seed, measures for `seconds`, checks every
// output, and returns end-to-end metrics (trace = false) or per-layer
// metrics from a separate traced pass (trace = true).
#pragma once

#include <cstdint>
#include <string_view>

#include "common.h"

namespace perfbench {

// Full streamed learn of the L-tier world plus 5%-churn relearn rounds.
Report run_learn_itdk(const Env& env, std::uint64_t seed, double seconds, bool trace,
                      std::uint64_t process_start_ns);

// serve_lookup (bare lookups at a fixed rate, then in-process on one
// thread) and serve_geo_churn (Zipf GEO traffic beside RELOAD/DELTA
// publishes, then in-process on one thread).
Report run_serve(const Env& env, std::string_view workload, std::uint64_t seed, double seconds,
                 bool trace, std::uint64_t process_start_ns);

}  // namespace perfbench
