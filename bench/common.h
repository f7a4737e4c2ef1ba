// Shared utilities for the experiment benches: table printing, ground-truth
// scoring (the paper's 40 km rule), and method-driver glue.
#pragma once

#include <string>
#include <vector>

#include "core/hoiho.h"
#include "sim/scenario.h"

namespace hoiho::bench {

// Parses a paper bench's command line. `--help` prints usage on stdout and
// exits 0; an unknown flag, an extra argument, or a scale that is not a
// positive number prints usage on stderr and exits 2. With `takes_scale`
// the one optional positional argument is the world-size multiplier;
// returns it, or 1.0 when absent.
double parse_args(int argc, char** argv, bool takes_scale);

// Prints a fixed-width table: header row then rows, columns sized to fit.
void print_table(const std::vector<std::vector<std::string>>& rows);

// The paper's correctness criterion: an inferred location is a true
// positive if it is within 40 km of the true location.
inline constexpr double kCorrectKm = 40.0;

bool within_correct_distance(const geo::GeoDictionary& dict, geo::LocationId inferred,
                             geo::LocationId truth);

// Per-method tallies for figure 9: fractions are over hostnames that truly
// carry a geohint.
struct MethodScore {
  std::size_t with_geohint = 0;  // hostnames with a geohint (denominator)
  std::size_t tp = 0;            // located within 40 km of the router
  std::size_t fp = 0;            // located, but wrong
  // fn = with_geohint - tp - fp

  double tp_pct() const {
    return with_geohint == 0 ? 0 : 100.0 * static_cast<double>(tp) / static_cast<double>(with_geohint);
  }
  double fp_pct() const {
    return with_geohint == 0 ? 0 : 100.0 * static_cast<double>(fp) / static_cast<double>(with_geohint);
  }
  double ppv() const {
    return (tp + fp) == 0 ? 0 : 100.0 * static_cast<double>(tp) / static_cast<double>(tp + fp);
  }
};

// Runs the Hoiho pipeline over a scenario world.
core::HoihoResult run_hoiho(const sim::World& world, const measure::Measurements& pings,
                            const core::HoihoConfig& config = {});

// Scores one method's answer for a hostname against the router's true
// location. `inferred` may be kInvalidLocation (no answer).
void score_answer(MethodScore& score, const geo::GeoDictionary& dict, geo::LocationId inferred,
                  geo::LocationId router_truth);

// Percentile of a sorted vector (p in [0,100]).
double percentile(std::vector<double> values, double p);

}  // namespace hoiho::bench
