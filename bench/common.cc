#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/cli.h"

namespace hoiho::bench {

double parse_args(int argc, char** argv, bool takes_scale) {
  const char* slash = std::strrchr(argv[0], '/');
  const std::string name = slash != nullptr ? slash + 1 : argv[0];
  std::string usage = "usage: " + name;
  usage += takes_scale ? " [scale]\n  scale  positive world-size multiplier (default 1)\n" : "\n";
  util::Args args(argc, argv, std::move(usage));
  double scale = 1.0;
  bool have_scale = false;
  while (args.next()) {
    if (!takes_scale || have_scale || args.is_flag()) args.reject();
    const std::string arg(args.arg());
    char* end = nullptr;
    scale = std::strtod(arg.c_str(), &end);
    if (end == arg.c_str() || *end != '\0' || !std::isfinite(scale) || scale <= 0)
      args.fail("scale must be a positive number, got " + arg);
    have_scale = true;
  }
  return scale;
}

void print_table(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return;
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      std::string cell = rows[r][c];
      cell.resize(widths[c], ' ');
      line += cell;
      if (c + 1 < rows[r].size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
    if (r == 0) {
      std::string rule;
      for (std::size_t c = 0; c < widths.size(); ++c) {
        rule += std::string(widths[c], '-');
        if (c + 1 < widths.size()) rule += "--";
      }
      std::printf("%s\n", rule.c_str());
    }
  }
}

bool within_correct_distance(const geo::GeoDictionary& dict, geo::LocationId inferred,
                             geo::LocationId truth) {
  if (inferred == geo::kInvalidLocation || truth == geo::kInvalidLocation) return false;
  return geo::distance_km(dict.location(inferred).coord, dict.location(truth).coord) <=
         kCorrectKm;
}

core::HoihoResult run_hoiho(const sim::World& world, const measure::Measurements& pings,
                            const core::HoihoConfig& config) {
  const core::Hoiho hoiho(*world.dict, config);
  return hoiho.run(world.topology, pings);
}

void score_answer(MethodScore& score, const geo::GeoDictionary& dict, geo::LocationId inferred,
                  geo::LocationId router_truth) {
  ++score.with_geohint;
  if (inferred == geo::kInvalidLocation) return;  // false negative
  if (within_correct_distance(dict, inferred, router_truth)) {
    ++score.tp;
  } else {
    ++score.fp;
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double idx = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

}  // namespace hoiho::bench
