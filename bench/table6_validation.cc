// Reproduces paper Table 6: validation of learned geohints per suffix.
//
// The simulator's ground truth plays the role of the operators' replies: a
// learned geohint is verified when it places the code within 40 km of the
// city the operator actually meant. Paper: 92/117 (78.6%) verified overall;
// tfbnw (small-town data centers, irregular codes) only 2/14.
#include <cstdio>
#include <map>

#include "common.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, /*takes_scale=*/false);
  const sim::ValidationScenario sc = sim::make_validation();
  const geo::GeoDictionary& dict = *sc.world.dict;
  const core::HoihoResult result = bench::run_hoiho(sc.world, sc.pings);

  // Operator ground truth: suffix -> code -> intended location.
  std::map<std::string, std::map<std::string, geo::LocationId>> truth;
  for (const sim::OperatorSpec& op : sc.world.operators)
    for (const auto& [loc, code] : op.scheme.custom_codes) truth[op.suffix][code] = loc;

  std::printf("Table 6: learned geohints verified against operator ground truth\n\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"suffix", "learned", "verified", "fraction"});
  std::size_t total_learned = 0, total_verified = 0;
  for (const core::SuffixResult& sr : result.suffixes) {
    if (sr.nc.learned.empty()) continue;
    std::size_t learned = 0, verified = 0;
    for (const auto& [key, loc] : sr.nc.learned) {
      ++learned;
      const auto op_truth = truth.find(sr.suffix);
      if (op_truth == truth.end()) continue;
      const auto code_truth = op_truth->second.find(key.second);
      if (code_truth == op_truth->second.end()) continue;
      if (bench::within_correct_distance(dict, loc, code_truth->second)) ++verified;
    }
    total_learned += learned;
    total_verified += verified;
    rows.push_back({sr.suffix, std::to_string(learned), std::to_string(verified),
                    util::fmt_pct(static_cast<double>(verified), static_cast<double>(learned))});
  }
  rows.push_back({"overall", std::to_string(total_learned), std::to_string(total_verified),
                  util::fmt_pct(static_cast<double>(total_verified),
                                static_cast<double>(total_learned))});
  bench::print_table(rows);

  std::printf("\nPaper: 92/117 (78.6%%) overall; tfbnw only 2/14 (small-town DCs).\n");
  return 0;
}
