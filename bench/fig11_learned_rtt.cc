// Reproduces paper Figure 11: learned-geohint correctness vs the RTT from
// the closest vantage point.
//
// Paper: learned hints whose routers are close to a VP are more likely to
// be correct — <=7 ms: 90% correct; <=11 ms: 84%; <=16 ms: 80%. More VPs
// would mean better learned hints.
#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, /*takes_scale=*/false);
  // A thinner VP field than fig. 9's: correctness of learned hints as a
  // function of VP proximity only varies when some learned hints are far
  // from every VP.
  const sim::ValidationScenario sc = sim::make_validation(7, 40);
  const geo::GeoDictionary& dict = *sc.world.dict;
  const core::HoihoResult result = bench::run_hoiho(sc.world, sc.pings);

  std::map<std::string, std::map<std::string, geo::LocationId>> truth;
  for (const sim::OperatorSpec& op : sc.world.operators)
    for (const auto& [loc, code] : op.scheme.custom_codes) truth[op.suffix][code] = loc;

  struct LearnedPoint {
    double closest_rtt = 1e18;
    bool correct = false;
  };
  std::vector<LearnedPoint> points;
  for (const core::SuffixResult& sr : result.suffixes) {
    for (const auto& [key, loc] : sr.nc.learned) {
      LearnedPoint pt;
      for (std::size_t i = 0; i < sr.eval.per_hostname.size(); ++i) {
        if (sr.eval.per_hostname[i].code != key.second) continue;
        const auto closest = sc.pings.pings.closest_vp(sr.tagged[i].ref.router);
        if (closest) pt.closest_rtt = std::min(pt.closest_rtt, closest->second);
      }
      if (pt.closest_rtt > 1e17) continue;
      const auto op_truth = truth.find(sr.suffix);
      if (op_truth != truth.end()) {
        const auto code_truth = op_truth->second.find(key.second);
        if (code_truth != op_truth->second.end())
          pt.correct = bench::within_correct_distance(dict, loc, code_truth->second);
      }
      points.push_back(pt);
    }
  }

  std::printf("Figure 11: learned geohint correctness vs closest-VP RTT (n=%zu)\n\n",
              points.size());
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"closest VP RTT", "learned hints", "correct", "fraction"});
  for (const double cut : {7.0, 11.0, 16.0, 1e9}) {
    std::size_t n = 0, correct = 0;
    for (const LearnedPoint& pt : points) {
      if (pt.closest_rtt > cut) continue;
      ++n;
      if (pt.correct) ++correct;
    }
    const std::string label = cut > 1e8 ? "all" : "<= " + util::fmt_double(cut, 0) + " ms";
    rows.push_back({label, std::to_string(n), std::to_string(correct),
                    util::fmt_pct(static_cast<double>(correct), static_cast<double>(n))});
  }
  bench::print_table(rows);

  std::printf("\nPaper: <=7 ms 90%%, <=11 ms 84%%, <=16 ms 80%% correct.\n");
  return 0;
}
