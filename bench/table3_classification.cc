// Reproduces paper Table 3: classification of naming conventions per ITDK.
//
// Paper (Aug '20 IPv4): 795 good (43.6%), 111 promising (6.1%), 919 poor
// (50.4%) of 1825 suffixes with an apparent geohint; IPv6 skews toward good
// (56.4%).
#include <cstdio>

#include "common.h"
#include "util/strings.h"

using namespace hoiho;

int main(int argc, char** argv) {
  const double scale = bench::parse_args(argc, argv, /*takes_scale=*/true);
  std::printf("Table 3: Classification of NCs (synthetic, scale=%.2f)\n\n", scale);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"Classification", "IPv4 Aug '20", "IPv4 Mar '21", "IPv6 Nov '20",
                  "IPv6 Mar '21"});
  std::vector<std::string> good = {"Good"}, promising = {"Promising"}, poor = {"Poor"},
                           total_row = {"Total"};

  for (const sim::ItdkKind kind : {sim::ItdkKind::kIpv4Aug20, sim::ItdkKind::kIpv4Mar21,
                                   sim::ItdkKind::kIpv6Nov20, sim::ItdkKind::kIpv6Mar21}) {
    const sim::ItdkScenario sc = sim::make_itdk(kind, scale);
    const core::HoihoResult result = bench::run_hoiho(sc.world, sc.pings);

    // The paper's denominator: suffixes with at least one apparent geohint.
    std::size_t with_hint = 0, n_good = 0, n_promising = 0, n_poor = 0;
    for (const core::SuffixResult& sr : result.suffixes) {
      if (sr.tagged_count == 0) continue;
      ++with_hint;
      if (!sr.has_nc()) {
        ++n_poor;  // no convention learnable: counted poor, as in the paper
        continue;
      }
      switch (sr.cls) {
        case core::NcClass::kGood: ++n_good; break;
        case core::NcClass::kPromising: ++n_promising; break;
        case core::NcClass::kPoor: ++n_poor; break;
      }
    }
    const auto cell = [&](std::size_t v) {
      return std::to_string(v) + " (" +
             util::fmt_pct(static_cast<double>(v), static_cast<double>(with_hint)) + ")";
    };
    good.push_back(cell(n_good));
    promising.push_back(cell(n_promising));
    poor.push_back(cell(n_poor));
    total_row.push_back(std::to_string(with_hint));
  }
  rows.push_back(good);
  rows.push_back(promising);
  rows.push_back(poor);
  rows.push_back(total_row);
  bench::print_table(rows);

  std::printf(
      "\nPaper: Aug '20 IPv4 good 43.6%%, promising 6.1%%, poor 50.4%%; IPv6 good ~56%%.\n");
  return 0;
}
