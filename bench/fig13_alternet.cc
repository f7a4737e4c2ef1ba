// Reproduces paper Figure 13 (appendix A): inferring a naming convention
// for alter.net hostnames across the four generation phases — base regexes,
// merging, character-class embedding, and regex-set building — showing the
// per-phase regexes with their TP/FP/FN/UNK/ATP/PPV metrics.
#include <algorithm>
#include <cstdio>
#include <deque>

#include "common.h"
#include "core/apparent.h"
#include "core/regex_gen.h"
#include "core/regex_sets.h"
#include "util/strings.h"

using namespace hoiho;

namespace {

struct Fixture {
  measure::Measurements meas{{}, 32};
  util::Arena arena;  // backs hostnames (dns::Hostname is a view)
  std::deque<dns::Hostname> hostnames;
  std::vector<core::TaggedHostname> tagged;
  topo::RouterId next = 0;

  Fixture() {
    meas.vps = {
        measure::VantagePoint{"sjc", "us", {37.34, -121.89}},
        measure::VantagePoint{"jfk", "us", {40.71, -74.01}},
        measure::VantagePoint{"nrt", "jp", {35.68, 139.69}},
        measure::VantagePoint{"dca", "us", {38.91, -77.04}},
        measure::VantagePoint{"sea", "us", {47.61, -122.33}},
        measure::VantagePoint{"ams", "nl", {52.37, 4.90}},
        measure::VantagePoint{"mnz", "us", {38.75, -77.57}},
        measure::VantagePoint{"fdh", "de", {47.67, 9.51}},
    };
    meas.pings = measure::RttMatrix(32, meas.vps.size());
  }

  void add(std::string_view raw, measure::VpId vp, double rtt) {
    const topo::RouterId r = next++;
    for (measure::VpId v = 0; v < meas.vps.size(); ++v)
      meas.pings.record(r, v, v == vp ? rtt : 250.0);
    hostnames.push_back(*dns::parse_hostname(raw, arena));
    const core::ApparentTagger tagger(geo::builtin_dictionary(), meas, {});
    tagged.push_back(tagger.tag(topo::HostnameRef{r, &hostnames.back()}));
  }
};

void print_regexes(const char* phase, const core::Evaluator& ev,
                   std::span<const core::GeoRegex> regexes,
                   std::span<const core::TaggedHostname> tagged, std::size_t limit) {
  std::printf("\n%s\n", phase);
  struct Row {
    std::string regex, plan;
    core::EvalCounts counts;
  };
  std::vector<Row> out;
  for (const core::GeoRegex& gr : regexes) {
    core::NamingConvention nc;
    nc.suffix = "alter.net";
    nc.regexes.push_back(gr);
    const core::NcEvaluation e = ev.evaluate(nc, tagged);
    if (e.counts.tp == 0) continue;
    out.push_back(Row{gr.regex.to_string(), gr.plan.to_string(), e.counts});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Row& a, const Row& b) { return a.counts.atp() > b.counts.atp(); });
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"regex", "plan", "TP", "FP", "FN", "UNK", "ATP", "PPV"});
  for (std::size_t i = 0; i < out.size() && i < limit; ++i) {
    rows.push_back({out[i].regex, out[i].plan, std::to_string(out[i].counts.tp),
                    std::to_string(out[i].counts.fp), std::to_string(out[i].counts.fn),
                    std::to_string(out[i].counts.unk), std::to_string(out[i].counts.atp()),
                    util::fmt_pct(100.0 * out[i].counts.ppv(), 100.0, 0)});
  }
  bench::print_table(rows);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv, /*takes_scale=*/false);
  Fixture fx;
  // Figure 13's hostname mix: IATA codes (a-f), 8-letter CLLI codes (g, h),
  // and German city names with a country code, with and without digits
  // (i-l).
  fx.add("0.xe-10-0-0.gw1.sfo16.alter.net", 0, 4.0);
  fx.add("0.ge-6-1-0.gw8.jfk1.alter.net", 1, 1.0);
  fx.add("0.so-0-1-3.xt1.nrt2.alter.net", 2, 3.0);
  fx.add("0.ae1.br2.iad8.alter.net", 3, 5.0);
  fx.add("0.ae1.gw3.sea7.alter.net", 4, 4.0);
  fx.add("0.ae1.br2.ams3.alter.net", 5, 2.0);
  fx.add("0.af0.asbnva83-mse01-a-ie1.alter.net", 3, 8.0);
  fx.add("0.csi1.nwrknjnb-mse01-b-ie1.alter.net", 6, 10.0);
  fx.add("dialup-ras-00008.munich.de.alter.net", 7, 16.0);
  fx.add("dialup-ras-00011.hamburg3.de.alter.net", 5, 9.0);
  fx.add("dialup-ras-00014.bremen7.de.alter.net", 5, 9.5);
  fx.add("static-dis-00019.stuttgart.de.alter.net", 5, 12.0);
  fx.add("0.ckh.dresden.de.alter.net", 5, 17.0);
  fx.add("0.disy-2.frankfurt.de.alter.net", 5, 11.0);

  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Evaluator evaluator(dict, fx.meas);
  const core::RegexGenerator gen;

  std::printf("Figure 13: inferring a NC for alter.net across four phases\n");

  // Phase 1: base regexes.
  std::vector<core::GeoRegex> base = gen.generate_base(fx.tagged);
  print_regexes("Phase 1: Generate Base Regexes (top 6 of the candidates)", evaluator, base,
                fx.tagged, 6);

  // Phase 2: merge.
  const std::vector<core::GeoRegex> merged = gen.merge(base);
  print_regexes("Phase 2: Merge Regexes", evaluator, merged, fx.tagged, 4);

  // Phase 3: embed character classes.
  std::vector<core::GeoRegex> embedded;
  std::vector<core::GeoRegex> all = base;
  all.insert(all.end(), merged.begin(), merged.end());
  for (const core::GeoRegex& gr : all) {
    if (auto refined = gen.embed_classes(gr, fx.tagged)) embedded.push_back(std::move(*refined));
  }
  print_regexes("Phase 3: Embed Character Classes", evaluator, embedded, fx.tagged, 4);

  // Phase 4: build regex sets.
  all.insert(all.end(), embedded.begin(), embedded.end());
  core::dedup_regexes(all);
  const core::NcBuilder builder(evaluator);
  const auto candidates = builder.build("alter.net", all, fx.tagged);
  std::printf("\nPhase 4: Build Regex Sets — selected NC:\n");
  if (!candidates.empty()) {
    const auto& best = candidates.front();
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"regex", "plan"});
    for (const core::GeoRegex& gr : best.nc.regexes)
      rows.push_back({gr.regex.to_string(), gr.plan.to_string()});
    bench::print_table(rows);
    std::printf("\nNC metrics: TP=%zu FP=%zu FN=%zu UNK=%zu ATP=%ld PPV=%s (paper NC #7: ATP 8, PPV 83%%)\n",
                best.eval.counts.tp, best.eval.counts.fp, best.eval.counts.fn,
                best.eval.counts.unk, best.eval.counts.atp(),
                util::fmt_pct(100.0 * best.eval.counts.ppv(), 100.0, 0).c_str());
  }
  return 0;
}
