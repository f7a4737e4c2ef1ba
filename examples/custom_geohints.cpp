// Custom-geohint walkthrough: reproduces both halves of the paper's
// figure 8 interactively.
//
// (a) he.net repurposes "ash" — an IATA code whose dictionary meaning is
//     Nashua, NH — for Ashburn, VA. The learner scores candidate
//     interpretations by RTT feasibility, then ranks by facility presence
//     and population.
// (b) ntt.net makes up its own CLLI code "mlanit" for Milan, IT — not in
//     any dictionary at all — and the country code in the hostname lets a
//     single congruent router justify learning it.
//
// Run: ./build/examples/custom_geohints

#include <cstdio>
#include <deque>

#include "core/apparent.h"
#include "core/eval.h"
#include "core/learn.h"
#include "geo/dictionary.h"
#include "regex/parser.h"
#include "util/cli.h"

using namespace hoiho;

namespace {

struct Bench {
  measure::Measurements meas{{}, 16};
  util::Arena arena;  // backs hostnames (dns::Hostname is a view)
  std::deque<dns::Hostname> hostnames;
  std::vector<core::TaggedHostname> tagged;
  topo::RouterId next = 0;

  explicit Bench(std::vector<measure::VantagePoint> vps) {
    meas.vps = std::move(vps);
    meas.pings = measure::RttMatrix(16, meas.vps.size());
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

void report(const geo::GeoDictionary& dict, const core::NamingConvention& nc,
            const std::vector<core::LearnedHint>& learned, const core::NcEvaluation& before,
            const core::NcEvaluation& after) {
  for (const core::LearnedHint& lh : learned) {
    const geo::Location& loc = dict.location(lh.location);
    std::printf("  learned \"%s\" -> %s, %s%s%s  (tp=%zu fp=%zu, dictionary meaning had %zu tp)\n",
                lh.code.c_str(), loc.city.c_str(),
                loc.state.empty() ? "" : (loc.state + ", ").c_str(), loc.country.c_str(),
                loc.has_facility ? "  [facility]" : "", lh.tp, lh.fp, lh.existing_tp);
  }
  std::printf("  before learning: TP=%zu FP=%zu UNK=%zu   after: TP=%zu FP=%zu UNK=%zu\n",
              before.counts.tp, before.counts.fp, before.counts.unk, after.counts.tp,
              after.counts.fp, after.counts.unk);
  (void)nc;
}

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv, "usage: custom_geohints\n");
  while (args.next()) args.reject();
  const geo::GeoDictionary& dict = geo::builtin_dictionary();

  // --- Figure 8a: he.net's "ash" ---------------------------------------------
  std::printf("Figure 8a: learning that \"ash\" means Ashburn, VA for he.net\n");
  Bench he({
      measure::VantagePoint{"cgs", "us", {38.99, -76.94}},  // College Park, MD
      measure::VantagePoint{"lon", "uk", {51.51, -0.13}},
      measure::VantagePoint{"tyo", "jp", {35.68, 139.69}},
      measure::VantagePoint{"sea", "us", {47.61, -122.33}},
      measure::VantagePoint{"zrh", "ch", {47.37, 8.54}},
  });
  // Clean geohints to seed confidence in the convention...
  he.add("100ge1-1.core1.lhr1.he.net", 1, 2.0);
  he.add("100ge3-2.core1.nrt2.he.net", 2, 3.0);
  he.add("100ge5-1.core2.sea1.he.net", 3, 2.0);
  he.add("100ge2-2.core1.zrh3.he.net", 4, 2.0);
  // ...and the figure's four Ashburn routers named "ash".
  he.add("gcr-company.gigabitethernet4-1.core1.ash1.he.net", 0, 9.0);
  he.add("100ge1-2.core1.ash1.he.net", 0, 3.0);
  he.add("100ge10-1.core2.ash1.he.net", 0, 3.0);
  he.add("46-labs-llc.ve401.core2.ash1.he.net", 0, 5.0);

  core::NamingConvention he_nc;
  he_nc.suffix = "he.net";
  core::GeoRegex he_rx;
  he_rx.regex = *rx::parse("^.+\\.([a-z]{3})\\d+\\.he\\.net$");
  he_rx.plan.roles = {core::Role::kIata};
  he_nc.regexes.push_back(std::move(he_rx));

  const core::Evaluator he_eval(dict, he.meas);
  const core::NcEvaluation he_before = he_eval.evaluate(he_nc, he.tagged);
  const core::GeohintLearner he_learner(he_eval);
  const auto he_learned = he_learner.learn(he_nc, he.tagged, he_before);
  const core::NcEvaluation he_after = he_eval.evaluate(he_nc, he.tagged);
  report(dict, he_nc, he_learned, he_before, he_after);

  // Show the candidate ranking logic explicitly (the figure's table).
  std::printf("  candidate interpretations of \"ash\":\n");
  for (const geo::LocationId id : dict.abbreviation_candidates("ash")) {
    const geo::Location& loc = dict.location(id);
    std::printf("    %-12s %-3s %-3s facility=%d population=%llu\n", loc.city.c_str(),
                loc.state.c_str(), loc.country.c_str(), loc.has_facility,
                static_cast<unsigned long long>(loc.population));
  }

  // --- Figure 8b: ntt.net's "mlanit" ------------------------------------------
  std::printf("\nFigure 8b: learning NTT's home-made CLLI code \"mlanit\"\n");
  Bench ntt({
      measure::VantagePoint{"zrh", "ch", {47.37, 8.54}},
      measure::VantagePoint{"lon", "uk", {51.51, -0.13}},
      measure::VantagePoint{"tyo", "jp", {35.68, 139.69}},
      measure::VantagePoint{"sea", "us", {47.61, -122.33}},
  });
  ntt.add("ae-1.r20.londen01.uk.bb.gin.ntt.net", 1, 2.0);
  ntt.add("ae-2.r21.tokyjp05.jp.bb.gin.ntt.net", 2, 2.0);
  ntt.add("ae-9.r22.snjsca04.us.bb.gin.ntt.net", 3, 12.0);
  ntt.add("ae-7.r02.mlanit01.it.bb.gin.ntt.net", 0, 6.0);
  ntt.add("ae-3.r21.mlanit02.it.bb.gin.ntt.net", 0, 6.0);

  core::NamingConvention ntt_nc;
  ntt_nc.suffix = "ntt.net";
  core::GeoRegex ntt_rx;
  ntt_rx.regex = *rx::parse("^.+\\.([a-z]{6})\\d+\\.([a-z]{2})\\.bb\\.gin\\.ntt\\.net$");
  ntt_rx.plan.roles = {core::Role::kClli, core::Role::kCountryCode};
  ntt_nc.regexes.push_back(std::move(ntt_rx));

  const core::Evaluator ntt_eval(dict, ntt.meas);
  const core::NcEvaluation ntt_before = ntt_eval.evaluate(ntt_nc, ntt.tagged);
  const core::GeohintLearner ntt_learner(ntt_eval);
  const auto ntt_learned = ntt_learner.learn(ntt_nc, ntt.tagged, ntt_before);
  const core::NcEvaluation ntt_after = ntt_eval.evaluate(ntt_nc, ntt.tagged);
  report(dict, ntt_nc, ntt_learned, ntt_before, ntt_after);

  return 0;
}
