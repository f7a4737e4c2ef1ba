// Unit tests for dns/public_suffix.h.
#include "dns/public_suffix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/rng.h"
#include "util/strings.h"

namespace hoiho::dns {
namespace {

TEST(Psl, BuiltinKnowsCommonTlds) {
  const PublicSuffixList& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("core1.ntt.net"), "net");
  EXPECT_EQ(psl.public_suffix("x.cogentco.com"), "com");
}

TEST(Psl, SecondLevelRegistries) {
  // Paper §5.1.2 examples: .net.au and ccnw.net.au.
  const PublicSuffixList& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("r1.ccnw.net.au"), "net.au");
  EXPECT_EQ(psl.registered_domain("r1.ccnw.net.au"), "ccnw.net.au");
}

TEST(Psl, RegisteredDomainIsSuffixPlusOneLabel) {
  const PublicSuffixList& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.registered_domain("xe-0.core1.ash1.he.net"), "he.net");
  EXPECT_EQ(psl.registered_domain("hundredgige0-0-0-0.amscr6.opentransit.net"),
            "opentransit.net");
}

TEST(Psl, ApexDomain) {
  const PublicSuffixList& psl = PublicSuffixList::builtin();
  // "as8218.eu" is itself a registered domain (eu is the public suffix).
  EXPECT_EQ(psl.registered_domain("r1.as8218.eu"), "as8218.eu");
  EXPECT_EQ(psl.registered_domain("as8218.eu"), "as8218.eu");
}

TEST(Psl, NoMatchYieldsEmpty) {
  const PublicSuffixList& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.public_suffix("foo.invalidtld"), "");
  EXPECT_EQ(psl.registered_domain("foo.invalidtld"), "");
}

TEST(Psl, BareSuffixHasNoRegisteredDomain) {
  const PublicSuffixList& psl = PublicSuffixList::builtin();
  EXPECT_EQ(psl.registered_domain("net"), "");
  EXPECT_EQ(psl.registered_domain("net.au"), "");
}

TEST(Psl, LongestRuleWins) {
  PublicSuffixList psl;
  psl.add_rule("uk");
  psl.add_rule("co.uk");
  EXPECT_EQ(psl.public_suffix("www.bbc.co.uk"), "co.uk");
  EXPECT_EQ(psl.registered_domain("www.bbc.co.uk"), "bbc.co.uk");
}

TEST(Psl, AddRuleToleratesFileNoise) {
  PublicSuffixList psl;
  psl.add_rule("// comment");
  psl.add_rule("");
  psl.add_rule("# other comment");
  psl.add_rule(".dotted");
  EXPECT_EQ(psl.rule_count(), 1u);
  EXPECT_EQ(psl.public_suffix("a.dotted"), "dotted");
}

TEST(Psl, CustomRules) {
  PublicSuffixList psl;
  psl.add_rule("internal");
  EXPECT_EQ(psl.registered_domain("r1.corp.internal"), "corp.internal");
}

// The split-based lookup PublicSuffixList used before it walked label
// starts in place: the non-empty labels via util::split, each candidate
// probed as a fresh std::string. Kept as the oracle for the allocation-free
// lookup, which must answer identically on every input.
class SplitPsl {
 public:
  void add_rule(std::string_view rule) {
    if (rule.empty() || util::starts_with(rule, "//") || rule[0] == '#') return;
    while (!rule.empty() && rule.front() == '.') rule.remove_prefix(1);
    if (rule.empty()) return;
    const std::string key = util::to_lower(rule);
    max_labels_ = std::max(max_labels_, util::split(key, ".").size());
    rules_.insert(key);
  }

  std::string_view public_suffix(std::string_view hostname) const {
    const std::vector<std::string_view> labels = util::split(hostname, ".");
    if (labels.empty()) return {};
    const std::size_t try_max = std::min(max_labels_, labels.size());
    for (std::size_t n = try_max; n >= 1; --n) {
      const std::size_t start = labels[labels.size() - n].begin() - hostname.begin();
      const std::string_view cand = hostname.substr(start);
      if (rules_.contains(std::string(cand))) return cand;
    }
    return {};
  }

  std::string_view registered_domain(std::string_view hostname) const {
    const std::string_view ps = public_suffix(hostname);
    if (ps.empty() || ps.size() == hostname.size()) return {};
    const std::size_t dot_before_ps = hostname.size() - ps.size() - 1;
    if (hostname[dot_before_ps] != '.') return {};
    const std::size_t prev_dot = hostname.rfind('.', dot_before_ps - 1);
    const std::size_t start = (prev_dot == std::string_view::npos) ? 0 : prev_dot + 1;
    if (start >= dot_before_ps) return {};
    return hostname.substr(start);
  }

 private:
  std::unordered_set<std::string> rules_;
  std::size_t max_labels_ = 0;
};

// Random bytes for one label: mostly hostname characters, with upper case,
// non-ASCII bytes and the odd empty label mixed in.
std::string random_label(util::Rng& rng) {
  static constexpr std::string_view kChars = "abcdefghijklmnopqrstuvwxyz0123456789-_ABCXYZ";
  std::string label;
  const std::size_t len = rng.next_bool(0.1) ? 0 : 1 + rng.next_below(8);
  for (std::size_t i = 0; i < len; ++i) {
    if (rng.next_bool(0.03)) {
      label += static_cast<char>(0x80 + rng.next_below(0x80));
    } else {
      label += kChars[rng.next_below(kChars.size())];
    }
  }
  return label;
}

// A name built from up to 12 labels (more than any rule has), often ending
// in a known rule, with leading/trailing dots and an occasional 255-byte or
// longer body.
std::string random_name(util::Rng& rng, const std::vector<std::string>& tails) {
  std::string name;
  const std::size_t labels = rng.next_below(13);
  for (std::size_t i = 0; i < labels; ++i) {
    if (i != 0) name += '.';
    name += random_label(rng);
  }
  if (rng.next_bool(0.7)) {
    if (!name.empty()) name += '.';
    name += tails[rng.next_below(tails.size())];
  }
  if (rng.next_bool(0.05)) name.insert(0, std::string(1 + rng.next_below(3), '.'));
  if (rng.next_bool(0.05)) name.append(1 + rng.next_below(3), '.');
  // Now and then pad to 255 bytes, the longest valid hostname.
  if (rng.next_bool(0.02) && name.size() < 254)
    name = std::string(254 - name.size(), 'a') + "." + name;
  return name;
}

// One byte-level mutation: flip case, drop, double a dot, or splice in a
// non-ASCII byte.
void mutate(util::Rng& rng, std::string& name) {
  if (name.empty()) {
    name = ".";
    return;
  }
  const std::size_t at = rng.next_below(name.size());
  switch (rng.next_below(5)) {
    case 0: name[at] = static_cast<char>(name[at] ^ 0x20); break;
    case 1: name.erase(at, 1); break;
    case 2: name.insert(at, "."); break;
    case 3: name.insert(at, ".."); break;
    default: name[at] = static_cast<char>(0xc3); break;
  }
}

void expect_same(const PublicSuffixList& psl, const SplitPsl& oracle, std::string_view name) {
  ASSERT_EQ(psl.public_suffix(name), oracle.public_suffix(name)) << "'" << name << "'";
  ASSERT_EQ(psl.registered_domain(name), oracle.registered_domain(name)) << "'" << name << "'";
}

void run_differential(const PublicSuffixList& psl, const SplitPsl& oracle,
                      const std::vector<std::string>& tails, std::uint64_t seed) {
  util::Rng rng(seed);
  std::size_t suffixed = 0;
  for (std::size_t i = 0; i < 100000; ++i) {
    std::string name = random_name(rng, tails);
    for (std::size_t m = rng.next_below(3); m > 0; --m) mutate(rng, name);
    expect_same(psl, oracle, name);
    if (::testing::Test::HasFatalFailure()) return;
    suffixed += psl.public_suffix(name).empty() ? 0 : 1;
  }
  // The generator must reach both branches, or the comparison is hollow.
  EXPECT_GT(suffixed, 10000u);
  EXPECT_LT(suffixed, 90000u);
}

TEST(PslDifferential, BuiltinMatchesSplitOracle) {
  SplitPsl oracle;
  std::vector<std::string> tails;
  for (const std::string_view rule : PublicSuffixList::builtin_rules()) {
    oracle.add_rule(rule);
    tails.emplace_back(rule);
  }
  for (const std::string_view edge : {"", ".", "..", "net", ".net", "net.", "a..net", "a.net..",
                                      "..a.net", "co.uk", "x.co.uk", "x.co..uk", "x.CO.UK"})
    expect_same(PublicSuffixList::builtin(), oracle, edge);
  run_differential(PublicSuffixList::builtin(), oracle, tails, 1);
}

TEST(PslDifferential, AddedRulesMatchSplitOracle) {
  // Builtin rules plus rules a PSL file could bring: deeper registries, a
  // rule with an empty label, a trailing dot, upper case and file noise.
  PublicSuffixList psl = PublicSuffixList::builtin();
  SplitPsl oracle;
  std::vector<std::string> tails;
  for (const std::string_view rule : PublicSuffixList::builtin_rules()) oracle.add_rule(rule);
  for (const std::string_view rule :
       {"internal", "corp.internal", "a.b.c.d.example", "x..y", "p.q..r.s.t", "net.", "KAWASAKI.JP",
        "..lead",
        "// comment", "# comment", "", "zz"}) {
    psl.add_rule(rule);
    oracle.add_rule(rule);
    if (!rule.empty() && rule[0] != '/' && rule[0] != '#') tails.emplace_back(rule);
  }
  tails.emplace_back("com");
  tails.emplace_back("b.c.d.example");
  expect_same(psl, oracle, "r1.x..y");
  expect_same(psl, oracle, "r1.p.q..r.s.t");
  expect_same(psl, oracle, "r1.host.net.");
  run_differential(psl, oracle, tails, 2);
}

}  // namespace
}  // namespace hoiho::dns
