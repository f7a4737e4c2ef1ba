// Unit tests for util/strings.h.
#include "util/strings.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

namespace hoiho::util {
namespace {

TEST(ToLower, Basic) {
  EXPECT_EQ(to_lower("AbC-12.Z"), "abc-12.z");
  EXPECT_EQ(to_lower(""), "");
  EXPECT_EQ(to_lower("already"), "already");
}

TEST(Predicates, AllAlpha) {
  EXPECT_TRUE(is_all_alpha("abc"));
  EXPECT_FALSE(is_all_alpha("ab1"));
  EXPECT_FALSE(is_all_alpha(""));
  EXPECT_FALSE(is_all_alpha("a-b"));
}

TEST(Predicates, AllDigit) {
  EXPECT_TRUE(is_all_digit("0123"));
  EXPECT_FALSE(is_all_digit("12a"));
  EXPECT_FALSE(is_all_digit(""));
}

TEST(Predicates, AllAlnum) {
  EXPECT_TRUE(is_all_alnum("ab12"));
  EXPECT_FALSE(is_all_alnum("ab-12"));
  EXPECT_FALSE(is_all_alnum(""));
}

TEST(Affixes, EndsWith) {
  EXPECT_TRUE(ends_with("core1.ntt.net", ".ntt.net"));
  EXPECT_FALSE(ends_with("net", ".net"));
  EXPECT_TRUE(ends_with("x", ""));
}

TEST(Affixes, StartsWith) {
  EXPECT_TRUE(starts_with("hoiho", "hoi"));
  EXPECT_FALSE(starts_with("ho", "hoi"));
}

TEST(Split, DropsEmptyFields) {
  const auto v = split("a..b.c.", ".");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "b");
  EXPECT_EQ(v[2], "c");
}

TEST(Split, MultipleDelims) {
  const auto v = split("xe-0-0.gw1", "-.");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "xe");
  EXPECT_EQ(v[3], "gw1");
}

TEST(Split, KeepEmpty) {
  const auto v = split_keep_empty("a,,b", ',');
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], "");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"one"}, "."), "one");
}

TEST(SplitTokens, RecordsPositions) {
  const auto v = split_tokens("ab.cde.f", '.');
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].text, "ab");
  EXPECT_EQ(v[0].begin, 0u);
  EXPECT_EQ(v[1].text, "cde");
  EXPECT_EQ(v[1].begin, 3u);
  EXPECT_EQ(v[2].end, 8u);
}

TEST(CharKindTest, Classification) {
  EXPECT_EQ(char_kind('a'), CharKind::kAlpha);
  EXPECT_EQ(char_kind('7'), CharKind::kDigit);
  EXPECT_EQ(char_kind('-'), CharKind::kPunct);
  EXPECT_EQ(char_kind('.'), CharKind::kPunct);
}

TEST(AlphaRuns, PaperZayoExample) {
  // zayo-ntt.mpr1.lhr15.uk.zip -> zayo ntt mpr lhr uk zip (paper §5.2).
  const auto runs = alpha_runs("zayo-ntt.mpr1.lhr15.uk.zip");
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs[0].text, "zayo");
  EXPECT_EQ(runs[1].text, "ntt");
  EXPECT_EQ(runs[2].text, "mpr");
  EXPECT_EQ(runs[3].text, "lhr");
  EXPECT_EQ(runs[4].text, "uk");
  EXPECT_EQ(runs[5].text, "zip");
}

TEST(AlphaRuns, PositionsPointIntoSource) {
  const std::string s = "ab12cd";
  const auto runs = alpha_runs(s);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].begin, 4u);
  EXPECT_EQ(runs[1].end, 6u);
}

TEST(AlnumRuns, SplitsOnPunctOnly) {
  const auto runs = alnum_runs("529bryant-2.ce");
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].text, "529bryant");
  EXPECT_EQ(runs[1].text, "2");
  EXPECT_EQ(runs[2].text, "ce");
}

TEST(KindRuns, AlternatingKinds) {
  const auto runs = kind_runs("ash1-bcr2");
  ASSERT_EQ(runs.size(), 5u);
  EXPECT_EQ(runs[0].text, "ash");
  EXPECT_EQ(runs[1].text, "1");
  EXPECT_EQ(runs[2].text, "-");
  EXPECT_EQ(runs[3].text, "bcr");
  EXPECT_EQ(runs[4].text, "2");
}

TEST(SquashAlnum, StripsPunctLowercases) {
  EXPECT_EQ(squash_alnum("111-8th-Ave"), "1118thave");
  EXPECT_EQ(squash_alnum("---"), "");
}

TEST(RegexEscape, EscapesMeta) {
  EXPECT_EQ(regex_escape("a.b"), "a\\.b");
  EXPECT_EQ(regex_escape("a-b+c"), "a-b\\+c");  // dash is literal in the dialect
  EXPECT_EQ(regex_escape("plain"), "plain");
}

TEST(Format, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(1.0, 0), "1");
}

TEST(Format, AppendFixedIsPrintfFixed) {
  std::string out = "x=";
  append_fixed(out, -0.00004, 4);
  EXPECT_EQ(out, "x=-0.0000");
  // Past the stack buffer (1e300 has 301 integer digits), non-finite values
  // and many decimals: still printf's bytes.
  for (const double v : {1e300, -1.7976931348623157e308, 0.1, 2.5, -2.5, 1e-320,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN()}) {
    for (const int decimals : {0, 3, 4, 60}) {
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
      EXPECT_EQ(fmt_double(v, decimals), buf) << decimals;
    }
  }
}

TEST(Format, FmtPct) {
  EXPECT_EQ(fmt_pct(55, 100), "55.0%");
  EXPECT_EQ(fmt_pct(1, 0), "-");
  EXPECT_EQ(fmt_pct(1, 3, 0), "33%");
}

TEST(Format, FmtCount) {
  EXPECT_EQ(fmt_count(2'560'000), "2.56M");
  EXPECT_EQ(fmt_count(559'000), "559K");
  EXPECT_EQ(fmt_count(995), "995");
  EXPECT_EQ(fmt_count(84'000), "84K");
  EXPECT_EQ(fmt_count(25'600'000), "25.6M");
}

}  // namespace
}  // namespace hoiho::util
