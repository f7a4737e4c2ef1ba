// Unit tests for dns/hostname.h.
#include "dns/hostname.h"

#include <gtest/gtest.h>

#include <cctype>

namespace hoiho::dns {
namespace {

TEST(ValidHostname, AcceptsRouterNames) {
  EXPECT_TRUE(valid_hostname("xe-0-0.gw1.sfo16.alter.net"));
  EXPECT_TRUE(valid_hostname("100ge1-2.core1.ash1.he.net"));
  EXPECT_TRUE(valid_hostname("a_b.example.net"));  // underscores occur in PTRs
}

TEST(ValidHostname, RejectsMalformed) {
  EXPECT_FALSE(valid_hostname(""));
  EXPECT_FALSE(valid_hostname(".leading.net"));
  EXPECT_FALSE(valid_hostname("trailing.net."));
  EXPECT_FALSE(valid_hostname("dou..ble.net"));
  EXPECT_FALSE(valid_hostname("Upper.Case.net"));  // expects canonical lower-case
  EXPECT_FALSE(valid_hostname("spa ce.net"));
  EXPECT_FALSE(valid_hostname(std::string(64, 'a') + ".net"));  // label > 63
  EXPECT_FALSE(valid_hostname(std::string(300, 'a')));
}

TEST(ValidHostname, AcceptsExactlyTheCLocaleHostnameBytes) {
  EXPECT_FALSE(valid_hostname("core1.ASH1.he.net"));
  EXPECT_FALSE(valid_hostname("Z.net"));
  EXPECT_FALSE(valid_hostname("caf\xc3\xa9.net"));
  EXPECT_FALSE(valid_hostname("\x80.net"));
  EXPECT_FALSE(valid_hostname("a.\xff"));
  // Every byte in a label: accepted iff it is a-z, 0-9, '-' or '_' (the
  // islower/isdigit classes of the C locale).
  for (int b = 1; b < 256; ++b) {
    if (b == '.') continue;
    const char c = static_cast<char>(b);
    const bool want = std::islower(b) || std::isdigit(b) || c == '-' || c == '_';
    EXPECT_EQ(valid_hostname(std::string("a") + c + ".net"), want) << "byte " << b;
  }
}

TEST(ParseHostname, StorageAndArenaFormsAgree) {
  util::Arena arena;
  std::string storage;
  const std::string at_limit = std::string(63, 'a') + "." + std::string(63, 'b') + "." +
                               std::string(63, 'c') + "." + std::string(59, 'd') + ".net";
  ASSERT_EQ(at_limit.size(), 255u);
  for (const std::string& raw :
       {at_limit, "x" + at_limit, std::string("Core1.ASH1.He.Net"), std::string("r1.he.net"),
        std::string("r1.caf\xc3\xa9.net"), std::string("R1..he.net"), std::string(""),
        std::string("NET"), std::string("x.Co.Uk"), std::string("a.b.c.d.e.f.g.h.he.net")}) {
    const auto from_arena = parse_hostname(raw, arena);
    const auto from_storage = parse_hostname(raw, storage);
    ASSERT_EQ(from_arena.has_value(), from_storage.has_value()) << raw;
    if (!from_arena) continue;
    EXPECT_EQ(from_arena->full, from_storage->full);
    EXPECT_EQ(from_arena->suffix_pos, from_storage->suffix_pos);
  }
  EXPECT_TRUE(parse_hostname(at_limit, storage).has_value());
  EXPECT_FALSE(parse_hostname("x" + at_limit, storage).has_value());
}

TEST(ParseHostname, ReusedStorageTakesEachName) {
  // A long name then a short one through the same buffer: the second parse
  // must not see the first one's tail.
  std::string storage;
  ASSERT_TRUE(parse_hostname("XE-0-0.GW1.SFO16.ALTER.NET", storage).has_value());
  const auto h = parse_hostname("r1.he.net", storage);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->full, "r1.he.net");
  EXPECT_EQ(storage, "r1.he.net");
  EXPECT_EQ(h->suffix(), "he.net");
}

TEST(ParseHostname, CanonicalizesCase) {
  util::Arena arena;
  const auto h = parse_hostname("Core1.ASH1.He.Net", arena);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->full, "core1.ash1.he.net");
}

TEST(ParseHostname, SuffixAndPrefix) {
  std::string storage;
  const auto h = parse_hostname("xe-0-0-ash1-bcr1.bb.ebay.com", storage);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->suffix(), "ebay.com");
  EXPECT_EQ(h->prefix(), "xe-0-0-ash1-bcr1.bb");
}

TEST(ParseHostname, ApexHasEmptyPrefix) {
  std::string storage;
  const auto h = parse_hostname("ebay.com", storage);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->suffix(), "ebay.com");
  EXPECT_EQ(h->prefix(), "");
  EXPECT_TRUE(h->labels().empty());
}

TEST(ParseHostname, RejectsUnknownTld) {
  util::Arena arena;
  EXPECT_FALSE(parse_hostname("router.something.invalidtld", arena).has_value());
  // Rejects leave no residue in the arena.
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(ParseHostname, LabelsCarryPositionsInFull) {
  util::Arena arena;
  const auto h = parse_hostname("gw1.sfo16.alter.net", arena);
  ASSERT_TRUE(h.has_value());
  const auto labels = h->labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].text, "gw1");
  EXPECT_EQ(labels[1].text, "sfo16");
  EXPECT_EQ(labels[1].begin, 4u);
  EXPECT_EQ(h->full.substr(labels[1].begin, labels[1].size()), "sfo16");
}

TEST(ParseHostname, CustomPsl) {
  PublicSuffixList psl;
  psl.add_rule("lab");
  std::string storage;
  const auto h = parse_hostname("r1.group.lab", storage, psl);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->suffix(), "group.lab");
}

}  // namespace
}  // namespace hoiho::dns
