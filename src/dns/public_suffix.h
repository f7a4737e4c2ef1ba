// Public suffix handling (paper §5.1.2).
//
// The method groups hostnames by the *registered domain suffix* under which
// an operator registers names: the public suffix (effective TLD, e.g. "com",
// "net.au") plus one more label ("cogentco.com", "ccnw.net.au"). The paper
// uses the Mozilla Public Suffix List; this module embeds the subset of that
// list relevant to router hostnames and accepts additional rules (or a full
// PSL file) at runtime.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>

#include "util/strings.h"

namespace hoiho::dns {

class PublicSuffixList {
 public:
  PublicSuffixList() = default;

  // A PSL with the embedded rule set. Built once, then shared.
  static const PublicSuffixList& builtin();

  // The embedded rules builtin() is made of.
  static std::span<const std::string_view> builtin_rules();

  // Adds one rule, e.g. "net.au". Lower-cases; ignores empty/comment lines,
  // so a real PSL file can be streamed through this.
  void add_rule(std::string_view rule);

  std::size_t rule_count() const { return rules_.size(); }

  // Longest public suffix of `hostname` present in the rule set; empty view
  // if none. `hostname` must be lower-case. Candidates are the suffixes that
  // start at a non-empty label, probed as string_views, so a lookup
  // allocates nothing.
  std::string_view public_suffix(std::string_view hostname) const;

  // The registered domain: public suffix plus one label ("he.net" for
  // "core1.ash1.he.net"). Empty if the hostname has no label beyond the
  // public suffix (or no public suffix at all). Allocation-free, like
  // public_suffix.
  std::string_view registered_domain(std::string_view hostname) const;

 private:
  std::unordered_set<std::string, util::TransparentStringHash, std::equal_to<>> rules_;
  std::size_t max_labels_ = 0;
};

}  // namespace hoiho::dns
