#include "dns/public_suffix.h"

#include <algorithm>

namespace hoiho::dns {

namespace {

// Embedded rule set: generic TLDs plus the country-code TLDs and
// second-level registries that appear in router hostname corpora.
constexpr std::string_view kBuiltinRules[] = {
    // Generic.
    "com", "net", "org", "edu", "gov", "mil", "int", "info", "biz", "name",
    "io", "co", "me", "tv", "cc", "ws", "us", "eu", "asia", "cloud", "host",
    // Country codes.
    "ca", "mx", "br", "ar", "cl", "pe", "ec", "ve", "pa", "cr", "gt",
    "uk", "ie", "fr", "de", "nl", "be", "lu", "ch", "at", "cz", "sk", "pl",
    "hu", "ro", "bg", "hr", "rs", "si", "gr", "tr", "it", "es", "pt", "se",
    "no", "dk", "fi", "is", "lv", "lt", "ee", "ua", "ru",
    "jp", "kr", "cn", "hk", "tw", "sg", "my", "th", "id", "ph", "vn", "in",
    "pk", "bd", "lk", "au", "nz",
    "za", "ke", "ng", "gh", "eg", "ma", "tn", "dz",
    "ae", "qa", "sa", "kw", "bh", "om", "il", "jo", "lb",
    // Second-level registries.
    "co.uk", "ac.uk", "org.uk", "net.uk", "gov.uk", "me.uk",
    "com.au", "net.au", "org.au", "edu.au", "gov.au", "id.au",
    "co.jp", "ne.jp", "or.jp", "ad.jp", "ac.jp", "go.jp",
    "com.br", "net.br", "org.br", "gov.br",
    "co.nz", "net.nz", "org.nz", "ac.nz", "govt.nz",
    "co.za", "net.za", "org.za", "ac.za",
    "com.mx", "net.mx", "org.mx",
    "com.ar", "net.ar", "org.ar",
    "com.cn", "net.cn", "org.cn", "edu.cn",
    "co.in", "net.in", "org.in", "ac.in",
    "com.sg", "net.sg", "org.sg",
    "com.my", "net.my", "org.my",
    "com.tw", "net.tw", "org.tw",
    "com.hk", "net.hk", "org.hk",
    "com.tr", "net.tr", "org.tr",
    "co.kr", "ne.kr", "or.kr", "ac.kr",
    "com.ph", "net.ph", "com.vn", "net.vn",
    "com.pk", "net.pk", "com.bd", "net.bd",
    "co.id", "net.id", "or.id",
    "co.th", "net.th", "in.th", "ac.th",
    "com.sa", "net.sa", "com.ae", "net.ae",
    "co.il", "net.il", "org.il", "ac.il",
    "com.eg", "net.eg", "co.ke", "or.ke", "com.ng", "net.ng",
    "com.gh", "net.gh", "co.ma", "net.ma",
    "com.pe", "net.pe", "com.co", "net.co", "com.ec", "net.ec",
    "com.ve", "net.ve", "com.pa", "net.pa", "co.cr", "com.gt",
    "com.ua", "net.ua", "com.ru", "net.ru", "org.ru",
    "com.pl", "net.pl", "org.pl",
};

}  // namespace

const PublicSuffixList& PublicSuffixList::builtin() {
  static const PublicSuffixList psl = [] {
    PublicSuffixList p;
    for (const std::string_view rule : kBuiltinRules) p.add_rule(rule);
    return p;
  }();
  return psl;
}

std::span<const std::string_view> PublicSuffixList::builtin_rules() { return kBuiltinRules; }

void PublicSuffixList::add_rule(std::string_view rule) {
  // Tolerate PSL file noise: comments, blanks, leading dots.
  if (rule.empty() || util::starts_with(rule, "//") || rule[0] == '#') return;
  while (!rule.empty() && rule.front() == '.') rule.remove_prefix(1);
  if (rule.empty()) return;
  const std::string key = util::to_lower(rule);
  const std::size_t labels = util::split(key, ".").size();
  max_labels_ = std::max(max_labels_, labels);
  rules_.insert(key);
}

std::string_view PublicSuffixList::public_suffix(std::string_view hostname) const {
  // The longest candidate starts at the max_labels_-th non-empty label from
  // the right (or the leftmost label of a shorter name).
  std::size_t start = hostname.size();
  std::size_t labels = 0;
  for (std::size_t i = hostname.size(); i > 0 && labels < max_labels_; --i) {
    if (hostname[i - 1] != '.' && (i == 1 || hostname[i - 2] == '.')) {
      start = i - 1;
      ++labels;
    }
  }
  // Try it, then each shorter candidate past the next dot. A candidate that
  // starts with a dot (an empty label) is never a rule: add_rule strips
  // leading dots.
  while (start < hostname.size()) {
    const std::string_view cand = hostname.substr(start);
    if (rules_.contains(cand)) return cand;
    start = hostname.find('.', start);
    if (start == std::string_view::npos) break;
    ++start;
  }
  return {};
}

std::string_view PublicSuffixList::registered_domain(std::string_view hostname) const {
  const std::string_view ps = public_suffix(hostname);
  if (ps.empty() || ps.size() == hostname.size()) return {};
  // One more label to the left of the public suffix.
  const std::size_t dot_before_ps = hostname.size() - ps.size() - 1;
  if (hostname[dot_before_ps] != '.') return {};  // defensive: ps not label-aligned
  const std::size_t prev_dot = hostname.rfind('.', dot_before_ps - 1);
  const std::size_t start = (prev_dot == std::string_view::npos) ? 0 : prev_dot + 1;
  if (start >= dot_before_ps) return {};
  return hostname.substr(start);
}

}  // namespace hoiho::dns
