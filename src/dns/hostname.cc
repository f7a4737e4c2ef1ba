#include "dns/hostname.h"

namespace hoiho::dns {

bool valid_hostname(std::string_view s) {
  if (s.empty() || s.size() > 255) return false;
  if (s.front() == '.' || s.back() == '.') return false;
  std::size_t label_len = 0;
  for (char c : s) {
    if (c == '.') {
      if (label_len == 0) return false;  // empty label
      label_len = 0;
      continue;
    }
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' || c == '_'))
      return false;
    if (++label_len > 63) return false;
  }
  return label_len > 0;
}

namespace {

// Longest name valid_hostname accepts; longer input is rejected before it is
// copied anywhere.
constexpr std::size_t kMaxHostname = 255;

// ASCII lower-casing of `raw` into `out` (raw.size() bytes). Bytes outside
// A-Z pass through unchanged; valid_hostname rejects the non-ASCII ones.
void lower_into(std::string_view raw, char* out) {
  for (const char c : raw)
    *out++ = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

// Parses already-canonical (lower-cased) bytes the caller owns.
std::optional<Hostname> parse_canonical(std::string_view canonical, const PublicSuffixList& psl) {
  if (!valid_hostname(canonical)) return std::nullopt;
  const std::string_view suffix = psl.registered_domain(canonical);
  if (suffix.empty()) return std::nullopt;
  Hostname h;
  h.full = canonical;
  h.suffix_pos = canonical.size() - suffix.size();
  return h;
}

}  // namespace

std::optional<Hostname> parse_hostname(std::string_view raw, util::Arena& arena,
                                       const PublicSuffixList& psl) {
  // Lower-case into a stack buffer first: rejects (oversized, bad charset,
  // no registered domain) leave no residue in the arena.
  char buf[kMaxHostname];
  if (raw.empty() || raw.size() > kMaxHostname) return std::nullopt;
  lower_into(raw, buf);
  const auto h = parse_canonical({buf, raw.size()}, psl);
  if (!h) return std::nullopt;
  Hostname out = *h;
  out.full = arena.intern(h->full);
  return out;
}

std::optional<Hostname> parse_hostname(std::string_view raw, std::string& storage,
                                       const PublicSuffixList& psl) {
  if (raw.empty() || raw.size() > kMaxHostname) return std::nullopt;
  // resize() within the capacity an earlier call left allocates nothing.
  storage.resize(raw.size());
  lower_into(raw, storage.data());
  return parse_canonical(storage, psl);
}

}  // namespace hoiho::dns
