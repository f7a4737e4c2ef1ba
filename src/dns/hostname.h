// Hostname parsing: canonical form, suffix extraction, and the token views
// the learner works with.
//
// A parsed hostname carries its registered-domain suffix (the grouping key
// of the whole method) and exposes the *prefix* — everything left of the
// suffix — which is where operators embed geohints.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/public_suffix.h"
#include "util/arena.h"
#include "util/strings.h"

namespace hoiho::dns {

// True if `s` is a plausible DNS hostname for our purposes: non-empty,
// at most 255 chars, labels of [a-z0-9_-] separated by single dots.
// Expects lower-case input; upper-case and non-ASCII bytes are rejected.
bool valid_hostname(std::string_view s);

// A parsed hostname is a *view*: the canonical lower-cased bytes live in
// whatever storage the parse call was given (a batch arena for ingestion, a
// caller string for one-off lookups), not in per-hostname heap strings. A
// streamed batch's hostnames pack contiguously in its Topology's arena and
// free together when the batch retires. Copying a Hostname copies the view;
// the storage must outlive every copy.
struct Hostname {
  std::string_view full;       // lower-cased full hostname
  std::size_t suffix_pos = 0;  // offset of the registered-domain suffix

  // The registered-domain suffix, e.g. "ntt.net".
  std::string_view suffix() const { return full.substr(suffix_pos); }

  // Everything before ".suffix" — may be empty for the apex name.
  std::string_view prefix() const {
    return suffix_pos == 0 ? std::string_view{} : full.substr(0, suffix_pos - 1);
  }

  // Dot-separated labels of the prefix, with positions into full.
  std::vector<util::Token> labels() const { return util::split_tokens(prefix(), '.'); }
};

// Canonicalizes (lower-cases) and parses `raw`; std::nullopt if the hostname
// is invalid or has no registered-domain suffix under `psl`. The canonical
// bytes are interned into `arena` (only for accepted names — rejects leave
// no residue), and the returned Hostname views them.
std::optional<Hostname> parse_hostname(std::string_view raw, util::Arena& arena,
                                       const PublicSuffixList& psl = PublicSuffixList::builtin());

// One-off form for call sites without an arena (the serving lookup path,
// small tools): `raw` is lower-cased in place into `storage`, which must
// outlive the returned Hostname. Reusing one `storage` across calls makes a
// parse allocation-free once warm: the PSL lookups probe by string_view and
// the buffer keeps its capacity.
std::optional<Hostname> parse_hostname(std::string_view raw, std::string& storage,
                                       const PublicSuffixList& psl = PublicSuffixList::builtin());

}  // namespace hoiho::dns
