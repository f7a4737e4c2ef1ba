// Allocation counts of the lookup path: a work counter that does not depend
// on the hardware. This binary replaces the global operator new with a
// counting one, warms the thread-local buffers with one lookup, then pins
// how many heap allocations each step of a served lookup makes.
//
// Sanitizer builds skip it: AddressSanitizer and ThreadSanitizer supply
// their own operator new, and replacing it here would bypass their
// allocation tracking (ASan's new/delete mismatch checks, TSan's heap
// modelling) for the whole binary.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "core/geolocate.h"
#include "dns/hostname.h"
#include "regex/parser.h"
#include "serve/protocol.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HOIHO_COUNT_ALLOCATIONS 0
#else
#define HOIHO_COUNT_ALLOCATIONS 1
#endif

namespace {

thread_local std::size_t allocations = 0;

}  // namespace

#if HOIHO_COUNT_ALLOCATIONS
void* operator new(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace hoiho::serve {
namespace {

// Heap allocations `fn` makes on this thread.
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  const std::size_t before = allocations;
  fn();
  return allocations - before;
}

geo::LocationId find_city(const geo::GeoDictionary& dict, std::string_view city,
                          std::string_view country, std::string_view state) {
  for (geo::LocationId id : dict.lookup(geo::HintType::kCityName, geo::squash_place_name(city))) {
    const geo::Location& loc = dict.location(id);
    if (geo::same_country(loc.country, country) && loc.state == state) return id;
  }
  return geo::kInvalidLocation;
}

// One he.net-style convention: IATA extraction plus a learned "ash".
core::Geolocator he_net_geolocator(const geo::GeoDictionary& dict) {
  core::NamingConvention nc;
  nc.suffix = "he.net";
  core::GeoRegex gr;
  gr.regex = *rx::parse("^.+\\.([a-z]{3})\\d+\\.he\\.net$");
  gr.plan.roles = {core::Role::kIata};
  nc.regexes.push_back(std::move(gr));
  nc.learned[{geo::HintType::kIata, "ash"}] = find_city(dict, "Ashburn", "us", "va");
  core::Geolocator g(dict);
  g.add(std::move(nc));
  return g;
}

class LookupAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!HOIHO_COUNT_ALLOCATIONS) GTEST_SKIP() << "sanitizer build: operator new not replaced";
  }
};

TEST_F(LookupAllocations, ParseHostnameAllocatesNothingOnceWarm) {
  std::string storage;
  ASSERT_TRUE(dns::parse_hostname("xe-0-0.core1.ash1.he.net", storage).has_value());
  EXPECT_GT(count_allocations([] { std::string s(64, 'x'); }), 0u) << "counter not installed";
  bool ok = true;
  EXPECT_EQ(count_allocations([&] {
              ok = ok && dns::parse_hostname("XE-0-0.CORE1.ASH1.HE.NET", storage).has_value();
              ok = ok && dns::parse_hostname("r1.ccnw.net.au", storage).has_value();
              ok = ok && !dns::parse_hostname("foo.invalidtld", storage).has_value();
              ok = ok && !dns::parse_hostname(std::string_view("a..b.net"), storage).has_value();
            }),
            0u);
  EXPECT_TRUE(ok);
}

TEST_F(LookupAllocations, ServedLookupAllocatesForCandidatesAndAnswerOnly) {
  const geo::GeoDictionary& dict = geo::builtin_dictionary();
  const core::Geolocator g = he_net_geolocator(dict);
  const auto serve_line = [&g](std::string_view line) {
    const Request req = parse_request(line);
    const auto loc = g.locate(req.hostname);
    return loc ? format_hit(*loc) : format_miss();
  };
  ASSERT_EQ(classify_response(serve_line("xe-0.core1.ash1.he.net")), ResponseKind::kHit);

  // A hit: locate's candidate list and the answer string.
  std::string answer;
  EXPECT_EQ(count_allocations([&] { answer = serve_line("e0.cr1.ASH1.he.net"); }), 2u);
  EXPECT_EQ(classify_response(answer), ResponseKind::kHit);
  answer.clear();
  answer.shrink_to_fit();

  // A miss the parser rejects, and one no convention covers: nothing.
  EXPECT_EQ(count_allocations([&] { answer = serve_line("foo.invalidtld"); }), 0u);
  EXPECT_EQ(answer, "MISS");
  EXPECT_EQ(count_allocations([&] { answer = serve_line("r1.example.com"); }), 0u);
  EXPECT_EQ(answer, "MISS");
}

}  // namespace
}  // namespace hoiho::serve
