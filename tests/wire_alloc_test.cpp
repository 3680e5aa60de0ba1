// Heap allocations on the framed hot path, counted by a replacement global
// operator new (which is why this suite is its own executable). An idle
// poll — the §5.2 steady state — is mostly frame overhead: its request and
// reply are encoded into buffers that keep their capacity and decoded in
// place, so what it allocates is the reply buffer and the endpoint's own
// work. A decoded Add PDU costs what its entry and DNs hold and no more.
// Value comparison, which every entry build and modify runs once per held
// value, allocates nothing once its buffers have grown.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "ldap/entry.h"
#include "net/framed_channel.h"
#include "reference_codec.h"
#include "resync/master.h"
#include "server/directory_server.h"
#include "wire/codec.h"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

// The replacements pair malloc with free; GCC sees free() meet memory from
// operator new once it inlines them into a caller, and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace fbdr::wire {
namespace {

using ldap::Dn;
using ldap::Query;
using ldap::Scope;
using resync::Mode;
using resync::ReSyncResponse;

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

std::unique_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(ldap::make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 12; ++i) {
    auto entry = std::make_shared<ldap::Entry>(
        Dn::parse("cn=E" + std::to_string(i) + ",o=xyz"));
    entry->set_values("objectclass", {"person"});
    entry->set_values("dept", {std::to_string(i % 3)});
    master->load(std::move(entry));
  }
  return master;
}

/// The shape of bench_wire's codec microbench entries.
resync::EntryPdu add_pdu(int i) {
  resync::EntryPdu pdu;
  pdu.action = resync::Action::Add;
  pdu.dn = Dn::parse("cn=e" + std::to_string(i) + ",ou=d0,o=xyz");
  auto entry = std::make_shared<ldap::Entry>(pdu.dn);
  entry->set_values("objectclass", {"person", "organizationalPerson"});
  entry->set_values("serialnumber", {"00" + std::to_string(1000 + i)});
  entry->set_values("mail", {"e" + std::to_string(i) + "@xyz.com"});
  entry->set_values("dept", {"d" + std::to_string(i % 16)});
  pdu.entry = std::move(entry);
  return pdu;
}

/// Allocations made by decoding `payload`, the decoded value's included.
long decode_allocations(const Bytes& payload) {
  const long before = allocations();
  [[maybe_unused]] const ReSyncResponse decoded =
      Codec::decode_response(payload);
  return allocations() - before;
}

// 24 allocations per idle poll before frames were built in place: most of
// them were Writer and frame buffers regrowing byte by byte and the
// payload copies of deframe.
TEST(WireAllocations, IdleFramedPollExchangeMakesAtMostEight) {
  auto master = make_master();
  resync::ReSyncMaster resync(*master);
  net::FramedChannel channel(resync);
  const Query query = Query::parse("o=xyz", Scope::Subtree, "(dept=1)");
  std::string cookie = channel.exchange(query, {Mode::Poll, ""}).cookie;
  // Warm-up: the channel's request buffer reaches its steady capacity.
  for (int i = 0; i < 4; ++i) {
    cookie = channel.exchange(query, {Mode::Poll, cookie}).cookie;
  }

  constexpr long kPolls = 32;
  const long before = allocations();
  for (long i = 0; i < kPolls; ++i) {
    ReSyncResponse response = channel.exchange(query, {Mode::Poll, cookie});
    ASSERT_TRUE(response.pdus.empty());
    cookie = std::move(response.cookie);
  }
  const double per_poll =
      static_cast<double>(allocations() - before) / static_cast<double>(kPolls);
  EXPECT_LE(per_poll, 8.0);
  EXPECT_EQ(channel.traffic().round_trips, 5u + static_cast<std::uint64_t>(kPolls));
}

// One Add PDU is its DN (a shared representation, its RDN vector and two
// strings), the shared Entry, the entry's attribute vector, a value vector
// per attribute, the one value too long for the small-string buffer and
// the response's PDU vector. The entry shares the PDU's DN, so the DN is
// parsed and allocated once.
TEST(WireAllocations, DecodedAddPduStaysWithinBound) {
  ReSyncResponse none;
  none.cookie = "rs-1#42";
  ReSyncResponse one = none;
  one.pdus.push_back(add_pdu(7));
  const long per_pdu = decode_allocations(ReferenceCodec::encode_response(one)) -
                       decode_allocations(ReferenceCodec::encode_response(none));
  EXPECT_LE(per_pdu, 12);
}

TEST(WireAllocations, DecodedEntrySharesThePduDn) {
  ReSyncResponse response;
  response.cookie = "rs-1#42";
  response.pdus.push_back(add_pdu(7));
  const ReSyncResponse decoded =
      Codec::decode_response(ReferenceCodec::encode_response(response));
  ASSERT_EQ(decoded.pdus.size(), 1u);
  const resync::EntryPdu& pdu = decoded.pdus.front();
  ASSERT_NE(pdu.entry, nullptr);
  EXPECT_EQ(pdu.dn, response.pdus.front().dn);
  EXPECT_EQ(&pdu.entry->dn().to_string(), &pdu.dn.to_string());
  EXPECT_EQ(*pdu.entry, *response.pdus.front().entry);
}

TEST(WireAllocations, ValueComparisonAllocatesNothingOnceWarm) {
  const ldap::Schema& schema = ldap::Schema::default_instance();
  // Longer than any short-string buffer, so a copy would allocate.
  const std::string a = "  Mixed Case Value With Trailing Spaces Here   ";
  const std::string b = "mixed case value with trailing spaces there";
  const std::string n1 = "   -000000000000000000000000000000000123456789 ";
  const std::string n2 = "+00000000000000000000000000000000000123456789";
  EXPECT_NE(schema.compare("cn", a, b), 0);  // warms the buffers
  EXPECT_NE(schema.compare("age", n1, n2), 0);
  long before = allocations();
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(schema.compare("cn", a, b), 0);
    EXPECT_NE(schema.compare("age", n1, n2), 0);
    EXPECT_EQ(schema.compare("age", n2, n2), 0);
  }
  EXPECT_EQ(allocations() - before, 0);

  // A duplicate check normalizes the probe once and reuses one buffer for
  // the held values, so what it allocates does not grow with their count.
  const auto lookup_allocations = [&](int held) {
    ldap::Entry entry(Dn::parse("cn=probe,o=xyz"));
    for (int i = 0; i < held; ++i) {
      entry.add_value("description", a + std::to_string(i), schema);
    }
    const std::string probe = a + std::to_string(held - 1);
    const long start = allocations();
    EXPECT_TRUE(entry.has_value("description", probe, schema));
    return allocations() - start;
  };
  EXPECT_EQ(lookup_allocations(64), lookup_allocations(16));
  EXPECT_LE(lookup_allocations(64), 4);
}

}  // namespace
}  // namespace fbdr::wire
