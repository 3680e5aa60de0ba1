// Seeded roundtrip property tests for the wire codec (DESIGN.md §14):
// decode(encode(x)) == x for every PDU type the protocol can ship —
// queries with nested filters and escaped DNs, controls with reconcile
// offers of both rounds, responses across every flag combination, abandons
// and typed error frames — plus the request contract (only initial and
// SyncEnd requests carry the query; continuations name their session by
// cookie alone) and the forward-compatibility guarantee that unknown TLV
// tags are skipped, not rejected.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "ldap/error.h"
#include "reference_codec.h"
#include "wire/codec.h"

namespace fbdr::wire {
namespace {

using ldap::AttributeSelection;
using ldap::Dn;
using ldap::Filter;
using ldap::FilterPtr;
using ldap::Rdn;
using ldap::Scope;
using resync::Action;
using resync::EntryPdu;
using resync::Mode;
using resync::ReconcileRequest;
using resync::ReconcileResponse;
using resync::ReSyncControl;
using resync::ReSyncResponse;

// --- seeded generators ---------------------------------------------------

using Rng = std::mt19937;

int pick(Rng& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

// Values deliberately include DN-special characters (comma, plus, quote,
// backslash, spaces) and can be empty: the codec ships structural RDN
// pairs, so no string-escaping path is involved.
std::string rand_string(Rng& rng, int max_len, bool special) {
  static const std::string plain = "abcdefgzXYZ0123456789._-";
  static const std::string spicy = "abc ,+\"\\<>;#=()*\t";
  const std::string& alphabet = special ? spicy : plain;
  std::string out;
  const int len = pick(rng, 0, max_len);
  for (int i = 0; i < len; ++i) {
    out.push_back(alphabet[static_cast<std::size_t>(
        pick(rng, 0, static_cast<int>(alphabet.size()) - 1))]);
  }
  return out;
}

Dn rand_dn(Rng& rng, int max_depth = 4) {
  std::vector<Rdn> rdns;
  const int depth = pick(rng, 0, max_depth);  // 0 => root DN (omitted tag)
  for (int i = 0; i < depth; ++i) {
    std::string value = rand_string(rng, 10, pick(rng, 0, 3) == 0);
    // Rdn trims and rejects whitespace-only values.
    if (value.find_first_not_of(" \t") == std::string::npos) value = "x";
    rdns.emplace_back(pick(rng, 0, 2) == 0 ? "ou" : "cn", value);
  }
  return Dn::from_rdns(std::move(rdns));
}

FilterPtr rand_filter(Rng& rng, int depth = 0) {
  const int kind = depth >= 3 ? pick(rng, 3, 7) : pick(rng, 0, 7);
  switch (kind) {
    case 0:
    case 1: {
      std::vector<FilterPtr> children;
      const int n = pick(rng, 1, 3);
      for (int i = 0; i < n; ++i) children.push_back(rand_filter(rng, depth + 1));
      return kind == 0 ? Filter::make_and(std::move(children))
                       : Filter::make_or(std::move(children));
    }
    case 2:
      return Filter::make_not(rand_filter(rng, depth + 1));
    case 3:
      return Filter::equality("attr" + std::to_string(pick(rng, 0, 5)),
                              rand_string(rng, 8, true));
    case 4:
      return Filter::greater_eq("serial", std::to_string(pick(rng, 0, 999)));
    case 5:
      return Filter::less_eq("serial", std::to_string(pick(rng, 0, 999)));
    case 6:
      return Filter::present("dept");
    default: {
      ldap::SubstringPattern pattern;
      pattern.initial = rand_string(rng, 5, false);
      const int n = pick(rng, 0, 2);
      for (int i = 0; i < n; ++i) pattern.any.push_back(rand_string(rng, 4, false));
      pattern.final = rand_string(rng, 5, false);
      if (pattern.initial.empty() && pattern.any.empty() && pattern.final.empty()) {
        pattern.initial = "s";
      }
      return Filter::substring("sn", std::move(pattern));
    }
  }
}

ldap::Query rand_query(Rng& rng) {
  ldap::Query query;
  query.base = rand_dn(rng);
  query.scope = static_cast<Scope>(pick(rng, 0, 2));
  query.filter = pick(rng, 0, 9) == 0 ? Filter::match_all() : rand_filter(rng);
  if (pick(rng, 0, 2) == 0) {
    std::vector<std::string> names;
    const int n = pick(rng, 0, 3);
    for (int i = 0; i < n; ++i) names.push_back("attr" + std::to_string(i));
    query.attrs = AttributeSelection::of(std::move(names));
  }
  return query;
}

ldap::EntryPtr rand_entry(Rng& rng, const Dn& dn) {
  auto entry = std::make_shared<ldap::Entry>(dn);
  const int attrs = pick(rng, 0, 4);
  for (int a = 0; a < attrs; ++a) {
    std::vector<std::string> values;
    const int n = pick(rng, 0, 3);  // 0 => attribute with no values
    for (int v = 0; v < n; ++v) values.push_back(rand_string(rng, 12, true));
    entry->set_values("attr" + std::to_string(a), std::move(values));
  }
  return entry;
}

std::shared_ptr<const ReconcileRequest> rand_reconcile_request(Rng& rng) {
  auto req = std::make_shared<ReconcileRequest>();
  req->round = pick(rng, 0, 1) == 0 ? 1 : 2;
  req->root_digest = static_cast<std::uint64_t>(rng()) << 32 | rng();
  req->entry_count = static_cast<std::uint64_t>(pick(rng, 0, 100000));
  if (req->round == 1) {
    const int n = pick(rng, 0, 5);
    for (int i = 0; i < n; ++i) {
      req->buckets.push_back({static_cast<std::uint32_t>(pick(rng, 0, 255)),
                              static_cast<std::uint64_t>(rng()),
                              static_cast<std::uint64_t>(pick(rng, 0, 500))});
    }
  } else {
    const int n = pick(rng, 0, 5);
    for (int i = 0; i < n; ++i) {
      req->fingerprints.push_back(
          {rand_dn(rng, 3), static_cast<std::uint64_t>(rng())});
    }
  }
  return req;
}

ReSyncControl rand_control(Rng& rng) {
  ReSyncControl control;
  control.mode = static_cast<Mode>(pick(rng, 0, 2));
  if (pick(rng, 0, 3) != 0) {
    control.cookie = "rs-" + std::to_string(pick(rng, 0, 4096)) + "#" +
                     std::to_string(pick(rng, 0, 4096));
  }
  if (pick(rng, 0, 2) == 0) control.reconcile = rand_reconcile_request(rng);
  return control;
}

EntryPdu rand_pdu(Rng& rng) {
  EntryPdu pdu;
  pdu.action = static_cast<Action>(pick(rng, 0, 3));
  pdu.dn = rand_dn(rng, 3);
  if (pdu.action == Action::Add || pdu.action == Action::Modify) {
    pdu.entry = rand_entry(rng, pdu.dn);
  }
  return pdu;
}

ReSyncResponse rand_response(Rng& rng) {
  ReSyncResponse response;
  const int pdus = pick(rng, 0, 6);
  for (int i = 0; i < pdus; ++i) response.pdus.push_back(rand_pdu(rng));
  if (pick(rng, 0, 2) != 0) {
    response.cookie = "rs-7#" + std::to_string(pick(rng, 0, 1 << 20));
  }
  response.persistent = pick(rng, 0, 1) != 0;
  response.full_reload = pick(rng, 0, 1) != 0;
  response.complete_enumeration = pick(rng, 0, 1) != 0;
  response.busy = pick(rng, 0, 1) != 0;
  response.more = pick(rng, 0, 1) != 0;
  response.continued = pick(rng, 0, 1) != 0;
  if (pick(rng, 0, 4) == 0) response.referral_url = "ldap://parent:389";
  if (pick(rng, 0, 1) != 0) {
    response.origin_time = static_cast<std::uint64_t>(rng());
  }
  if (pick(rng, 0, 2) == 0) {
    auto rcp = std::make_shared<ReconcileResponse>();
    rcp->in_sync = pick(rng, 0, 1) != 0;
    rcp->fallback = pick(rng, 0, 1) != 0;
    const int n = pick(rng, 0, 4);
    for (int i = 0; i < n; ++i) {
      rcp->need_buckets.push_back(static_cast<std::uint32_t>(pick(rng, 0, 255)));
    }
    response.reconcile = rcp;
  }
  return response;
}

// --- field-wise equality -------------------------------------------------

void expect_query_eq(const ldap::Query& a, const ldap::Query& b) {
  EXPECT_EQ(a.base, b.base);
  EXPECT_EQ(a.scope, b.scope);
  ASSERT_EQ(a.filter != nullptr, b.filter != nullptr);
  if (a.filter) {
    EXPECT_TRUE(ldap::filters_equal(*a.filter, *b.filter));
  }
  EXPECT_EQ(a.attrs, b.attrs);
}

void expect_reconcile_request_eq(const ReconcileRequest& a,
                                 const ReconcileRequest& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.root_digest, b.root_digest);
  EXPECT_EQ(a.entry_count, b.entry_count);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].bucket, b.buckets[i].bucket);
    EXPECT_EQ(a.buckets[i].digest, b.buckets[i].digest);
    EXPECT_EQ(a.buckets[i].count, b.buckets[i].count);
  }
  ASSERT_EQ(a.fingerprints.size(), b.fingerprints.size());
  for (std::size_t i = 0; i < a.fingerprints.size(); ++i) {
    EXPECT_EQ(a.fingerprints[i].dn, b.fingerprints[i].dn);
    EXPECT_EQ(a.fingerprints[i].hash, b.fingerprints[i].hash);
  }
}

void expect_control_eq(const ReSyncControl& a, const ReSyncControl& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.cookie, b.cookie);
  ASSERT_EQ(a.reconcile != nullptr, b.reconcile != nullptr);
  if (a.reconcile) expect_reconcile_request_eq(*a.reconcile, *b.reconcile);
}

void expect_response_eq(const ReSyncResponse& a, const ReSyncResponse& b) {
  ASSERT_EQ(a.pdus.size(), b.pdus.size());
  for (std::size_t i = 0; i < a.pdus.size(); ++i) {
    EXPECT_EQ(a.pdus[i].action, b.pdus[i].action);
    EXPECT_EQ(a.pdus[i].dn, b.pdus[i].dn);
    ASSERT_EQ(a.pdus[i].entry != nullptr, b.pdus[i].entry != nullptr);
    if (a.pdus[i].entry) {
      EXPECT_EQ(*a.pdus[i].entry, *b.pdus[i].entry);
    }
  }
  EXPECT_EQ(a.cookie, b.cookie);
  EXPECT_EQ(a.persistent, b.persistent);
  EXPECT_EQ(a.full_reload, b.full_reload);
  EXPECT_EQ(a.complete_enumeration, b.complete_enumeration);
  EXPECT_EQ(a.busy, b.busy);
  EXPECT_EQ(a.more, b.more);
  EXPECT_EQ(a.continued, b.continued);
  EXPECT_EQ(a.referral_url, b.referral_url);
  EXPECT_EQ(a.origin_time, b.origin_time);
  ASSERT_EQ(a.reconcile != nullptr, b.reconcile != nullptr);
  if (a.reconcile) {
    EXPECT_EQ(a.reconcile->in_sync, b.reconcile->in_sync);
    EXPECT_EQ(a.reconcile->fallback, b.reconcile->fallback);
    EXPECT_EQ(a.reconcile->need_buckets, b.reconcile->need_buckets);
  }
}

// --- roundtrip properties ------------------------------------------------

// The request contract (DESIGN.md §14): a request that can create or end a
// session — initial, SyncEnd — round-trips its query; a Poll or Persist
// continuation names its session by cookie alone and decodes with no query.
// The control round-trips either way.
TEST(WireRoundtrip, RequestsSurviveEncodeDecode) {
  Rng rng(20050501);
  int with_query = 0;
  int cookie_only = 0;
  for (int i = 0; i < 300; ++i) {
    const ldap::Query query = rand_query(rng);
    const ReSyncControl control = rand_control(rng);
    const Bytes payload = ReferenceCodec::encode_request(query, control);
    ASSERT_EQ(Codec::kind_of(payload), FrameKind::Request);
    const RequestFrame decoded = Codec::decode_request(payload);
    if (control.initial() || control.mode == Mode::SyncEnd) {
      expect_query_eq(query, decoded.query);
      ++with_query;
    } else {
      EXPECT_EQ(decoded.query.filter, nullptr)
          << "a " << resync::to_string(control.mode)
          << " continuation shipped its query";
      ++cookie_only;
    }
    expect_control_eq(control, decoded.control);
    // The full frame path (length + checksum) is lossless too.
    EXPECT_EQ(ReferenceCodec::deframe(ReferenceCodec::frame(payload)), payload);
  }
  EXPECT_GT(with_query, 0);
  EXPECT_GT(cookie_only, 0);
}

// Every continuation mode, reconcile round 2 included, encodes to exactly
// the cookie-only request, whatever query the caller passes.
TEST(WireRoundtrip, ContinuationsDecodeWithoutQuery) {
  Rng rng(5150);
  auto round2 = std::make_shared<ReconcileRequest>();
  round2->round = 2;
  round2->fingerprints = {{Dn::parse("cn=a,o=xyz"), 7}};
  for (const Mode mode : {Mode::Poll, Mode::Persist}) {
    for (const bool reconcile : {false, true}) {
      ReSyncControl control(mode, "rc-4#2");
      if (reconcile) control.reconcile = round2;
      const Bytes payload = ReferenceCodec::encode_request(rand_query(rng), control);
      EXPECT_EQ(payload, ReferenceCodec::encode_request(ldap::Query{}, control))
          << "the query leaked into a continuation";
      const RequestFrame decoded = Codec::decode_request(payload);
      EXPECT_EQ(decoded.query.filter, nullptr);
      expect_control_eq(control, decoded.control);
    }
  }
  // Initial and SyncEnd requests keep it.
  const ldap::Query query = rand_query(rng);
  for (const ReSyncControl& control :
       {ReSyncControl(Mode::Poll, ""), ReSyncControl(Mode::Persist, ""),
        ReSyncControl(Mode::SyncEnd, "rs-1#3")}) {
    expect_query_eq(query,
                    Codec::decode_request(ReferenceCodec::encode_request(query, control))
                        .query);
  }
}

// An older encoder wrote the query on every request. Its continuations
// still decode, query and control both: the query TLV of an initial request
// spliced ahead of a continuation's control TLV is exactly that frame.
TEST(WireRoundtrip, ContinuationCarryingAQueryStillDecodes) {
  Rng rng(8086);
  for (int i = 0; i < 50; ++i) {
    const ldap::Query query = rand_query(rng);
    ReSyncControl control = rand_control(rng);
    if (control.initial()) control.cookie = "rs-9#" + std::to_string(i);
    if (control.mode == Mode::SyncEnd) control.mode = Mode::Persist;

    const Bytes initial = ReferenceCodec::encode_request(query, {control.mode, ""});
    const auto tlv_size = [](const Bytes& payload, std::size_t at) {
      return std::size_t{5} + (std::size_t{payload[at + 1]} << 24 |
                               std::size_t{payload[at + 2]} << 16 |
                               std::size_t{payload[at + 3]} << 8 |
                               std::size_t{payload[at + 4]});
    };
    ASSERT_EQ(initial[1], 0x01) << "query TLV leads an initial request";
    const Bytes continuation = ReferenceCodec::encode_request(query, control);
    Bytes old_style;
    old_style.reserve(initial.size() + continuation.size());
    old_style.push_back(continuation.front());
    old_style.insert(old_style.end(), initial.begin() + 1,
                     initial.begin() + 1 +
                         static_cast<std::ptrdiff_t>(tlv_size(initial, 1)));
    old_style.insert(old_style.end(), continuation.begin() + 1,
                     continuation.end());

    const RequestFrame decoded = Codec::decode_request(old_style);
    expect_query_eq(query, decoded.query);
    expect_control_eq(control, decoded.control);
    EXPECT_GT(old_style.size(), continuation.size());
  }
}

TEST(WireRoundtrip, ResponsesSurviveEncodeDecode) {
  Rng rng(31337);
  for (int i = 0; i < 300; ++i) {
    const ReSyncResponse response = rand_response(rng);
    const Bytes payload = ReferenceCodec::encode_response(response);
    ASSERT_EQ(Codec::kind_of(payload), FrameKind::Response);
    expect_response_eq(response, Codec::decode_response(payload));
    EXPECT_EQ(ReferenceCodec::deframe(ReferenceCodec::frame(payload)), payload);
  }
}

// A push carries a response's cookie, origin time and PDUs, and nothing
// else; a Push payload is not a response, nor a response a push.
TEST(WireRoundtrip, PushesCarryCookieOriginTimeAndPdus) {
  Rng rng(4533);
  for (int i = 0; i < 300; ++i) {
    const ReSyncResponse response = rand_response(rng);
    Bytes frame;
    Codec::frame_push(frame, response);
    const ByteSpan payload = Codec::payload_of(frame);
    ASSERT_EQ(Codec::kind_of(payload), FrameKind::Push);
    EXPECT_EQ(ReferenceCodec::encode_push(response),
              Bytes(payload.begin(), payload.end()));
    ReSyncResponse expected;
    expected.pdus = response.pdus;
    expected.cookie = response.cookie;
    expected.origin_time = response.origin_time;
    expect_response_eq(expected, Codec::decode_push(payload));
    EXPECT_THROW(Codec::decode_response(payload), CodecError);
    EXPECT_THROW(Codec::decode_push(ReferenceCodec::encode_response(response)),
                 CodecError);
  }
}

// Every combination of the six response flag bits encodes and decodes
// exactly — including all-clear, where the flags tag is omitted entirely.
TEST(WireRoundtrip, AllResponseFlagCombinations) {
  for (int bits = 0; bits < 64; ++bits) {
    ReSyncResponse response;
    response.persistent = (bits & 1) != 0;
    response.full_reload = (bits & 2) != 0;
    response.complete_enumeration = (bits & 4) != 0;
    response.busy = (bits & 8) != 0;
    response.more = (bits & 16) != 0;
    response.continued = (bits & 32) != 0;
    expect_response_eq(response,
                       Codec::decode_response(ReferenceCodec::encode_response(response)));
  }
}

// Reconcile offers of both rounds ride the control field losslessly:
// round 1 bucket digests, round 2 per-entry fingerprints.
TEST(WireRoundtrip, ReconcileRequestsBothRounds) {
  Rng rng(777);
  for (int round = 1; round <= 2; ++round) {
    auto req = std::make_shared<ReconcileRequest>();
    req->round = round;
    req->root_digest = 0xdeadbeefcafef00dULL;
    req->entry_count = 4242;
    if (round == 1) {
      req->buckets = {{0, 0, 0}, {17, 0x1111, 3}, {255, ~0ULL, 9}};
    } else {
      req->fingerprints = {{Dn::parse("cn=a,o=xyz"), 1},
                           {Dn::parse("cn=b+ou=c,o=xyz"), ~0ULL}};
    }
    ReSyncControl control(Mode::Poll, "rs-1#9");
    control.reconcile = req;
    const RequestFrame decoded =
        Codec::decode_request(ReferenceCodec::encode_request(rand_query(rng), control));
    ASSERT_NE(decoded.control.reconcile, nullptr);
    expect_reconcile_request_eq(*req, *decoded.control.reconcile);
  }
}

TEST(WireRoundtrip, AbandonSurvivesEncodeDecode) {
  for (const std::string cookie : {"", "rs-3#12", "e2!rs-9#1"}) {
    const Bytes payload = ReferenceCodec::encode_abandon(cookie);
    ASSERT_EQ(Codec::kind_of(payload), FrameKind::Abandon);
    EXPECT_EQ(Codec::decode_abandon(payload), cookie);
  }
}

TEST(WireRoundtrip, ErrorFramesSurviveAndRethrowTyped) {
  ErrorFrame error;
  error.kind = ErrorFrame::Kind::StaleCookie;
  error.message = "session rs-4 expired";
  ErrorFrame decoded = Codec::decode_error(ReferenceCodec::encode_error(error));
  EXPECT_EQ(decoded.kind, error.kind);
  EXPECT_EQ(decoded.message, error.message);
  EXPECT_THROW(Codec::throw_error(decoded), ldap::StaleCookieError);

  error.kind = ErrorFrame::Kind::Busy;
  EXPECT_THROW(Codec::throw_error(Codec::decode_error(ReferenceCodec::encode_error(error))),
               ldap::BusyError);

  error.kind = ErrorFrame::Kind::Protocol;
  EXPECT_THROW(Codec::throw_error(Codec::decode_error(ReferenceCodec::encode_error(error))),
               ldap::ProtocolError);

  error.kind = ErrorFrame::Kind::Operation;
  error.result_code = static_cast<std::int32_t>(ldap::ResultCode::NoSuchObject);
  decoded = Codec::decode_error(ReferenceCodec::encode_error(error));
  EXPECT_EQ(decoded.result_code, error.result_code);
  try {
    Codec::throw_error(decoded);
    FAIL() << "throw_error returned";
  } catch (const ldap::OperationError& e) {
    EXPECT_EQ(e.code(), ldap::ResultCode::NoSuchObject);
    // OperationError prefixes the result-code name into what().
    EXPECT_NE(std::string(e.what()).find(error.message), std::string::npos);
  }
}

// The frame header leads with the protocol magic and the codec version —
// the handshake-free compatibility check a frame needs once it crosses a
// real process boundary (DESIGN.md §15). Both are validated before any
// payload byte is interpreted, with a typed CodecError on mismatch.
TEST(WireRoundtrip, FrameHeaderCarriesMagicAndVersion) {
  // The header the production encoders write (they share one writer).
  Bytes framed;
  Codec::frame_abandon(framed, "rs-1#1");
  const Bytes payload = ReferenceCodec::encode_abandon("rs-1#1");
  ASSERT_GE(framed.size(), Codec::kFrameHeaderBytes);
  EXPECT_EQ(framed[0], static_cast<std::uint8_t>(Codec::kMagic >> 8));
  EXPECT_EQ(framed[1], static_cast<std::uint8_t>(Codec::kMagic & 0xff));
  EXPECT_EQ(framed[2], Codec::kCodecVersion);
  EXPECT_EQ(framed[3], 0);  // reserved byte ships as zero
  EXPECT_EQ(Codec::validate_header(framed.data()), payload.size());
  EXPECT_EQ(ReferenceCodec::deframe(framed), payload);
  const ByteSpan shipped = Codec::payload_of(framed);
  EXPECT_EQ(Bytes(shipped.begin(), shipped.end()), payload);
}

TEST(WireRoundtrip, WrongMagicIsRejected) {
  Bytes framed = ReferenceCodec::frame(ReferenceCodec::encode_abandon("rs-1#1"));
  for (const std::size_t byte : {std::size_t{0}, std::size_t{1}}) {
    Bytes bad = framed;
    bad[byte] ^= 0xff;
    EXPECT_THROW(Codec::validate_header(bad.data()), CodecError);
    EXPECT_THROW(ReferenceCodec::deframe(bad), CodecError);
  }
  // An HTTP-ish stray connection: printable garbage in magic position.
  Bytes http = framed;
  http[0] = 'G';
  http[1] = 'E';
  EXPECT_THROW(ReferenceCodec::deframe(http), CodecError);
}

TEST(WireRoundtrip, UnsupportedCodecVersionIsRejected) {
  Bytes framed = ReferenceCodec::frame(ReferenceCodec::encode_abandon("rs-1#1"));
  framed[2] = Codec::kCodecVersion + 1;
  EXPECT_THROW(Codec::validate_header(framed.data()), CodecError);
  EXPECT_THROW(ReferenceCodec::deframe(framed), CodecError);
  framed[2] = 0;
  EXPECT_THROW(ReferenceCodec::deframe(framed), CodecError);
}

// A decoder must skip tags it does not know — the forward-compatibility
// contract that lets a newer peer add fields without breaking old decoders.
TEST(WireRoundtrip, UnknownTagsAreSkippedNotRejected) {
  Rng rng(424242);
  const ldap::Query query = rand_query(rng);
  const ReSyncControl control = rand_control(rng);
  Bytes payload = ReferenceCodec::encode_request(query, control);

  // Append an unknown top-level TLV: tag 0x7e, length 5, arbitrary bytes.
  payload.push_back(0x7e);
  payload.push_back(0);
  payload.push_back(0);
  payload.push_back(0);
  payload.push_back(5);
  const Bytes garbage = {0xde, 0xad, 0xbe, 0xef, 0x01};
  payload.insert(payload.end(), garbage.begin(), garbage.end());

  const RequestFrame decoded = Codec::decode_request(payload);
  expect_query_eq(query, decoded.query);
  expect_control_eq(control, decoded.control);
  // And the frame layer checksums the extended payload like any other.
  EXPECT_EQ(ReferenceCodec::deframe(ReferenceCodec::frame(payload)), payload);
}

}  // namespace
}  // namespace fbdr::wire
