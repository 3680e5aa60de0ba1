// Hostile-input fuzz for the wire decoders: seeded bit flips, truncations
// and garbage over valid frames AND raw payloads (bypassing the frame
// checksum so the TLV decoders themselves face the mutations). The codec's
// contract is that every decoder entry point either succeeds or throws
// CodecError — never crashes, never reads out of bounds, never allocates
// unbounded memory from a hostile length field. Run under ASan in tier 1.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "ldap/entry.h"
#include "reference_codec.h"
#include "wire/codec.h"

namespace fbdr::wire {
namespace {

using resync::Mode;
using resync::ReSyncControl;
using resync::ReSyncResponse;

// Any decoder outcome is fine except a crash or a non-CodecError escape.
template <typename Fn>
void must_not_crash(Fn&& decode) {
  try {
    decode();
  } catch (const CodecError&) {
    // The expected rejection path.
  }
}

void decode_any_payload(const Bytes& payload) {
  must_not_crash([&] { Codec::kind_of(payload); });
  must_not_crash([&] { Codec::decode_request(payload); });
  must_not_crash([&] { Codec::decode_response(payload); });
  must_not_crash([&] { Codec::decode_abandon(payload); });
  must_not_crash([&] { Codec::decode_error(payload); });
  must_not_crash([&] { Codec::decode_push(payload); });
}

Bytes sample_request() {
  ReSyncControl control(Mode::Poll, "rs-3#17");
  auto reconcile = std::make_shared<resync::ReconcileRequest>();
  reconcile->round = 1;
  reconcile->root_digest = 0x1234;
  reconcile->buckets = {{4, 99, 2}, {200, 1, 1}};
  control.reconcile = reconcile;
  return ReferenceCodec::encode_request(
      ldap::Query::parse("ou=research,o=xyz", ldap::Scope::Subtree,
                         "(&(dept=42)(|(sn=smi*)(!(age>=65))))"),
      control);
}

Bytes sample_response() {
  ReSyncResponse response;
  response.cookie = "rs-3#18";
  response.complete_enumeration = true;
  response.origin_time = 991;
  for (int i = 0; i < 3; ++i) {
    resync::EntryPdu pdu;
    pdu.action = i == 2 ? resync::Action::Delete : resync::Action::Add;
    pdu.dn = ldap::Dn::parse("cn=E" + std::to_string(i) + ",o=xyz");
    if (pdu.action == resync::Action::Add) {
      auto entry = std::make_shared<ldap::Entry>(pdu.dn);
      entry->set_values("dept", {"42"});
      entry->set_values("objectclass", {"person"});
      pdu.entry = std::move(entry);
    }
    response.pdus.push_back(std::move(pdu));
  }
  return ReferenceCodec::encode_response(response);
}

// A persist push: the response's cookie, origin time and PDUs.
Bytes sample_push() {
  ReSyncResponse push = Codec::decode_response(sample_response());
  push.complete_enumeration = false;
  push.persistent = true;
  return ReferenceCodec::encode_push(push);
}

// --- frame-level mutations: the checksum must catch nearly all of these,
// --- and whatever sneaks through must still decode or throw CodecError.

TEST(WireFuzz, BitFlippedFramesNeverCrash) {
  std::mt19937 rng(20050501);
  const std::vector<Bytes> seeds = {ReferenceCodec::frame(sample_request()),
                                    ReferenceCodec::frame(sample_response()),
                                    ReferenceCodec::frame(ReferenceCodec::encode_abandon("rs-1#1")),
                                    ReferenceCodec::frame(sample_push())};
  for (int i = 0; i < 4000; ++i) {
    Bytes frame = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      frame[rng() % frame.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    must_not_crash([&] { decode_any_payload(ReferenceCodec::deframe(frame)); });
  }
}

TEST(WireFuzz, TruncatedFramesNeverCrash) {
  const std::vector<Bytes> seeds = {ReferenceCodec::frame(sample_request()),
                                    ReferenceCodec::frame(sample_response()),
                                    ReferenceCodec::frame(sample_push())};
  for (const Bytes& whole : seeds) {
    for (std::size_t len = 0; len < whole.size(); ++len) {
      Bytes cut(whole.begin(), whole.begin() + static_cast<long>(len));
      // A strict prefix can never carry a valid checksum over the declared
      // length, so deframe must throw — decode never even runs.
      EXPECT_THROW(ReferenceCodec::deframe(cut), CodecError) << "at length " << len;
    }
  }
}

// --- payload-level mutations: bypass the frame checksum entirely and aim
// --- the mutations at the TLV decoders' bounds checks.

TEST(WireFuzz, BitFlippedPayloadsNeverCrash) {
  std::mt19937 rng(31337);
  const std::vector<Bytes> seeds = {sample_request(), sample_response(),
                                    ReferenceCodec::encode_abandon("rs-9#4"),
                                    ReferenceCodec::encode_error(
                                        {ErrorFrame::Kind::Busy, 0, "busy"}),
                                    sample_push()};
  for (int i = 0; i < 6000; ++i) {
    Bytes payload = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const int flips = 1 + static_cast<int>(rng() % 6);
    for (int f = 0; f < flips; ++f) {
      payload[rng() % payload.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    decode_any_payload(payload);
  }
}

TEST(WireFuzz, TruncatedPayloadsNeverCrash) {
  const std::vector<Bytes> seeds = {sample_request(), sample_response(),
                                    sample_push()};
  for (const Bytes& whole : seeds) {
    for (std::size_t len = 0; len <= whole.size(); ++len) {
      decode_any_payload(Bytes(whole.begin(), whole.begin() + static_cast<long>(len)));
    }
  }
}

TEST(WireFuzz, RandomGarbagePayloadsNeverCrash) {
  std::mt19937 rng(777);
  for (int i = 0; i < 4000; ++i) {
    Bytes payload(rng() % 64);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    // Half the time, make the first byte a valid frame kind so the fuzz
    // reaches past the kind check into the TLV loop.
    if (!payload.empty() && i % 2 == 0) {
      payload[0] = static_cast<std::uint8_t>(1 + rng() % 5);
    }
    decode_any_payload(payload);
    must_not_crash([&] { ReferenceCodec::deframe(payload); });
  }
}

/// Every decoder's outcome on `payload`: the re-encoded value, or "error".
std::string decode_outcomes(ByteSpan payload) {
  std::string out;
  const auto note = [&](auto&& decode) {
    try {
      const Bytes bytes = decode();
      out.append(bytes.begin(), bytes.end());
    } catch (const CodecError&) {
      out += "error";
    }
    out += '|';
  };
  note([&] {
    const RequestFrame request = Codec::decode_request(payload);
    return ReferenceCodec::encode_request(request.query, request.control);
  });
  note([&] { return ReferenceCodec::encode_response(Codec::decode_response(payload)); });
  note([&] { return ReferenceCodec::encode_abandon(Codec::decode_abandon(payload)); });
  note([&] { return ReferenceCodec::encode_error(Codec::decode_error(payload)); });
  note([&] { return ReferenceCodec::encode_push(Codec::decode_push(payload)); });
  return out;
}

// The span decoders read a frame where it lies, in a buffer that goes on
// past it (a reassembled stream holds the next frame there). A mutated
// payload or frame decodes in place exactly as its exact-size copy does,
// so no decoder reads past its span — an over-read into the next bytes,
// which ASan cannot see, would change the outcome.
TEST(WireFuzz, SpanDecodeInsideAStreamMatchesCopiedDecode) {
  std::mt19937 rng(4242);
  const std::vector<Bytes> seeds = {sample_request(), sample_response(),
                                    ReferenceCodec::encode_abandon("rs-9#4"),
                                    ReferenceCodec::encode_error(
                                        {ErrorFrame::Kind::Busy, 0, "busy"}),
                                    sample_push()};
  for (int i = 0; i < 3000; ++i) {
    Bytes payload = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const int flips = 1 + static_cast<int>(rng() % 6);
    for (int f = 0; f < flips; ++f) {
      payload[rng() % payload.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    payload.resize(payload.size() - rng() % 4);  // a truncation, sometimes

    Bytes stream = payload;
    for (std::size_t tail = 1 + rng() % 32; tail > 0; --tail) {
      stream.push_back(static_cast<std::uint8_t>(rng()));
    }
    EXPECT_EQ(decode_outcomes(ByteSpan(stream.data(), payload.size())),
              decode_outcomes(payload));

    // The same payload framed, then validated in place ahead of the next
    // frame of the stream.
    Bytes frames = ReferenceCodec::frame(payload);
    const std::size_t frame_size = frames.size();
    const Bytes next = ReferenceCodec::frame(seeds[rng() % seeds.size()]);
    frames.insert(frames.end(), next.begin(), next.end());
    const ByteSpan in_place =
        Codec::payload_of(ByteSpan(frames.data(), frame_size));
    EXPECT_EQ(in_place.data(), frames.data() + Codec::kFrameHeaderBytes);
    EXPECT_EQ(decode_outcomes(in_place), decode_outcomes(payload));
  }
}

// A hostile length field must be rejected before any allocation: a tiny
// payload declaring a huge string/count cannot cause an OOM.
TEST(WireFuzz, HostileLengthFieldsAreRejectedBeforeAllocation) {
  // Response payload claiming one PDU whose TLV length is 0xffffffff.
  Bytes payload = {static_cast<std::uint8_t>(FrameKind::Response),
                   0x01, 0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW(Codec::decode_response(payload), CodecError);

  // Frame header with valid magic + version declaring a payload length
  // beyond kMaxPayloadBytes: rejected by header validation, not allocated.
  Bytes frame = {static_cast<std::uint8_t>(Codec::kMagic >> 8),
                 static_cast<std::uint8_t>(Codec::kMagic & 0xff),
                 Codec::kCodecVersion, 0,
                 0xff, 0xff, 0xff, 0xff,
                 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_THROW(Codec::validate_header(frame.data()), CodecError);
  EXPECT_THROW(ReferenceCodec::deframe(frame), CodecError);

  // Abandon whose cookie string declares 2^32-1 bytes in a 6-byte payload.
  Bytes abandon = {static_cast<std::uint8_t>(FrameKind::Abandon),
                   0x01, 0x00, 0x00, 0x00, 0x02, 0xff, 0xff};
  EXPECT_THROW(Codec::decode_abandon(abandon), CodecError);
}

// Every single-byte mutation of the 16-byte frame header is caught by one
// of the typed validations (magic, version, length, checksum): no mutated
// header may ever reach the payload decoders with damaged framing intact.
TEST(WireFuzz, EveryHeaderByteMutationIsRejected) {
  const Bytes whole = ReferenceCodec::frame(sample_request());
  for (std::size_t byte = 0; byte < Codec::kFrameHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes frame = whole;
      frame[byte] ^= static_cast<std::uint8_t>(1u << bit);
      if (byte == 3) {
        // The reserved byte is ignored on receive (forward compatibility):
        // the frame still deframes to the original payload.
        EXPECT_EQ(ReferenceCodec::deframe(frame), sample_request());
      } else {
        EXPECT_THROW(ReferenceCodec::deframe(frame), CodecError)
            << "header byte " << byte << " bit " << bit;
      }
    }
  }
}

// Deeply nested NOT chains must hit the depth bound, not the stack guard.
TEST(WireFuzz, FilterNestingBeyondLimitIsRejected) {
  ldap::FilterPtr filter = ldap::Filter::present("a");
  for (int i = 0; i < Codec::kMaxFilterDepth + 8; ++i) {
    filter = ldap::Filter::make_not(filter);
  }
  ldap::Query query;
  query.base = ldap::Dn::parse("o=xyz");
  query.filter = filter;
  const Bytes payload = ReferenceCodec::encode_request(query, ReSyncControl{});
  EXPECT_THROW(Codec::decode_request(payload), CodecError);
}

}  // namespace
}  // namespace fbdr::wire
