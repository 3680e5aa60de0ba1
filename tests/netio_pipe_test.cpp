// Stream reassembly and frame accounting, no real sockets involved — the
// pieces of the socket transport that must be exact regardless of how the
// kernel chunks a byte stream. Runs under ASan in tier 1: an over-read in
// the reassembler or a misparse at any chunk boundary is a hard failure
// here before it can become a heisenbug over a real connection.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ldap/entry.h"
#include "net/framed_channel.h"
#include "netio/frame_reassembler.h"
#include "resync/master.h"
#include "resync/replica_client.h"
#include "server/change.h"
#include "server/directory_server.h"

namespace fbdr::netio {
namespace {

using ldap::Dn;
using ldap::Query;
using ldap::Scope;
using resync::Mode;
using resync::ReSyncMaster;
using resync::ReSyncReplica;

ldap::EntryPtr make_entry(
    const std::string& dn,
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  auto entry = std::make_shared<ldap::Entry>(Dn::parse(dn));
  for (const auto& [attr, value] : attrs) entry->set_values(attr, {value});
  return entry;
}

std::unique_ptr<server::DirectoryServer> make_master() {
  auto master = std::make_unique<server::DirectoryServer>("ldap://master");
  server::NamingContext context;
  context.suffix = Dn::parse("o=xyz");
  master->add_context(std::move(context));
  master->load(make_entry("o=xyz", {{"objectclass", "organization"}}));
  for (int i = 0; i < 12; ++i) {
    master->load(make_entry(
        "cn=E" + std::to_string(i) + ",o=xyz",
        {{"objectclass", "person"}, {"dept", std::to_string(i % 3 * 35 + 7)}}));
  }
  return master;
}

wire::Bytes sample_frame(int tag) {
  return wire::Codec::frame(
      wire::Codec::encode_abandon("rs-" + std::to_string(tag) + "#1"));
}

// --- FrameReassembler ---------------------------------------------------

TEST(FrameReassembler, ExtractsEveryFrameAtEveryTwoChunkSplit) {
  wire::Bytes stream;
  std::vector<wire::Bytes> expected;
  for (int i = 0; i < 4; ++i) {
    expected.push_back(sample_frame(i));
    stream.insert(stream.end(), expected.back().begin(), expected.back().end());
  }

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameReassembler reassembler;
    reassembler.feed(stream.data(), split);
    reassembler.feed(stream.data() + split, stream.size() - split);
    for (const wire::Bytes& frame : expected) {
      ASSERT_TRUE(reassembler.has_frame()) << "split at " << split;
      EXPECT_EQ(reassembler.next_frame(), frame) << "split at " << split;
    }
    EXPECT_FALSE(reassembler.has_frame());
    EXPECT_EQ(reassembler.pending_bytes(), 0u);
  }
}

TEST(FrameReassembler, ByteAtATimeFeedReassemblesExactly) {
  const wire::Bytes a = sample_frame(1);
  const wire::Bytes b = sample_frame(2);
  wire::Bytes stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameReassembler reassembler;
  std::vector<wire::Bytes> got;
  for (const std::uint8_t byte : stream) {
    reassembler.feed(&byte, 1);
    while (reassembler.has_frame()) got.push_back(reassembler.next_frame());
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
}

TEST(FrameReassembler, BadMagicThrowsOnceHeaderIsComplete) {
  wire::Bytes garbage(wire::Codec::kFrameHeaderBytes, 0x47);  // "GET ..."-ish
  FrameReassembler reassembler;
  // A strict header prefix is not yet an error — the stream may still be
  // mid-frame.
  reassembler.feed(garbage.data(), wire::Codec::kFrameHeaderBytes - 1);
  EXPECT_FALSE(reassembler.has_frame());
  EXPECT_THROW(reassembler.feed(garbage.data() + (wire::Codec::kFrameHeaderBytes - 1), 1),
               wire::CodecError);
}

TEST(FrameReassembler, FramesBeforeABadHeaderSurvive) {
  const wire::Bytes good = sample_frame(7);
  wire::Bytes stream = good;
  wire::Bytes bad(wire::Codec::kFrameHeaderBytes, 0xff);
  stream.insert(stream.end(), bad.begin(), bad.end());

  FrameReassembler reassembler;
  EXPECT_THROW(reassembler.feed(stream.data(), stream.size()),
               wire::CodecError);
  ASSERT_TRUE(reassembler.has_frame());
  EXPECT_EQ(reassembler.next_frame(), good);
}

TEST(FrameReassembler, HostileLengthRejectedBeforeBuffering) {
  // Valid magic + version, length 0xffffffff: validate_header must refuse
  // it the moment the header completes — no gigabyte buffer is reserved.
  wire::Bytes header = {static_cast<std::uint8_t>(wire::Codec::kMagic >> 8),
                        static_cast<std::uint8_t>(wire::Codec::kMagic & 0xff),
                        wire::Codec::kCodecVersion, 0,
                        0xff, 0xff, 0xff, 0xff,
                        0, 0, 0, 0, 0, 0, 0, 0};
  FrameReassembler reassembler;
  EXPECT_THROW(reassembler.feed(header.data(), header.size()),
               wire::CodecError);
}

/// Decodes one frame and re-encodes what it held: equal strings mean equal
/// decodes.
wire::Bytes decoded_as(wire::ByteSpan payload) {
  switch (wire::Codec::kind_of(payload)) {
    case wire::FrameKind::Request: {
      const wire::RequestFrame request = wire::Codec::decode_request(payload);
      return wire::Codec::encode_request(request.query, request.control);
    }
    case wire::FrameKind::Response:
      return wire::Codec::encode_response(
          wire::Codec::decode_response(payload));
    case wire::FrameKind::Abandon:
      return wire::Codec::encode_abandon(wire::Codec::decode_abandon(payload));
    case wire::FrameKind::Error:
      return wire::Codec::encode_error(wire::Codec::decode_error(payload));
  }
  return {};
}

// Frames decoded in place — spans into the reassembler's buffer, between
// two feeds — decode exactly as copies of them do, wherever the stream of
// pipelined frames is split. Under ASan a span read after the feed that
// moved its bytes is a use-after-free.
TEST(FrameReassembler, InPlaceDecodeMatchesCopiedDecodeAtEverySplit) {
  resync::ReSyncResponse response;
  response.cookie = "rs-2#9";
  for (int i = 0; i < 3; ++i) {
    resync::EntryPdu pdu;
    pdu.dn = Dn::parse("cn=E" + std::to_string(i) + ",o=xyz");
    pdu.entry = make_entry(pdu.dn.to_string(),
                           {{"objectclass", "person"}, {"dept", "7"}});
    response.pdus.push_back(std::move(pdu));
  }
  const std::vector<wire::Bytes> frames = {
      wire::Codec::frame(wire::Codec::encode_request(
          Query::parse("o=xyz", Scope::Subtree, "(dept=7)"), {Mode::Poll, ""})),
      wire::Codec::frame(wire::Codec::encode_response(response)),
      sample_frame(3),
      wire::Codec::frame(wire::Codec::encode_error(
          {wire::ErrorFrame::Kind::Busy, 0, "busy"})),
  };
  wire::Bytes stream;
  std::vector<wire::Bytes> expected;
  for (const wire::Bytes& frame : frames) {
    stream.insert(stream.end(), frame.begin(), frame.end());
    expected.push_back(decoded_as(wire::Codec::deframe(frame)));
  }

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameReassembler reassembler;
    std::vector<wire::Bytes> got;
    const auto drain = [&] {
      while (reassembler.has_frame()) {
        got.push_back(decoded_as(wire::Codec::payload_of(reassembler.next())));
      }
    };
    reassembler.feed(stream.data(), split);
    drain();
    reassembler.feed(stream.data() + split, stream.size() - split);
    drain();
    ASSERT_EQ(got, expected) << "split at " << split;
    EXPECT_EQ(reassembler.pending_bytes(), 0u);
  }
}

// --- ChunkedPipe: a BytePipe that mangles delivery granularity ----------

/// Wraps an EndpointPipe and re-delivers every response frame through a
/// FrameReassembler, split into two chunks at a boundary that sweeps the
/// whole frame across calls. If reassembly ever misparses a partial header
/// or over-reads past a chunk, the response diverges (or ASan fires) — the
/// in-process stand-in for every TCP segmentation the kernel could choose.
class ChunkedPipe final : public net::BytePipe {
 public:
  explicit ChunkedPipe(resync::ReSyncEndpoint& endpoint) : inner_(endpoint) {}

  wire::Bytes transfer(const wire::Bytes& frame) override {
    const wire::Bytes response = inner_.transfer(frame);
    const std::size_t split = call_count_++ % (response.size() + 1);
    FrameReassembler reassembler;
    reassembler.feed(response.data(), split);
    EXPECT_FALSE(reassembler.has_frame() && split < response.size())
        << "frame complete before all bytes arrived (split " << split << ")";
    reassembler.feed(response.data() + split, response.size() - split);
    EXPECT_TRUE(reassembler.has_frame());
    wire::Bytes reassembled = reassembler.next_frame();
    EXPECT_EQ(reassembler.pending_bytes(), 0u) << "reassembler over-read";
    return reassembled;
  }

  void send(const wire::Bytes& frame) override { inner_.send(frame); }
  void elapse(std::uint64_t ticks) override { inner_.elapse(ticks); }

  std::size_t calls() const noexcept { return call_count_; }

 private:
  net::EndpointPipe inner_;
  std::size_t call_count_ = 0;
};

TEST(ChunkedPipe, EveryBoundaryOfASingleResponseReassemblesIdentically) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  const Query query = Query::parse("o=xyz", Scope::Subtree, "(dept=42)");

  net::EndpointPipe direct(resync);
  const wire::Bytes request = wire::Codec::frame(
      wire::Codec::encode_request(query, {Mode::Poll, ""}));
  const wire::Bytes expected = direct.transfer(request);
  const std::size_t frame_size = expected.size();

  for (std::size_t split = 0; split <= frame_size; ++split) {
    FrameReassembler reassembler;
    reassembler.feed(expected.data(), split);
    reassembler.feed(expected.data() + split, frame_size - split);
    ASSERT_TRUE(reassembler.has_frame()) << "split at " << split;
    EXPECT_EQ(reassembler.next_frame(), expected) << "split at " << split;
  }
}

TEST(ChunkedPipe, FullReplicaRunOverSweepingChunksMatchesDirect) {
  auto chunked_master = make_master();
  auto direct_master = make_master();
  ReSyncMaster chunked_resync(*chunked_master);
  ReSyncMaster direct_resync(*direct_master);

  auto chunked_pipe = std::make_shared<ChunkedPipe>(chunked_resync);
  net::FramedChannel chunked_channel(chunked_pipe);
  net::FramedChannel direct_channel(direct_resync);

  const Query query = Query::parse("o=xyz", Scope::Subtree, "(dept=7)");
  ReSyncReplica chunked(chunked_channel, query);
  ReSyncReplica direct(direct_channel, query);
  chunked.start(Mode::Poll);
  direct.start(Mode::Poll);

  for (int round = 0; round < 40; ++round) {
    const std::string cn = "cn=N" + std::to_string(round) + ",o=xyz";
    chunked_master->add(make_entry(cn, {{"objectclass", "person"},
                                        {"dept", round % 2 ? "7" : "42"}}));
    direct_master->add(make_entry(cn, {{"objectclass", "person"},
                                       {"dept", round % 2 ? "7" : "42"}}));
    chunked_resync.pump();
    direct_resync.pump();
    chunked.poll();
    direct.poll();
  }

  EXPECT_EQ(chunked.content().keys(), direct.content().keys());
  EXPECT_EQ(chunked.cookie(), direct.cookie());
  EXPECT_GT(chunked_pipe->calls(), 40u);
}

// --- FramedChannel one-way accounting -----------------------------------

// Regression for the abandon accounting audit: the one-way abandon frame
// must land in both the frame and byte tallies (exact encoded size), and
// must NOT count as a round trip — there is no response to wait for.
TEST(FramedChannelAccounting, AbandonCountsFrameAndBytesButNoRoundTrip) {
  auto master = make_master();
  ReSyncMaster resync(*master);
  net::FramedChannel channel(resync);

  const Query query = Query::parse("o=xyz", Scope::Subtree, "(dept=7)");
  const resync::ReSyncResponse response = channel.exchange(query, {Mode::Poll, ""});
  const net::TrafficStats after_exchange = channel.traffic();
  EXPECT_EQ(after_exchange.round_trips, 1u);
  EXPECT_EQ(after_exchange.frames, 2u);

  const std::string cookie = response.cookie;
  const std::size_t abandon_size =
      wire::Codec::frame(wire::Codec::encode_abandon(cookie)).size();
  channel.abandon(cookie);

  const net::TrafficStats after_abandon = channel.traffic();
  EXPECT_EQ(after_abandon.frames, after_exchange.frames + 1);
  EXPECT_EQ(after_abandon.bytes, after_exchange.bytes + abandon_size);
  EXPECT_EQ(after_abandon.round_trips, after_exchange.round_trips)
      << "a one-way frame must not count as a round trip";
  // And the abandon really reached the endpoint.
  EXPECT_EQ(resync.session_count(), 0u);
}

/// Forwards to an EndpointPipe and sums the encoded size of every frame
/// that crosses it, in both directions.
class RecordingPipe final : public net::BytePipe {
 public:
  explicit RecordingPipe(resync::ReSyncEndpoint& endpoint) : inner_(endpoint) {}

  wire::Bytes transfer(const wire::Bytes& frame) override {
    wire::Bytes reply = inner_.transfer(frame);
    record(frame);
    record(reply);
    return reply;
  }
  void send(const wire::Bytes& frame) override {
    record(frame);
    inner_.send(frame);
  }
  void elapse(std::uint64_t ticks) override { inner_.elapse(ticks); }

  std::uint64_t bytes() const noexcept { return bytes_; }
  std::uint64_t frames() const noexcept { return frames_; }

 private:
  void record(const wire::Bytes& frame) {
    bytes_ += frame.size();
    ++frames_;
  }

  net::EndpointPipe inner_;
  std::uint64_t bytes_ = 0;
  std::uint64_t frames_ = 0;
};

// Ledger twin: one fault-free schedule over a direct and a framed link
// against twin masters. PDU tallies agree everywhere; only the framed
// channel reports bytes, and those are exactly the frames it carried.
TEST(FramedChannelAccounting, LedgerTwinAgreesAndOnlyFramesCarryBytes) {
  auto direct_master = make_master();
  auto framed_master = make_master();
  ReSyncMaster direct_resync(*direct_master);
  ReSyncMaster framed_resync(*framed_master);

  net::DirectChannel direct_channel(direct_resync);
  auto pipe = std::make_shared<RecordingPipe>(framed_resync);
  net::FramedChannel framed_channel(pipe);

  const Query query = Query::parse("o=xyz", Scope::Subtree, "(dept=7)");
  ReSyncReplica direct(direct_channel, query);
  ReSyncReplica framed(framed_channel, query);
  direct.start(Mode::Poll);
  framed.start(Mode::Poll);

  for (int round = 0; round < 12; ++round) {
    for (server::DirectoryServer* master :
         {direct_master.get(), framed_master.get()}) {
      master->add(make_entry("cn=N" + std::to_string(round) + ",o=xyz",
                             {{"objectclass", "person"},
                              {"dept", round % 2 ? "7" : "42"}}));
      // E0 toggles in and out of the filter: modifies and deletes ship.
      master->modify(Dn::parse("cn=E0,o=xyz"),
                     {{server::Modification::Op::Replace, "dept",
                       {round % 2 ? "7" : "42"}}});
    }
    direct_resync.pump();
    framed_resync.pump();
    direct.poll();
    framed.poll();
  }
  direct.sync_end();
  framed.sync_end();
  ASSERT_EQ(framed.content().keys(), direct.content().keys());

  const net::TrafficStats& d = direct_resync.traffic();
  const net::TrafficStats& f = framed_resync.traffic();
  EXPECT_GT(d.entries, 0u);
  EXPECT_GT(d.dns_only, 0u);
  EXPECT_EQ(f.round_trips, d.round_trips);
  EXPECT_EQ(f.pdus, d.pdus);
  EXPECT_EQ(f.entries, d.entries);
  EXPECT_EQ(f.dns_only, d.dns_only);
  EXPECT_EQ(d.bytes, 0u) << "a master counts PDUs, never bytes";
  EXPECT_EQ(f.bytes, 0u) << "a master counts PDUs, never bytes";

  const net::TrafficStats& link = framed_channel.traffic();
  EXPECT_EQ(link.round_trips, f.round_trips);
  EXPECT_EQ(link.pdus, f.pdus);
  EXPECT_EQ(link.entries, f.entries);
  EXPECT_EQ(link.dns_only, f.dns_only);
  EXPECT_EQ(link.bytes, pipe->bytes());
  EXPECT_EQ(link.frames, pipe->frames());
}

}  // namespace
}  // namespace fbdr::netio
