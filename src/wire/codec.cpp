#include "wire/codec.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "ldap/error.h"

namespace fbdr::wire {
namespace {

// --- field tags ---------------------------------------------------------
// Per-struct tag spaces; decoders skip tags they do not know, so absent
// optional fields and future additions both parse cleanly (DESIGN.md §14).

// Request payload
constexpr std::uint8_t kReqQuery = 0x01;
constexpr std::uint8_t kReqControl = 0x02;

// ldap::Query
constexpr std::uint8_t kQueryBase = 0x01;
constexpr std::uint8_t kQueryScope = 0x02;
constexpr std::uint8_t kQueryFilter = 0x03;
constexpr std::uint8_t kQueryAttrs = 0x04;

// resync::ReSyncControl
constexpr std::uint8_t kCtlMode = 0x01;
constexpr std::uint8_t kCtlCookie = 0x02;
constexpr std::uint8_t kCtlReconcile = 0x03;

// resync::ReconcileRequest
constexpr std::uint8_t kRcqRound = 0x01;
constexpr std::uint8_t kRcqRootDigest = 0x02;
constexpr std::uint8_t kRcqEntryCount = 0x03;
constexpr std::uint8_t kRcqBucket = 0x04;       // repeated
constexpr std::uint8_t kRcqFingerprint = 0x05;  // repeated

// resync::ReSyncResponse
constexpr std::uint8_t kRspPdu = 0x01;  // repeated
constexpr std::uint8_t kRspCookie = 0x02;
constexpr std::uint8_t kRspFlags = 0x03;
constexpr std::uint8_t kRspReferral = 0x04;
constexpr std::uint8_t kRspOriginTime = 0x05;
constexpr std::uint8_t kRspReconcile = 0x06;

// resync::EntryPdu
constexpr std::uint8_t kPduAction = 0x01;
constexpr std::uint8_t kPduDn = 0x02;
constexpr std::uint8_t kPduEntry = 0x03;

// resync::ReconcileResponse
constexpr std::uint8_t kRcpFlags = 0x01;
constexpr std::uint8_t kRcpNeedBuckets = 0x02;

// Abandon payload
constexpr std::uint8_t kAbnCookie = 0x01;

// Error payload
constexpr std::uint8_t kErrKind = 0x01;
constexpr std::uint8_t kErrResultCode = 0x02;
constexpr std::uint8_t kErrMessage = 0x03;

// Response flag bits (kRspFlags)
constexpr std::uint8_t kFlagPersistent = 0x01;
constexpr std::uint8_t kFlagFullReload = 0x02;
constexpr std::uint8_t kFlagCompleteEnumeration = 0x04;
constexpr std::uint8_t kFlagBusy = 0x08;
constexpr std::uint8_t kFlagMore = 0x10;
constexpr std::uint8_t kFlagContinued = 0x20;

// ReconcileResponse flag bits (kRcpFlags)
constexpr std::uint8_t kFlagInSync = 0x01;
constexpr std::uint8_t kFlagFallback = 0x02;

// --- primitive writers ----------------------------------------------------
// Every encoder runs twice over the same value: once with a Sizer, which
// only counts bytes, then with a Writer into a buffer grown to exactly that
// count. Both see the same calls, so the count is exact.

void store_u32(std::uint8_t* at, std::uint32_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 24);
  at[1] = static_cast<std::uint8_t>(v >> 16);
  at[2] = static_cast<std::uint8_t>(v >> 8);
  at[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t load_u32(const std::uint8_t* at) {
  return (static_cast<std::uint32_t>(at[0]) << 24) |
         (static_cast<std::uint32_t>(at[1]) << 16) |
         (static_cast<std::uint32_t>(at[2]) << 8) |
         static_cast<std::uint32_t>(at[3]);
}

class Sizer {
 public:
  std::size_t size() const noexcept { return size_; }

  void u8(std::uint8_t) { size_ += 1; }
  void u32(std::uint32_t) { size_ += 4; }
  void u64(std::uint64_t) { size_ += 8; }
  void str(std::string_view s) { size_ += 4 + s.size(); }

  template <typename Body>
  void tlv(std::uint8_t, Body&& body) {
    size_ += 5;
    body(*this);
  }

 private:
  std::size_t size_ = 0;
};

/// Writes into memory the Sizer has already accounted for: no bounds or
/// capacity checks on the way.
class Writer {
 public:
  explicit Writer(std::uint8_t* out) : out_(out) {}

  void u8(std::uint8_t v) { *out_++ = v; }

  void u32(std::uint32_t v) {
    store_u32(out_, v);
    out_ += 4;
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    std::memcpy(out_, s.data(), s.size());
    out_ += s.size();
  }

  /// Writes one TLV field: tag, then a length backpatched around `body`.
  template <typename Body>
  void tlv(std::uint8_t tag, Body&& body) {
    u8(tag);
    std::uint8_t* length = out_;
    out_ += 4;
    body(*this);
    store_u32(length, static_cast<std::uint32_t>(out_ - length - 4));
  }

 private:
  std::uint8_t* out_;
};

/// Sizes `put`, grows `out` once by `header` plus that size, and writes the
/// payload after the `header` bytes; returns where the new bytes start.
template <typename Put>
std::uint8_t* append(Bytes& out, std::size_t header, Put&& put) {
  Sizer sizer;
  put(sizer);
  if (sizer.size() > Codec::kMaxPayloadBytes) {
    throw CodecError("payload exceeds frame size limit");
  }
  const std::size_t at = out.size();
  out.resize(at + header + sizer.size());
  Writer writer(out.data() + at + header);
  put(writer);
  return out.data() + at;
}

template <typename Put>
Bytes encode_payload(Put&& put) {
  Bytes out;
  append(out, 0, put);
  return out;
}

void write_header(std::uint8_t* frame, std::size_t payload_size) {
  frame[0] = static_cast<std::uint8_t>(Codec::kMagic >> 8);
  frame[1] = static_cast<std::uint8_t>(Codec::kMagic);
  frame[2] = Codec::kCodecVersion;
  frame[3] = 0;  // reserved, must be zero on send, ignored on receive
  store_u32(frame + 4, static_cast<std::uint32_t>(payload_size));
  const std::uint64_t sum =
      Codec::checksum(frame + Codec::kFrameHeaderBytes, payload_size);
  store_u32(frame + 8, static_cast<std::uint32_t>(sum >> 32));
  store_u32(frame + 12, static_cast<std::uint32_t>(sum));
}

/// Appends one frame whose payload `put` writes.
template <typename Put>
void append_frame(Bytes& out, Put&& put) {
  const std::size_t before = out.size();
  std::uint8_t* frame = append(out, Codec::kFrameHeaderBytes, put);
  write_header(frame, out.size() - before - Codec::kFrameHeaderBytes);
}

// --- primitive reader ---------------------------------------------------

/// Bounds-checked cursor over a byte extent. Every length and count is
/// validated against the remaining bytes *before* any allocation, so a
/// hostile length field fails with CodecError instead of an OOM.
class Reader {
 public:
  explicit Reader(ByteSpan bytes) : data_(bytes.data()), size_(bytes.size()) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool done() const noexcept { return pos_ == size_; }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = load_u32(data_ + pos_);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  std::string str() { return std::string(view()); }

  /// A string field without a copy; valid while the payload is.
  std::string_view view() {
    const std::uint32_t len = u32();
    need(len);
    const std::string_view s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  /// The bytes not read yet, without consuming them.
  ByteSpan rest() const noexcept { return ByteSpan(data_ + pos_, remaining()); }

  /// Consumes `len` bytes and returns a sub-reader bounded to them — the
  /// extent of one TLV value. Unknown tags are skipped by discarding it.
  Reader field(std::size_t len) {
    need(len);
    Reader sub(ByteSpan(data_ + pos_, len));
    pos_ += len;
    return sub;
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw CodecError("truncated payload: need " + std::to_string(n) +
                       " bytes, have " + std::to_string(remaining()));
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- ldap value encoders -------------------------------------------------

template <typename W>
void put_dn(W& w, const ldap::Dn& dn) {
  w.u32(static_cast<std::uint32_t>(dn.rdns().size()));
  for (const ldap::Rdn& rdn : dn.rdns()) {
    w.str(rdn.type());
    w.str(rdn.value());
  }
}

ldap::Dn get_dn(Reader& r) {
  const std::uint32_t count = r.u32();
  std::vector<ldap::Rdn> rdns;
  // Each RDN takes at least its two length fields: a hostile count fails
  // before the reservation can grow past the payload.
  if (count <= r.remaining() / 8) rdns.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string_view type = r.view();
    rdns.emplace_back(type, r.view());
  }
  return ldap::Dn::from_rdns(std::move(rdns));
}

template <typename W>
void put_filter(W& w, const ldap::Filter& filter) {
  w.u8(static_cast<std::uint8_t>(filter.kind()));
  switch (filter.kind()) {
    case ldap::FilterKind::And:
    case ldap::FilterKind::Or:
      w.u32(static_cast<std::uint32_t>(filter.children().size()));
      for (const ldap::FilterPtr& child : filter.children()) {
        put_filter(w, *child);
      }
      break;
    case ldap::FilterKind::Not:
      put_filter(w, *filter.children().front());
      break;
    case ldap::FilterKind::Equality:
    case ldap::FilterKind::GreaterEq:
    case ldap::FilterKind::LessEq:
      w.str(filter.attribute());
      w.str(filter.value());
      break;
    case ldap::FilterKind::Present:
      w.str(filter.attribute());
      break;
    case ldap::FilterKind::Substring: {
      w.str(filter.attribute());
      const ldap::SubstringPattern& pattern = filter.substrings();
      w.str(pattern.initial);
      w.u32(static_cast<std::uint32_t>(pattern.any.size()));
      for (const std::string& part : pattern.any) w.str(part);
      w.str(pattern.final);
      break;
    }
  }
}

ldap::FilterPtr get_filter(Reader& r, int depth) {
  if (depth > Codec::kMaxFilterDepth) {
    throw CodecError("filter nesting exceeds depth limit");
  }
  const std::uint8_t kind = r.u8();
  switch (static_cast<ldap::FilterKind>(kind)) {
    case ldap::FilterKind::And:
    case ldap::FilterKind::Or: {
      const std::uint32_t count = r.u32();
      std::vector<ldap::FilterPtr> children;
      for (std::uint32_t i = 0; i < count; ++i) {
        children.push_back(get_filter(r, depth + 1));
      }
      return kind == static_cast<std::uint8_t>(ldap::FilterKind::And)
                 ? ldap::Filter::make_and(std::move(children))
                 : ldap::Filter::make_or(std::move(children));
    }
    case ldap::FilterKind::Not:
      return ldap::Filter::make_not(get_filter(r, depth + 1));
    case ldap::FilterKind::Equality: {
      const std::string attr = r.str();
      return ldap::Filter::equality(attr, r.str());
    }
    case ldap::FilterKind::GreaterEq: {
      const std::string attr = r.str();
      return ldap::Filter::greater_eq(attr, r.str());
    }
    case ldap::FilterKind::LessEq: {
      const std::string attr = r.str();
      return ldap::Filter::less_eq(attr, r.str());
    }
    case ldap::FilterKind::Present:
      return ldap::Filter::present(r.str());
    case ldap::FilterKind::Substring: {
      const std::string attr = r.str();
      ldap::SubstringPattern pattern;
      pattern.initial = r.str();
      const std::uint32_t any = r.u32();
      for (std::uint32_t i = 0; i < any; ++i) pattern.any.push_back(r.str());
      pattern.final = r.str();
      return ldap::Filter::substring(attr, std::move(pattern));
    }
  }
  throw CodecError("unknown filter kind " + std::to_string(kind));
}

template <typename W>
void put_entry(W& w, const ldap::Entry& entry) {
  put_dn(w, entry.dn());
  w.u32(static_cast<std::uint32_t>(entry.attributes().size()));
  for (const auto& [name, values] : entry.attributes()) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(values.size()));
    for (const std::string& value : values) w.str(value);
  }
}

/// Decodes an entry. `dn_bytes` are the wire bytes of `dn`, the PDU's own
/// DN, which the encoder writes again at the head of the entry: when they
/// repeat the entry shares `dn` instead of parsing it twice (the DN encoding
/// is prefix-free, so equal leading bytes are the same whole DN).
ldap::EntryPtr get_entry(Reader& r, ByteSpan dn_bytes, const ldap::Dn& dn) {
  const ByteSpan rest = r.rest();
  const bool same_dn = !dn_bytes.empty() && rest.size() >= dn_bytes.size() &&
                       std::equal(dn_bytes.begin(), dn_bytes.end(), rest.begin());
  auto entry = std::make_shared<ldap::Entry>(same_dn ? dn : get_dn(r));
  if (same_dn) r.field(dn_bytes.size());
  const std::uint32_t attrs = r.u32();
  // A name and a value count take at least 8 bytes.
  if (attrs <= r.remaining() / 8) entry->reserve(attrs);
  for (std::uint32_t i = 0; i < attrs; ++i) {
    const std::string_view name = r.view();
    const std::uint32_t count = r.u32();
    std::vector<std::string> values;
    if (count <= r.remaining() / 4) values.reserve(count);
    for (std::uint32_t j = 0; j < count; ++j) values.emplace_back(r.view());
    entry->set_values(name, std::move(values));
  }
  return entry;
}

template <typename W>
void put_query(W& w, const ldap::Query& query) {
  if (!query.base.is_root()) {
    w.tlv(kQueryBase, [&](auto& f) { put_dn(f, query.base); });
  }
  if (query.scope != ldap::Scope::Subtree) {
    w.tlv(kQueryScope,
          [&](auto& f) { f.u8(static_cast<std::uint8_t>(query.scope)); });
  }
  if (query.filter != nullptr) {
    w.tlv(kQueryFilter, [&](auto& f) { put_filter(f, *query.filter); });
  }
  if (!(query.attrs == ldap::AttributeSelection{})) {
    w.tlv(kQueryAttrs, [&](auto& f) {
      f.u8(query.attrs.all ? 1 : 0);
      f.u32(static_cast<std::uint32_t>(query.attrs.names.size()));
      for (const std::string& name : query.attrs.names) f.str(name);
    });
  }
}

ldap::Query get_query(Reader extent) {
  ldap::Query query;
  query.filter = nullptr;  // absent tag means "no filter", not match_all
  while (!extent.done()) {
    const std::uint8_t tag = extent.u8();
    Reader f = extent.field(extent.u32());
    switch (tag) {
      case kQueryBase:
        query.base = get_dn(f);
        break;
      case kQueryScope: {
        const std::uint8_t scope = f.u8();
        if (scope > static_cast<std::uint8_t>(ldap::Scope::Subtree)) {
          throw CodecError("scope out of range: " + std::to_string(scope));
        }
        query.scope = static_cast<ldap::Scope>(scope);
        break;
      }
      case kQueryFilter:
        query.filter = get_filter(f, 0);
        break;
      case kQueryAttrs: {
        query.attrs.all = f.u8() != 0;
        query.attrs.names.clear();
        const std::uint32_t count = f.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          query.attrs.names.push_back(f.str());
        }
        break;
      }
      default:
        break;  // unknown field from a newer peer: skip
    }
  }
  return query;
}

template <typename W>
void put_reconcile_request(W& w, const resync::ReconcileRequest& req) {
  if (req.round != 1) {
    w.tlv(kRcqRound,
          [&](auto& f) { f.u32(static_cast<std::uint32_t>(req.round)); });
  }
  if (req.root_digest != 0) {
    w.tlv(kRcqRootDigest, [&](auto& f) { f.u64(req.root_digest); });
  }
  if (req.entry_count != 0) {
    w.tlv(kRcqEntryCount, [&](auto& f) { f.u64(req.entry_count); });
  }
  for (const resync::DigestPdu& bucket : req.buckets) {
    w.tlv(kRcqBucket, [&](auto& f) {
      f.u32(bucket.bucket);
      f.u64(bucket.digest);
      f.u64(bucket.count);
    });
  }
  for (const sync::EntryFingerprint& fp : req.fingerprints) {
    w.tlv(kRcqFingerprint, [&](auto& f) {
      put_dn(f, fp.dn);
      f.u64(fp.hash);
    });
  }
}

resync::ReconcileRequest get_reconcile_request(Reader extent) {
  resync::ReconcileRequest req;
  while (!extent.done()) {
    const std::uint8_t tag = extent.u8();
    Reader f = extent.field(extent.u32());
    switch (tag) {
      case kRcqRound:
        req.round = static_cast<int>(f.u32());
        break;
      case kRcqRootDigest:
        req.root_digest = f.u64();
        break;
      case kRcqEntryCount:
        req.entry_count = f.u64();
        break;
      case kRcqBucket: {
        resync::DigestPdu bucket;
        bucket.bucket = f.u32();
        bucket.digest = f.u64();
        bucket.count = f.u64();
        req.buckets.push_back(bucket);
        break;
      }
      case kRcqFingerprint: {
        sync::EntryFingerprint fp;
        fp.dn = get_dn(f);
        fp.hash = f.u64();
        req.fingerprints.push_back(std::move(fp));
        break;
      }
      default:
        break;
    }
  }
  return req;
}

template <typename W>
void put_control(W& w, const resync::ReSyncControl& control) {
  if (control.mode != resync::Mode::Poll) {
    w.tlv(kCtlMode,
          [&](auto& f) { f.u8(static_cast<std::uint8_t>(control.mode)); });
  }
  if (!control.cookie.empty()) {
    w.tlv(kCtlCookie, [&](auto& f) { f.str(control.cookie); });
  }
  if (control.reconcile != nullptr) {
    w.tlv(kCtlReconcile,
          [&](auto& f) { put_reconcile_request(f, *control.reconcile); });
  }
}

resync::ReSyncControl get_control(Reader extent) {
  resync::ReSyncControl control;
  while (!extent.done()) {
    const std::uint8_t tag = extent.u8();
    Reader f = extent.field(extent.u32());
    switch (tag) {
      case kCtlMode: {
        const std::uint8_t mode = f.u8();
        if (mode > static_cast<std::uint8_t>(resync::Mode::SyncEnd)) {
          throw CodecError("mode out of range: " + std::to_string(mode));
        }
        control.mode = static_cast<resync::Mode>(mode);
        break;
      }
      case kCtlCookie:
        control.cookie = f.str();
        break;
      case kCtlReconcile:
        control.reconcile = std::make_shared<const resync::ReconcileRequest>(
            get_reconcile_request(f));
        break;
      default:
        break;
    }
  }
  return control;
}

template <typename W>
void put_pdu(W& w, const resync::EntryPdu& pdu) {
  if (pdu.action != resync::Action::Add) {
    w.tlv(kPduAction,
          [&](auto& f) { f.u8(static_cast<std::uint8_t>(pdu.action)); });
  }
  if (!pdu.dn.is_root()) {
    w.tlv(kPduDn, [&](auto& f) { put_dn(f, pdu.dn); });
  }
  if (pdu.entry != nullptr) {
    w.tlv(kPduEntry, [&](auto& f) { put_entry(f, *pdu.entry); });
  }
}

resync::EntryPdu get_pdu(Reader extent) {
  resync::EntryPdu pdu;
  ByteSpan dn_bytes;  // wire form of pdu.dn
  while (!extent.done()) {
    const std::uint8_t tag = extent.u8();
    Reader f = extent.field(extent.u32());
    switch (tag) {
      case kPduAction: {
        const std::uint8_t action = f.u8();
        if (action > static_cast<std::uint8_t>(resync::Action::Retain)) {
          throw CodecError("action out of range: " + std::to_string(action));
        }
        pdu.action = static_cast<resync::Action>(action);
        break;
      }
      case kPduDn: {
        const ByteSpan rest = f.rest();
        pdu.dn = get_dn(f);
        dn_bytes = rest.first(rest.size() - f.remaining());
        break;
      }
      case kPduEntry:
        pdu.entry = get_entry(f, dn_bytes, pdu.dn);
        break;
      default:
        break;
    }
  }
  return pdu;
}

template <typename W>
void put_reconcile_response(W& w, const resync::ReconcileResponse& rsp) {
  std::uint8_t flags = 0;
  if (rsp.in_sync) flags |= kFlagInSync;
  if (rsp.fallback) flags |= kFlagFallback;
  if (flags != 0) {
    w.tlv(kRcpFlags, [&](auto& f) { f.u8(flags); });
  }
  if (!rsp.need_buckets.empty()) {
    w.tlv(kRcpNeedBuckets, [&](auto& f) {
      f.u32(static_cast<std::uint32_t>(rsp.need_buckets.size()));
      for (std::uint32_t bucket : rsp.need_buckets) f.u32(bucket);
    });
  }
}

resync::ReconcileResponse get_reconcile_response(Reader extent) {
  resync::ReconcileResponse rsp;
  while (!extent.done()) {
    const std::uint8_t tag = extent.u8();
    Reader f = extent.field(extent.u32());
    switch (tag) {
      case kRcpFlags: {
        const std::uint8_t flags = f.u8();
        rsp.in_sync = (flags & kFlagInSync) != 0;
        rsp.fallback = (flags & kFlagFallback) != 0;
        break;
      }
      case kRcpNeedBuckets: {
        const std::uint32_t count = f.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          rsp.need_buckets.push_back(f.u32());
        }
        break;
      }
      default:
        break;
    }
  }
  return rsp;
}

// --- payload writers ------------------------------------------------------

template <typename W>
void put_request(W& w, const ldap::Query& query,
                 const resync::ReSyncControl& control) {
  w.u8(static_cast<std::uint8_t>(FrameKind::Request));
  // The master keeps a session's query under its cookie, so only a request
  // that can create a session (initial) or end one (SyncEnd, whose query
  // guards a respawned master's reused ids) ships it. A Poll or Persist
  // continuation, reconcile round 2 included, is (mode, cookie) alone.
  if (control.initial() || control.mode == resync::Mode::SyncEnd) {
    w.tlv(kReqQuery, [&](auto& f) { put_query(f, query); });
  }
  w.tlv(kReqControl, [&](auto& f) { put_control(f, control); });
}

template <typename W>
void put_response(W& w, const resync::ReSyncResponse& response) {
  w.u8(static_cast<std::uint8_t>(FrameKind::Response));
  for (const resync::EntryPdu& pdu : response.pdus) {
    w.tlv(kRspPdu, [&](auto& f) { put_pdu(f, pdu); });
  }
  if (!response.cookie.empty()) {
    w.tlv(kRspCookie, [&](auto& f) { f.str(response.cookie); });
  }
  std::uint8_t flags = 0;
  if (response.persistent) flags |= kFlagPersistent;
  if (response.full_reload) flags |= kFlagFullReload;
  if (response.complete_enumeration) flags |= kFlagCompleteEnumeration;
  if (response.busy) flags |= kFlagBusy;
  if (response.more) flags |= kFlagMore;
  if (response.continued) flags |= kFlagContinued;
  if (flags != 0) {
    w.tlv(kRspFlags, [&](auto& f) { f.u8(flags); });
  }
  if (!response.referral_url.empty()) {
    w.tlv(kRspReferral, [&](auto& f) { f.str(response.referral_url); });
  }
  if (response.origin_time != 0) {
    w.tlv(kRspOriginTime, [&](auto& f) { f.u64(response.origin_time); });
  }
  if (response.reconcile != nullptr) {
    w.tlv(kRspReconcile,
          [&](auto& f) { put_reconcile_response(f, *response.reconcile); });
  }
}

template <typename W>
void put_abandon(W& w, const std::string& cookie) {
  w.u8(static_cast<std::uint8_t>(FrameKind::Abandon));
  if (!cookie.empty()) {
    w.tlv(kAbnCookie, [&](auto& f) { f.str(cookie); });
  }
}

template <typename W>
void put_error(W& w, const ErrorFrame& error) {
  w.u8(static_cast<std::uint8_t>(FrameKind::Error));
  w.tlv(kErrKind,
        [&](auto& f) { f.u8(static_cast<std::uint8_t>(error.kind)); });
  if (error.result_code != 0) {
    w.tlv(kErrResultCode, [&](auto& f) {
      f.u32(static_cast<std::uint32_t>(error.result_code));
    });
  }
  if (!error.message.empty()) {
    w.tlv(kErrMessage, [&](auto& f) { f.str(error.message); });
  }
}

}  // namespace

// --- encode --------------------------------------------------------------

void Codec::frame_request(Bytes& out, const ldap::Query& query,
                          const resync::ReSyncControl& control) {
  append_frame(out, [&](auto& w) { put_request(w, query, control); });
}

void Codec::frame_response(Bytes& out, const resync::ReSyncResponse& response) {
  append_frame(out, [&](auto& w) { put_response(w, response); });
}

void Codec::frame_abandon(Bytes& out, const std::string& cookie) {
  append_frame(out, [&](auto& w) { put_abandon(w, cookie); });
}

void Codec::frame_error(Bytes& out, const ErrorFrame& error) {
  append_frame(out, [&](auto& w) { put_error(w, error); });
}

Bytes Codec::encode_request(const ldap::Query& query,
                            const resync::ReSyncControl& control) {
  return encode_payload([&](auto& w) { put_request(w, query, control); });
}

Bytes Codec::encode_response(const resync::ReSyncResponse& response) {
  return encode_payload([&](auto& w) { put_response(w, response); });
}

Bytes Codec::encode_abandon(const std::string& cookie) {
  return encode_payload([&](auto& w) { put_abandon(w, cookie); });
}

Bytes Codec::encode_error(const ErrorFrame& error) {
  return encode_payload([&](auto& w) { put_error(w, error); });
}

// --- payload decode ------------------------------------------------------

FrameKind Codec::kind_of(ByteSpan payload) {
  if (payload.empty()) {
    throw CodecError("empty payload");
  }
  const std::uint8_t kind = payload.front();
  if (kind < static_cast<std::uint8_t>(FrameKind::Request) ||
      kind > static_cast<std::uint8_t>(FrameKind::Error)) {
    throw CodecError("unknown frame kind " + std::to_string(kind));
  }
  return static_cast<FrameKind>(kind);
}

RequestFrame Codec::decode_request(ByteSpan payload) {
  if (kind_of(payload) != FrameKind::Request) {
    throw CodecError("payload is not a request frame");
  }
  try {
    Reader r(payload.subspan(1));
    RequestFrame request;
    request.query.filter = nullptr;
    while (!r.done()) {
      const std::uint8_t tag = r.u8();
      Reader f = r.field(r.u32());
      switch (tag) {
        case kReqQuery:
          request.query = get_query(f);
          break;
        case kReqControl:
          request.control = get_control(f);
          break;
        default:
          break;
      }
    }
    return request;
  } catch (const ldap::ParseError& e) {
    throw CodecError(std::string("malformed dn in request: ") + e.what());
  }
}

resync::ReSyncResponse Codec::decode_response(ByteSpan payload) {
  if (kind_of(payload) != FrameKind::Response) {
    throw CodecError("payload is not a response frame");
  }
  try {
    Reader r(payload.subspan(1));
    resync::ReSyncResponse response;
    while (!r.done()) {
      const std::uint8_t tag = r.u8();
      Reader f = r.field(r.u32());
      switch (tag) {
        case kRspPdu:
          response.pdus.push_back(get_pdu(f));
          break;
        case kRspCookie:
          response.cookie = f.str();
          break;
        case kRspFlags: {
          const std::uint8_t flags = f.u8();
          response.persistent = (flags & kFlagPersistent) != 0;
          response.full_reload = (flags & kFlagFullReload) != 0;
          response.complete_enumeration = (flags & kFlagCompleteEnumeration) != 0;
          response.busy = (flags & kFlagBusy) != 0;
          response.more = (flags & kFlagMore) != 0;
          response.continued = (flags & kFlagContinued) != 0;
          break;
        }
        case kRspReferral:
          response.referral_url = f.str();
          break;
        case kRspOriginTime:
          response.origin_time = f.u64();
          break;
        case kRspReconcile:
          response.reconcile = std::make_shared<const resync::ReconcileResponse>(
              get_reconcile_response(f));
          break;
        default:
          break;
      }
    }
    return response;
  } catch (const ldap::ParseError& e) {
    throw CodecError(std::string("malformed dn in response: ") + e.what());
  }
}

std::string Codec::decode_abandon(ByteSpan payload) {
  if (kind_of(payload) != FrameKind::Abandon) {
    throw CodecError("payload is not an abandon frame");
  }
  Reader r(payload.subspan(1));
  std::string cookie;
  while (!r.done()) {
    const std::uint8_t tag = r.u8();
    Reader f = r.field(r.u32());
    if (tag == kAbnCookie) cookie = f.str();
  }
  return cookie;
}

ErrorFrame Codec::decode_error(ByteSpan payload) {
  if (kind_of(payload) != FrameKind::Error) {
    throw CodecError("payload is not an error frame");
  }
  Reader r(payload.subspan(1));
  ErrorFrame error;
  while (!r.done()) {
    const std::uint8_t tag = r.u8();
    Reader f = r.field(r.u32());
    switch (tag) {
      case kErrKind: {
        const std::uint8_t kind = f.u8();
        if (kind < static_cast<std::uint8_t>(ErrorFrame::Kind::Protocol) ||
            kind > static_cast<std::uint8_t>(ErrorFrame::Kind::Operation)) {
          throw CodecError("error kind out of range: " + std::to_string(kind));
        }
        error.kind = static_cast<ErrorFrame::Kind>(kind);
        break;
      }
      case kErrResultCode:
        error.result_code = static_cast<std::int32_t>(f.u32());
        break;
      case kErrMessage:
        error.message = f.str();
        break;
      default:
        break;
    }
  }
  return error;
}

// --- framing -------------------------------------------------------------

std::uint64_t Codec::checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

Bytes Codec::frame(ByteSpan payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw CodecError("payload exceeds frame size limit");
  }
  Bytes out(kFrameHeaderBytes + payload.size());
  std::copy(payload.begin(), payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes));
  write_header(out.data(), payload.size());
  return out;
}

std::size_t Codec::validate_header(const std::uint8_t* header) {
  const std::uint16_t magic = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(header[0]) << 8) | header[1]);
  if (magic != kMagic) {
    throw CodecError("bad frame magic: not an fbdr frame");
  }
  if (header[2] != kCodecVersion) {
    throw CodecError("unsupported codec version " + std::to_string(header[2]) +
                     " (speaking " + std::to_string(kCodecVersion) + ")");
  }
  const std::size_t length = (static_cast<std::size_t>(header[4]) << 24) |
                             (static_cast<std::size_t>(header[5]) << 16) |
                             (static_cast<std::size_t>(header[6]) << 8) |
                             static_cast<std::size_t>(header[7]);
  if (length > kMaxPayloadBytes) {
    throw CodecError("frame length exceeds payload limit");
  }
  return length;
}

ByteSpan Codec::payload_of(ByteSpan frame) {
  if (frame.size() < kFrameHeaderBytes) {
    throw CodecError("short frame: " + std::to_string(frame.size()) + " bytes");
  }
  const std::size_t length = validate_header(frame.data());
  if (length != frame.size() - kFrameHeaderBytes) {
    throw CodecError("frame length mismatch");
  }
  const std::uint64_t expected =
      (static_cast<std::uint64_t>(load_u32(frame.data() + 8)) << 32) |
      load_u32(frame.data() + 12);
  const ByteSpan payload = frame.subspan(kFrameHeaderBytes);
  if (checksum(payload.data(), payload.size()) != expected) {
    throw CodecError("frame checksum mismatch");
  }
  return payload;
}

Bytes Codec::deframe(ByteSpan frame) {
  const ByteSpan payload = payload_of(frame);
  return Bytes(payload.begin(), payload.end());
}

void Codec::throw_error(const ErrorFrame& error) {
  switch (error.kind) {
    case ErrorFrame::Kind::StaleCookie:
      throw ldap::StaleCookieError(error.message);
    case ErrorFrame::Kind::Busy:
      throw ldap::BusyError(error.message);
    case ErrorFrame::Kind::Operation:
      throw ldap::OperationError(static_cast<ldap::ResultCode>(error.result_code),
                                 error.message);
    case ErrorFrame::Kind::Protocol:
      break;
  }
  throw ldap::ProtocolError(error.message);
}

}  // namespace fbdr::wire
