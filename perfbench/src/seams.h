#pragma once

// Tracing decorators over the program's public seams. Each forwards to the
// real implementation and brackets the call with a span, so the benchmark
// times layers from outside without touching the program.

#include <memory>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/framed_channel.h"
#include "resync/endpoint.h"
#include "server/endpoint.h"
#include "trace.h"

namespace perfbench {

/// Server side of a link. Spans: endpoint.install (null cookie),
/// endpoint.poll (cookie), endpoint.reconcile (digest walk rounds). Counts
/// PDUs per poll and per install response.
class TracingEndpoint final : public fbdr::resync::ReSyncEndpoint {
 public:
  TracingEndpoint(fbdr::resync::ReSyncEndpoint& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  fbdr::resync::ReSyncResponse handle(
      const fbdr::ldap::Query& query,
      const fbdr::resync::ReSyncControl& control) override;
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void tick(std::uint64_t delta) override { inner_->tick(delta); }
  void reset() override { inner_->reset(); }
  const std::string& url() const override { return inner_->url(); }

 private:
  fbdr::resync::ReSyncEndpoint* inner_;
  Tracer* tracer_;
};

/// The byte link: span pipe.transfer covers server decode, handle, encode.
class TracingPipe final : public fbdr::net::BytePipe {
 public:
  TracingPipe(std::shared_ptr<fbdr::net::BytePipe> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  fbdr::wire::Bytes transfer(const fbdr::wire::Bytes& frame) override;
  void send(const fbdr::wire::Bytes& frame) override { inner_->send(frame); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

 private:
  std::shared_ptr<fbdr::net::BytePipe> inner_;
  Tracer* tracer_;
};

/// The client link: span channel.exchange covers client encode, transfer
/// and decode (or the struct hand-off of a direct link).
class TracingChannel final : public fbdr::net::Channel {
 public:
  TracingChannel(std::shared_ptr<fbdr::net::Channel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(&tracer) {}

  fbdr::resync::ReSyncResponse exchange(
      const fbdr::ldap::Query& query,
      const fbdr::resync::ReSyncControl& control) override;
  void abandon(const std::string& cookie) override { inner_->abandon(cookie); }
  void elapse(std::uint64_t ticks) override { inner_->elapse(ticks); }

 private:
  std::shared_ptr<fbdr::net::Channel> inner_;
  Tracer* tracer_;
};

/// Client-facing search endpoint; the span is named by the caller
/// (search.leaf, search.relay, search.root).
class TracingSearchEndpoint final : public fbdr::server::SearchEndpoint {
 public:
  TracingSearchEndpoint(fbdr::server::SearchEndpoint& inner, Tracer& tracer,
                        const char* span)
      : inner_(&inner), tracer_(&tracer), span_(span) {}

  const std::string& url() const override { return inner_->url(); }
  fbdr::server::SearchResult process_search(
      const fbdr::ldap::Query& query) override;

 private:
  fbdr::server::SearchEndpoint* inner_;
  Tracer* tracer_;
  const char* span_;
};

/// One upstream link as the benchmark wires it: framed (codec over an
/// EndpointPipe) or direct (struct passing), traced or not.
struct Link {
  std::shared_ptr<fbdr::net::Channel> channel;
  /// The codec channel of a framed link (exact frame traffic); else null.
  fbdr::net::FramedChannel* framed = nullptr;
};

/// Builds links and owns the endpoint decorators they point at.
class LinkFactory {
 public:
  explicit LinkFactory(Tracer* tracer) : tracer_(tracer) {}

  Link make(fbdr::resync::ReSyncEndpoint& upstream, bool framed);

 private:
  /// Wraps `channel` in a TracingChannel when tracing; else returns it.
  std::shared_ptr<fbdr::net::Channel> trace_channel(
      std::shared_ptr<fbdr::net::Channel> channel);

  Tracer* tracer_;
  std::vector<std::unique_ptr<TracingEndpoint>> endpoints_;
};

}  // namespace perfbench
