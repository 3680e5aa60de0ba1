#include "seams.h"

namespace perfbench {

using fbdr::resync::ReSyncControl;
using fbdr::resync::ReSyncResponse;

ReSyncResponse TracingEndpoint::handle(const fbdr::ldap::Query& query,
                                       const ReSyncControl& control) {
  const char* name = control.reconcile   ? "endpoint.reconcile"
                     : control.initial() ? "endpoint.install"
                                         : "endpoint.poll";
  ReSyncResponse response;
  {
    ScopedSpan span(tracer_, name);
    response = inner_->handle(query, control);
  }
  const double pdus = static_cast<double>(response.pdus.size());
  if (control.reconcile) return response;
  if (control.initial()) {
    tracer_->count("install.responses");
    tracer_->count("install.pdus", pdus);
  } else {
    tracer_->count("poll.responses");
    tracer_->count("poll.pdus", pdus);
    if (pdus > 0) tracer_->count("poll.nonempty");
  }
  return response;
}

fbdr::wire::Bytes TracingPipe::transfer(const fbdr::wire::Bytes& frame) {
  ScopedSpan span(tracer_, "pipe.transfer");
  return inner_->transfer(frame);
}

ReSyncResponse TracingChannel::exchange(const fbdr::ldap::Query& query,
                                        const ReSyncControl& control) {
  ScopedSpan span(tracer_, "channel.exchange");
  return inner_->exchange(query, control);
}

fbdr::server::SearchResult TracingSearchEndpoint::process_search(
    const fbdr::ldap::Query& query) {
  ScopedSpan span(tracer_, span_);
  return inner_->process_search(query);
}

Link LinkFactory::make(fbdr::resync::ReSyncEndpoint& upstream, bool framed) {
  fbdr::resync::ReSyncEndpoint* target = &upstream;
  if (tracer_) {
    endpoints_.push_back(std::make_unique<TracingEndpoint>(upstream, *tracer_));
    target = endpoints_.back().get();
  }
  Link link;
  if (framed) {
    std::shared_ptr<fbdr::net::BytePipe> pipe =
        std::make_shared<fbdr::net::EndpointPipe>(*target);
    if (tracer_) pipe = std::make_shared<TracingPipe>(std::move(pipe), *tracer_);
    auto channel = std::make_shared<fbdr::net::FramedChannel>(std::move(pipe));
    link.framed = channel.get();
    link.channel = trace_channel(std::move(channel));
  } else {
    link.channel =
        trace_channel(std::make_shared<fbdr::net::DirectChannel>(*target));
  }
  return link;
}

std::shared_ptr<fbdr::net::Channel> LinkFactory::trace_channel(
    std::shared_ptr<fbdr::net::Channel> channel) {
  if (!tracer_) return channel;
  return std::make_shared<TracingChannel>(std::move(channel), *tracer_);
}

}  // namespace perfbench
