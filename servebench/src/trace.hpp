#pragma once

// In-memory span recording at the layer boundaries the benchmark can see
// from outside the library: the client call, the client transport's
// roundtrip, and the server-side handler (a `Service` or a `Router`).  The
// decorators wrap the library's public seams (`api::Transport`,
// `api::Handler`), so nothing inside the serving stack is instrumented.
// Spans stay in memory while the benchmark runs and are written out once,
// after the timed region.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fhg/api/handler.hpp"
#include "fhg/api/transport.hpp"

namespace servebench {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval at a layer boundary.  `parent` is the id of the span
/// that caused this one, 0 when it is a root or when the cause is not
/// visible (a backend span behind the router, whose clients mint their own
/// trace ids).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;

  [[nodiscard]] double duration_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Thread-safe span sink.  Recording is off until `set_enabled(true)`; while
/// off, the decorators below only forward.
class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Pre-sizes the span buffer so recording does not reallocate mid-run.
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// A fresh span id, for a span whose children are recorded before it.
  std::uint64_t reserve_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records `span`, assigning an id unless it carries a reserved one;
  /// returns the id.
  std::uint64_t record(Span span) {
    if (span.id == 0) {
      span.id = reserve_id();
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return span.id;
  }

  /// The recorded spans; call only once no request is in flight.
  [[nodiscard]] std::vector<Span>& spans() { return spans_; }

  /// Writes one tab-separated line per span: id, name, start, end (ns on the
  /// steady clock), parent id, trace id.  Returns false when the file cannot
  /// be written.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tname\tstart_ns\tend_ns\tparent\ttrace_id\n";
    for (const Span& s : spans_) {
      out << s.id << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
          << '\t' << s.trace_id << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Client-side transport decorator: one `transport.roundtrip` span per
/// frame, parented to the `client.call` span the caller opened.
class TracingTransport final : public fhg::api::Transport {
 public:
  TracingTransport(std::unique_ptr<fhg::api::Transport> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  /// The trace id and parent span of the next roundtrip (set by the caller
  /// before each `Client::call`).
  void set_context(std::uint64_t trace_id, std::uint64_t parent) {
    trace_id_ = trace_id;
    parent_ = parent;
  }

  [[nodiscard]] fhg::api::Status roundtrip(std::span<const std::uint8_t> request_frame,
                                           std::vector<std::uint8_t>& response_frame) override {
    if (!log_.enabled()) {
      return inner_->roundtrip(request_frame, response_frame);
    }
    const std::int64_t start = now_ns();
    fhg::api::Status status = inner_->roundtrip(request_frame, response_frame);
    log_.record({"transport.roundtrip", start, now_ns(), trace_id_, 0, parent_});
    return status;
  }

  [[nodiscard]] fhg::api::Status reconnect() override { return inner_->reconnect(); }

 private:
  std::unique_ptr<fhg::api::Transport> inner_;
  SpanLog& log_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Server-side handler decorator: one span per request from `handle` entry
/// to its completion callback, carrying the wire context's trace id.
class TracingHandler final : public fhg::api::Handler {
 public:
  TracingHandler(fhg::api::Handler& inner, SpanLog& log, const char* name)
      : inner_(inner), log_(log), name_(name) {}

  void handle(fhg::api::Request request, fhg::api::ResponseCallback done) override {
    handle(std::move(request), fhg::api::RequestContext{}, std::move(done));
  }

  void handle(fhg::api::Request request, const fhg::api::RequestContext& context,
              fhg::api::ResponseCallback done) override {
    if (!log_.enabled()) {
      inner_.handle(std::move(request), context, std::move(done));
      return;
    }
    const std::int64_t start = now_ns();
    inner_.handle(std::move(request), context,
                  [this, start, trace = context.trace_id,
                   done = std::move(done)](fhg::api::Response response) {
                    log_.record({name_, start, now_ns(), trace, 0, 0});
                    done(std::move(response));
                  });
  }

 private:
  fhg::api::Handler& inner_;
  SpanLog& log_;
  const char* name_;
};

}  // namespace servebench
