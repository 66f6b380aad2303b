#pragma once

/// \file trace.hpp
/// Request tracing: per-request span records and a slowest-N ring.
///
/// Every request carries a trace id (minted by the client, or accepted from
/// the wire envelope — zero means "untraced").  The service stamps the
/// stages the request passes through — admission, shard queue, engine batch,
/// encode — into a `TraceSample` and offers it to a `TraceRing`, which keeps
/// only the slowest N completed requests.  The ring answers the question a
/// latency histogram cannot: *which* request was slow, and *where* it spent
/// the time.
///
/// The hot-path cost of a non-qualifying request is one relaxed atomic load
/// and a compare: the ring caches its current admission floor so the mutex
/// is only taken for requests that actually displace an entry.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace fhg::obs {

/// One completed request's timing, broken into the spans of its life:
/// time queued on the shard (`queue_us`), time in the worker serving it
/// including the engine batch (`serve_us`), and end-to-end (`total_us`,
/// admission to completion — also covers encode when measured at the
/// transport).  `kind` is the api request kind tag; `request_id` the wire
/// id, so a slow trace can be tied back to a client-side call site.
struct TraceSample {
  std::uint64_t trace_id = 0;    ///< client-minted id (0 = untraced)
  std::uint64_t request_id = 0;  ///< wire frame id the client sent
  std::uint8_t kind = 0;         ///< api request kind tag
  std::uint64_t queue_us = 0;    ///< time queued on the shard FIFO
  std::uint64_t serve_us = 0;    ///< time in the worker, incl. the engine batch
  std::uint64_t total_us = 0;    ///< end to end, admission to completion

  friend bool operator==(const TraceSample&, const TraceSample&) = default;  ///< field-wise
};

/// Keeps the slowest `capacity` trace samples by `total_us`.
///
/// Thread-safe.  `offer` is wait-free for requests faster than the current
/// floor (a relaxed load and a branch); qualifying requests take a mutex to
/// displace the current fastest entry.
class TraceRing {
 public:
  /// Default slowest-N capacity.
  static constexpr std::size_t kDefaultCapacity = 64;

  /// A ring keeping the slowest `capacity` samples (0 keeps nothing).
  explicit TraceRing(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}
  TraceRing(const TraceRing&) = delete;             ///< non-copyable (owns atomics)
  TraceRing& operator=(const TraceRing&) = delete;  ///< non-assignable

  /// Records `sample` if it is among the slowest seen so far.
  void offer(const TraceSample& sample);

  /// The slowest-N samples, sorted slowest first.  Ties broken by trace id
  /// so snapshots are deterministic.
  [[nodiscard]] std::vector<TraceSample> snapshot() const;

  /// Forgets every recorded sample.
  void clear();

  /// The construction-time slowest-N capacity.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  // Fast-reject threshold: below this total_us a sample cannot qualify
  // (the fastest kept sample's total_us + 1 once full).  Zero while the
  // ring still has room.
  std::atomic<std::uint64_t> floor_{0};
  mutable std::mutex mutex_;
  // Min-heap by total_us: entries_.front() is the fastest kept sample,
  // i.e. the next to be displaced.
  std::vector<TraceSample> entries_;
};

}  // namespace fhg::obs
