#pragma once

/// \file metrics.hpp
/// Plain-struct observability for the sharded service front-end.
///
/// Every shard of a `fhg::service::Service` tracks what flowed through it:
/// how many requests were admitted or refused, how large the coalesced
/// engine batches were, how long requests waited end to end, and how deep
/// the queue ever got.  The structs here are deliberately plain — no atomics
/// and no methods with side effects beyond their own fields — so a caller
/// can snapshot them (`Service::metrics()`), diff two snapshots, ship them
/// to any telemetry system, or print them with nothing but field access.

#include <cstdint>
#include <vector>

#include "fhg/obs/histogram.hpp"

namespace fhg::service {

/// Counters for one shard of the service.
///
/// Admission counters (`accepted`, `rejected_*`, `queue_high_water`) are
/// maintained by submitting threads; serving counters (`queries`,
/// `next_gatherings`, `mutations`, `failed`, `batches`, the histograms) by
/// whichever thread served the request — the shard's worker, or the
/// submitting thread for a read served inline (a batch of one).
/// `Service::metrics()` returns a consistent copy.
struct ShardMetrics {
  std::uint64_t accepted = 0;          ///< requests admitted (queued or served inline)
  std::uint64_t rejected_full = 0;     ///< refused: queue at capacity
  std::uint64_t rejected_stopped = 0;  ///< refused: service draining/stopped
  std::uint64_t queries = 0;           ///< membership requests completed
  std::uint64_t next_gatherings = 0;   ///< next-gathering requests completed
  std::uint64_t mutations = 0;         ///< mutation batches applied
  std::uint64_t admin = 0;             ///< lifecycle / tenancy-wide requests served
  std::uint64_t failed = 0;            ///< requests completed with an error
  std::uint64_t batches = 0;           ///< coalesced engine batch calls
  std::uint64_t queue_high_water = 0;  ///< deepest queue ever observed
  obs::Histogram batch_size;           ///< requests per coalesced batch
  obs::Histogram latency_us;           ///< submit→completion latency (µs)

  /// Accumulates `other` into this struct: counters add, the high-water mark
  /// takes the max, histograms merge bucket-wise.
  constexpr void merge(const ShardMetrics& other) noexcept {
    accepted += other.accepted;
    rejected_full += other.rejected_full;
    rejected_stopped += other.rejected_stopped;
    queries += other.queries;
    next_gatherings += other.next_gatherings;
    mutations += other.mutations;
    admin += other.admin;
    failed += other.failed;
    batches += other.batches;
    queue_high_water =
        queue_high_water > other.queue_high_water ? queue_high_water : other.queue_high_water;
    batch_size.merge(other.batch_size);
    latency_us.merge(other.latency_us);
  }

  friend bool operator==(const ShardMetrics&, const ShardMetrics&) = default;
};

/// A point-in-time copy of every shard's counters.
struct ServiceMetrics {
  /// One entry per shard, in shard order.
  std::vector<ShardMetrics> shards;

  /// Fleet-wide aggregate: counters summed, high-water maxed.
  [[nodiscard]] ShardMetrics totals() const noexcept {
    ShardMetrics sum;
    for (const ShardMetrics& shard : shards) {
      sum.merge(shard);
    }
    return sum;
  }

  friend bool operator==(const ServiceMetrics&, const ServiceMetrics&) = default;
};

}  // namespace fhg::service
