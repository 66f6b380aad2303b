#pragma once

/// \file format.hpp
/// Exposition formatters for registry snapshots and trace rings.
///
/// Two renderings of the same `MetricSample` list:
///
///  - `to_prometheus` produces the Prometheus text exposition format
///    (version 0.0.4): `# TYPE` lines, cumulative `le` buckets for
///    histograms, `_sum`/`_count` series.  Labels baked into metric names
///    (`fhg_service_accepted_total{shard="0"}`) are understood and merged
///    with the `le` label on bucket lines.
///  - `to_text` produces the human-readable table that `fhg_serve` and
///    `fhg_router` print — one shared formatter instead of per-binary
///    hand-rolled tables.
///
/// Both flag saturated histograms (observations clamped into the top
/// bucket) explicitly: quantiles over a clipped tail are lower bounds, and
/// silently reporting them as truth is how a tail-latency regression hides.
/// `sum_series` reads a series back out of the same list, summed across
/// its label variants.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fhg/obs/registry.hpp"
#include "fhg/obs/trace.hpp"

namespace fhg::obs {

/// Renders `samples` in the Prometheus text exposition format.
///
/// Counters and gauges become single sample lines; histograms expand into
/// cumulative `_bucket{le="..."}` series (le = 2^i - 1 for the power-of-two
/// buckets, plus `+Inf`), an approximate `_sum` (bucket midpoints — exact
/// sums are not tracked) and an exact `_count`.  A saturated histogram gets
/// a warning comment line, since its tail is clipped at the top bucket.
std::string to_prometheus(const std::vector<MetricSample>& samples);

/// Renders `samples` as an aligned human-readable table: counters and
/// gauges as `name value`, histograms as count plus p50/p90/p99 estimates,
/// with a `[saturated]` marker when the top bucket clipped the tail.
std::string to_text(const std::vector<MetricSample>& samples);

/// Renders a slowest-N trace snapshot as a human-readable table:
/// one row per trace, slowest first, with the per-stage span breakdown.
std::string to_text(const std::vector<TraceSample>& traces);

/// The series `base` summed over `samples`: every sample named `base` or
/// `base{...}` (`fhg_service_accepted_total{shard="0"}` and `{shard="1"}`
/// both count toward `fhg_service_accepted_total`).  A histogram
/// contributes its observation count.
[[nodiscard]] std::uint64_t sum_series(const std::vector<MetricSample>& samples,
                                       std::string_view base);

}  // namespace fhg::obs
