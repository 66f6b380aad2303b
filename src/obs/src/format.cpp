#include "fhg/obs/format.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace fhg::obs {
namespace {

/// Splits `fhg_x_total{shard="0"}` into base `fhg_x_total` and label body
/// `shard="0"`.  Names without a label suffix yield an empty label body.
struct SplitName {
  std::string_view base;
  std::string_view labels;
};

SplitName split_name(std::string_view name) {
  const auto brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    return {name, {}};
  }
  return {name.substr(0, brace), name.substr(brace + 1, name.size() - brace - 2)};
}

void append_labels(std::string& out, std::string_view labels, std::string_view extra) {
  if (labels.empty() && extra.empty()) {
    return;
  }
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) {
    out += ',';
  }
  out += extra;
  out += '}';
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
  out += buf;
}

void append_i64(std::string& out, std::int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
  out += buf;
}

const char* type_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

/// Midpoint of a bucket, used to approximate `_sum`.  The top (clamped)
/// bucket contributes its floor — a lower bound is the honest choice when
/// the true values are unknown.
std::uint64_t bucket_midpoint(std::size_t bucket) {
  if (bucket == 0) {
    return 0;
  }
  if (bucket + 1 == Histogram::kBuckets) {
    return Histogram::bucket_floor(bucket);
  }
  return (Histogram::bucket_floor(bucket) + Histogram::bucket_ceiling(bucket) - 1) / 2;
}

void prometheus_histogram(std::string& out, const SplitName& name, const Histogram& hist) {
  std::uint64_t cumulative = 0;
  std::uint64_t approx_sum = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    cumulative += hist.buckets[b];
    approx_sum += hist.buckets[b] * bucket_midpoint(b);
    if (hist.buckets[b] == 0 && b + 1 != Histogram::kBuckets) {
      continue;  // elide interior empty buckets; cumulative counts stay exact
    }
    out += name.base;
    out += "_bucket";
    std::string le = "le=\"";
    // Integer-valued observations: bucket b covers values <= 2^b - 1.
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(Histogram::bucket_ceiling(b) - 1));
    le += buf;
    le += '"';
    append_labels(out, name.labels, le);
    out += ' ';
    append_u64(out, cumulative);
    out += '\n';
  }
  out += name.base;
  out += "_bucket";
  append_labels(out, name.labels, "le=\"+Inf\"");
  out += ' ';
  append_u64(out, cumulative);
  out += '\n';

  out += name.base;
  out += "_sum";
  append_labels(out, name.labels, {});
  out += ' ';
  append_u64(out, approx_sum);
  out += '\n';

  out += name.base;
  out += "_count";
  append_labels(out, name.labels, {});
  out += ' ';
  append_u64(out, cumulative);
  out += '\n';
}

}  // namespace

std::string to_prometheus(const std::vector<MetricSample>& samples) {
  std::string out;
  out.reserve(samples.size() * 48);
  std::string_view last_base;
  for (const MetricSample& sample : samples) {
    const SplitName name = split_name(sample.name);
    if (name.base != last_base) {
      // One TYPE line per family; labeled series of the same base share it.
      out += "# TYPE ";
      out += name.base;
      out += ' ';
      out += type_name(sample.kind);
      out += '\n';
      last_base = name.base;
    }
    switch (sample.kind) {
      case MetricKind::kCounter:
        out += sample.name;
        out += ' ';
        append_u64(out, sample.value);
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += sample.name;
        out += ' ';
        append_i64(out, static_cast<std::int64_t>(sample.value));
        out += '\n';
        break;
      case MetricKind::kHistogram:
        if (sample.histogram.saturated()) {
          out += "# WARNING ";
          out += name.base;
          out += " top bucket saturated; tail clipped at ";
          append_u64(out, Histogram::bucket_floor(Histogram::kBuckets - 1));
          out += '\n';
        }
        prometheus_histogram(out, name, sample.histogram);
        break;
    }
  }
  return out;
}

std::string to_text(const std::vector<MetricSample>& samples) {
  std::size_t width = 0;
  for (const MetricSample& sample : samples) {
    width = std::max(width, sample.name.size());
  }
  std::string out;
  out.reserve(samples.size() * (width + 32));
  for (const MetricSample& sample : samples) {
    out += "  ";
    out += sample.name;
    out.append(width - sample.name.size() + 2, ' ');
    switch (sample.kind) {
      case MetricKind::kCounter:
        append_u64(out, sample.value);
        break;
      case MetricKind::kGauge:
        append_i64(out, static_cast<std::int64_t>(sample.value));
        break;
      case MetricKind::kHistogram: {
        const Histogram& hist = sample.histogram;
        out += "count=";
        append_u64(out, hist.total());
        out += " p50=";
        append_u64(out, hist.quantile(0.50));
        out += " p90=";
        append_u64(out, hist.quantile(0.90));
        out += " p99=";
        append_u64(out, hist.quantile(0.99));
        if (hist.saturated()) {
          out += " [saturated]";
        }
        break;
      }
    }
    out += '\n';
  }
  return out;
}

std::string to_text(const std::vector<TraceSample>& traces) {
  std::string out;
  if (traces.empty()) {
    return out;
  }
  out += "  trace             request   kind  queue_us   serve_us   total_us\n";
  char line[128];
  for (const TraceSample& trace : traces) {
    std::snprintf(line, sizeof line, "  %-16llu  %-8llu  %-4u  %-9llu  %-9llu  %llu\n",
                  static_cast<unsigned long long>(trace.trace_id),
                  static_cast<unsigned long long>(trace.request_id),
                  static_cast<unsigned>(trace.kind),
                  static_cast<unsigned long long>(trace.queue_us),
                  static_cast<unsigned long long>(trace.serve_us),
                  static_cast<unsigned long long>(trace.total_us));
    out += line;
  }
  return out;
}

std::uint64_t sum_series(const std::vector<MetricSample>& samples, std::string_view base) {
  std::uint64_t sum = 0;
  for (const MetricSample& sample : samples) {
    if (split_name(sample.name).base == base) {
      sum += sample.value;
    }
  }
  return sum;
}

}  // namespace fhg::obs
