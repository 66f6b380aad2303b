// Tests for fhg::obs — the telemetry layer every serving component shares:
// the power-of-two histogram (quantiles, merge, saturation), the lock-free
// metrics registry, the slowest-N trace ring, the exposition formatters
// (Prometheus text format and the human-readable table), and the /metrics
// HTTP endpoint.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fhg/obs/format.hpp"
#include "fhg/obs/histogram.hpp"
#include "fhg/obs/http.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/obs/trace.hpp"

namespace fo = fhg::obs;

// ------------------------------------------------------------ histogram ----

TEST(ObsHistogram, EmptyHistogramQuantilesAreZero) {
  const fo::Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_FALSE(h.saturated());
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(ObsHistogram, SingleBucketQuantilesInterpolateWithinTheBucket) {
  fo::Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.record(10);  // bucket [8, 16)
  }
  EXPECT_EQ(h.total(), 100u);
  // Every quantile lands in the one occupied bucket: estimates stay inside
  // its [floor, ceiling) range and grow monotonically with q.
  const std::uint64_t q01 = h.quantile(0.01);
  const std::uint64_t q50 = h.quantile(0.5);
  const std::uint64_t q99 = h.quantile(0.99);
  EXPECT_GE(q01, 8u);
  EXPECT_LE(q99, 16u);
  EXPECT_LE(q01, q50);
  EXPECT_LE(q50, q99);
}

TEST(ObsHistogram, QuantileRanksAcrossBuckets) {
  fo::Histogram h;
  for (int i = 0; i < 90; ++i) {
    h.record(1);  // bucket [1, 2)
  }
  for (int i = 0; i < 10; ++i) {
    h.record(1000);  // bucket [512, 1024)
  }
  // p50 is deep inside the low bucket; p99 inside the high one.
  EXPECT_LT(h.quantile(0.5), 2u);
  EXPECT_GE(h.quantile(0.95), 512u);
  EXPECT_LE(h.quantile(0.99), 1024u);
}

TEST(ObsHistogram, ZeroValuesLandInBucketZero) {
  fo::Histogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(ObsHistogram, SaturatedTopBucketReportsFloorAndFlagsIt) {
  fo::Histogram h;
  const std::uint64_t top_floor = fo::Histogram::bucket_floor(fo::Histogram::kBuckets - 1);
  h.record(~std::uint64_t{0});  // clamps into the top bucket
  h.record(top_floor);
  EXPECT_TRUE(h.saturated());
  // The tail is clipped: the quantile is the clamp boundary, a lower bound.
  EXPECT_EQ(h.quantile(0.99), top_floor);
  EXPECT_EQ(h.quantile(1.0), top_floor);
}

TEST(ObsHistogram, MergeAddsBucketwiseAndEmptyMergeIsIdentity) {
  fo::Histogram a;
  a.record(3);
  a.record(100);
  const fo::Histogram before = a;
  a.merge(fo::Histogram{});  // merging empty changes nothing
  EXPECT_EQ(a, before);
  fo::Histogram b;
  b.record(3);
  b.record(~std::uint64_t{0});
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.buckets[fo::Histogram::bucket_of(3)], 2u);
  EXPECT_TRUE(a.saturated());  // saturation survives a merge
  fo::Histogram empty;
  empty.merge(b);  // merging *into* empty copies
  EXPECT_EQ(empty, b);
}

TEST(ObsHistogram, BucketsArePowersOfTwo) {
  EXPECT_EQ(fo::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(fo::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(fo::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(fo::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(fo::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(fo::Histogram::bucket_of(7), 3u);
  EXPECT_EQ(fo::Histogram::bucket_of(8), 4u);
  // Values past the last exact bucket clamp into it.
  EXPECT_EQ(fo::Histogram::bucket_of(~std::uint64_t{0}), fo::Histogram::kBuckets - 1);
  EXPECT_EQ(fo::Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(fo::Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(fo::Histogram::bucket_floor(4), 8u);
}

TEST(ObsHistogram, RecordsTotalsAndMerges) {
  fo::Histogram a;
  a.record(0);
  a.record(5);
  a.record(5);
  EXPECT_EQ(a.total(), 3u);
  fo::Histogram b;
  b.record(1);
  b.merge(a);
  EXPECT_EQ(b.total(), 4u);
  EXPECT_EQ(b.buckets[fo::Histogram::bucket_of(5)], 2u);
}

// ------------------------------------------------------------- registry ----

TEST(ObsRegistry, HandlesAreStableAndIdempotent) {
  fo::Registry registry;
  fo::Counter& c1 = registry.counter("fhg_test_a_total");
  fo::Counter& c2 = registry.counter("fhg_test_a_total");
  EXPECT_EQ(&c1, &c2);  // same name, same cell
  c1.add(3);
  c2.increment();
  EXPECT_EQ(c1.value(), 4u);
  fo::Gauge& g = registry.gauge("fhg_test_depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  registry.histogram("fhg_test_us").record(100);
}

TEST(ObsRegistry, GaugeRecordMaxIsARunningMaximumUnderConcurrency) {
  fo::Gauge gauge;
  gauge.record_max(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.record_max(3);  // lower candidates never pull the high-water mark down
  EXPECT_EQ(gauge.value(), 7);
  gauge.record_max(7);  // equal candidates are a no-op, not a CAS loop
  EXPECT_EQ(gauge.value(), 7);

  // Racing recorders must converge on the true maximum (the CAS retry path).
  std::vector<std::thread> recorders;
  for (int t = 0; t < 4; ++t) {
    recorders.emplace_back([&gauge, t] {
      for (std::int64_t i = 0; i < 10'000; ++i) {
        gauge.record_max(i * 4 + t);
      }
    });
  }
  for (std::thread& recorder : recorders) {
    recorder.join();
  }
  EXPECT_EQ(gauge.value(), 9'999 * 4 + 3);
}

TEST(ObsRegistry, SnapshotIsSortedByNameAndTyped) {
  fo::Registry registry;
  registry.counter("fhg_z_total").add(1);
  registry.gauge("fhg_a_gauge").set(-5);
  registry.histogram("fhg_m_us").record(42);
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "fhg_a_gauge");
  EXPECT_EQ(samples[0].kind, fo::MetricKind::kGauge);
  EXPECT_EQ(static_cast<std::int64_t>(samples[0].value), -5);
  EXPECT_EQ(samples[1].name, "fhg_m_us");
  EXPECT_EQ(samples[1].kind, fo::MetricKind::kHistogram);
  EXPECT_EQ(samples[1].value, 1u);  // histogram sample value = total count
  EXPECT_EQ(samples[1].histogram.total(), 1u);
  EXPECT_EQ(samples[2].name, "fhg_z_total");
  EXPECT_EQ(samples[2].kind, fo::MetricKind::kCounter);
  EXPECT_EQ(samples[2].value, 1u);
}

TEST(ObsRegistry, TwoRegistriesWithTheSameEventsSnapshotIdentically) {
  // The property GetStats transport equivalence rests on: snapshots are a
  // pure function of the recorded events, not of registration order.
  fo::Registry a;
  fo::Registry b;
  a.counter("one_total").add(5);
  a.gauge("depth").set(2);
  b.gauge("depth").set(2);  // registered in a different order
  b.counter("one_total").add(5);
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(ObsRegistry, ConcurrentIncrementsAreExact) {
  fo::Registry registry;
  fo::Counter& counter = registry.counter("fhg_test_hammer_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.increment();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------ trace ring ---

TEST(ObsTraceRing, KeepsTheSlowestNSortedSlowestFirst) {
  fo::TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ring.offer(fo::TraceSample{.trace_id = i, .total_us = i * 100});
  }
  const auto kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept[0].total_us, 1000u);  // slowest first
  EXPECT_EQ(kept[1].total_us, 900u);
  EXPECT_EQ(kept[2].total_us, 800u);
  EXPECT_EQ(kept[3].total_us, 700u);
}

TEST(ObsTraceRing, FastRequestsAreRejectedOnceFull) {
  fo::TraceRing ring(2);
  ring.offer(fo::TraceSample{.trace_id = 1, .total_us = 500});
  ring.offer(fo::TraceSample{.trace_id = 2, .total_us = 600});
  ring.offer(fo::TraceSample{.trace_id = 3, .total_us = 100});  // too fast
  const auto kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace_id, 2u);
  EXPECT_EQ(kept[1].trace_id, 1u);
}

TEST(ObsTraceRing, SubMicrosecondSamplesAreKeptWhileThereIsRoom) {
  fo::TraceRing ring(2);
  ring.offer(fo::TraceSample{.trace_id = 1, .total_us = 0});
  ring.offer(fo::TraceSample{.trace_id = 2, .total_us = 0});
  ASSERT_EQ(ring.snapshot().size(), 2u);
  // Full of 0 µs samples: another 0 cannot displace one, a 1 µs sample can.
  ring.offer(fo::TraceSample{.trace_id = 3, .total_us = 0});
  ring.offer(fo::TraceSample{.trace_id = 4, .total_us = 1});
  const auto kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace_id, 4u);
  EXPECT_EQ(kept[1].total_us, 0u);
  EXPECT_NE(kept[1].trace_id, 3u);
}

TEST(ObsTraceRing, TiesBreakByTraceIdAndClearForgets) {
  fo::TraceRing ring(3);
  ring.offer(fo::TraceSample{.trace_id = 9, .total_us = 100});
  ring.offer(fo::TraceSample{.trace_id = 3, .total_us = 100});
  auto kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace_id, 3u);  // equal total_us: lower trace id first
  EXPECT_EQ(kept[1].trace_id, 9u);
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  // After a clear, fast samples are admitted again (the floor reset).
  ring.offer(fo::TraceSample{.trace_id = 1, .total_us = 1});
  EXPECT_EQ(ring.snapshot().size(), 1u);
}

TEST(ObsTraceRing, ZeroCapacityKeepsNothing) {
  fo::TraceRing ring(0);
  ring.offer(fo::TraceSample{.trace_id = 1, .total_us = 1000});
  EXPECT_TRUE(ring.snapshot().empty());
}

// ------------------------------------------------------------ formatters ---

TEST(ObsFormat, PrometheusRendersCountersGaugesAndLabels) {
  std::vector<fo::MetricSample> samples;
  samples.push_back(fo::MetricSample{.name = "fhg_api_frames_encoded_total",
                                     .kind = fo::MetricKind::kCounter,
                                     .value = 42});
  samples.push_back(fo::MetricSample{.name = "fhg_engine_nodes",
                                     .kind = fo::MetricKind::kGauge,
                                     .value = static_cast<std::uint64_t>(-7)});
  samples.push_back(fo::MetricSample{.name = "fhg_service_accepted_total{shard=\"0\"}",
                                     .kind = fo::MetricKind::kCounter,
                                     .value = 9});
  const std::string text = fo::to_prometheus(samples);
  EXPECT_NE(text.find("# TYPE fhg_api_frames_encoded_total counter"), std::string::npos);
  EXPECT_NE(text.find("fhg_api_frames_encoded_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fhg_engine_nodes gauge"), std::string::npos);
  EXPECT_NE(text.find("fhg_engine_nodes -7\n"), std::string::npos);
  // Labeled sample: the TYPE line names the bare family, the sample line
  // keeps its labels.
  EXPECT_NE(text.find("# TYPE fhg_service_accepted_total counter"), std::string::npos);
  EXPECT_NE(text.find("fhg_service_accepted_total{shard=\"0\"} 9\n"), std::string::npos);
}

TEST(ObsFormat, PrometheusHistogramIsCumulativeWithInfAndCount) {
  fo::Histogram h;
  h.record(1);   // le 1
  h.record(10);  // le 15
  std::vector<fo::MetricSample> samples;
  samples.push_back(fo::MetricSample{.name = "fhg_socket_frame_us{port=\"1\"}",
                                     .kind = fo::MetricKind::kHistogram,
                                     .value = h.total(),
                                     .histogram = h});
  const std::string text = fo::to_prometheus(samples);
  EXPECT_NE(text.find("# TYPE fhg_socket_frame_us histogram"), std::string::npos);
  // Buckets are cumulative and carry both the baked-in and the le label.
  EXPECT_NE(text.find("fhg_socket_frame_us_bucket{port=\"1\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("fhg_socket_frame_us_bucket{port=\"1\",le=\"15\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("fhg_socket_frame_us_bucket{port=\"1\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("fhg_socket_frame_us_count{port=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("fhg_socket_frame_us_sum{port=\"1\"} "), std::string::npos);
  EXPECT_EQ(text.find("# WARNING"), std::string::npos);  // not saturated
}

TEST(ObsFormat, PrometheusFlagsSaturatedHistograms) {
  fo::Histogram h;
  h.record(~std::uint64_t{0});
  std::vector<fo::MetricSample> samples;
  samples.push_back(fo::MetricSample{.name = "fhg_engine_query_batch_us",
                                     .kind = fo::MetricKind::kHistogram,
                                     .value = h.total(),
                                     .histogram = h});
  const std::string text = fo::to_prometheus(samples);
  EXPECT_NE(text.find("# WARNING fhg_engine_query_batch_us"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 1\n"), std::string::npos);
}

TEST(ObsFormat, TextTableRendersEveryKindAndMarksSaturation) {
  fo::Histogram plain;
  plain.record(100);
  fo::Histogram clipped;
  clipped.record(~std::uint64_t{0});
  std::vector<fo::MetricSample> samples;
  samples.push_back(fo::MetricSample{
      .name = "fhg_a_total", .kind = fo::MetricKind::kCounter, .value = 5});
  samples.push_back(fo::MetricSample{.name = "fhg_b_depth",
                                     .kind = fo::MetricKind::kGauge,
                                     .value = static_cast<std::uint64_t>(-3)});
  samples.push_back(fo::MetricSample{.name = "fhg_c_us",
                                     .kind = fo::MetricKind::kHistogram,
                                     .value = plain.total(),
                                     .histogram = plain});
  samples.push_back(fo::MetricSample{.name = "fhg_d_us",
                                     .kind = fo::MetricKind::kHistogram,
                                     .value = clipped.total(),
                                     .histogram = clipped});
  const std::string text = fo::to_text(samples);
  EXPECT_NE(text.find("fhg_a_total"), std::string::npos);
  EXPECT_NE(text.find("-3"), std::string::npos);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("[saturated]"), std::string::npos);
  // The unsaturated histogram's row must not carry the marker.
  const auto c_row = text.find("fhg_c_us");
  const auto c_end = text.find('\n', c_row);
  EXPECT_EQ(text.substr(c_row, c_end - c_row).find("[saturated]"), std::string::npos);
}

TEST(ObsFormat, TraceTableListsSlowestFirst) {
  std::vector<fo::TraceSample> traces;
  traces.push_back(fo::TraceSample{.trace_id = 11,
                                   .request_id = 2,
                                   .kind = 0,
                                   .queue_us = 10,
                                   .serve_us = 40,
                                   .total_us = 50});
  const std::string text = fo::to_text(traces);
  EXPECT_NE(text.find("trace"), std::string::npos);
  EXPECT_NE(text.find("11"), std::string::npos);
  EXPECT_NE(text.find("50"), std::string::npos);
}

// ---------------------------------------------------------- http endpoint --

namespace {

/// Minimal scrape client: connects, sends one GET, reads to EOF.
std::string scrape(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return {};
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

}  // namespace

TEST(ObsHttp, ServesRenderedMetricsAndCountsScrapes) {
  std::atomic<int> renders{0};
  fo::StatsHttpServer server([&renders] {
    renders.fetch_add(1);
    return std::string("fhg_test_total 1\n");
  });
  ASSERT_NE(server.port(), 0);
  const std::string reply = scrape(server.port(), "/metrics");
  EXPECT_NE(reply.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(reply.find("fhg_test_total 1"), std::string::npos);
  EXPECT_EQ(renders.load(), 1);
  EXPECT_EQ(server.scrapes(), 1u);
  // A query string still hits the endpoint; an unknown path 404s without
  // invoking the renderer.
  EXPECT_NE(scrape(server.port(), "/metrics?ts=1").find("200 OK"), std::string::npos);
  EXPECT_NE(scrape(server.port(), "/other").find("404"), std::string::npos);
  EXPECT_EQ(server.scrapes(), 2u);
  server.stop();
  server.stop();  // idempotent
}
