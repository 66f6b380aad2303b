// Tests for fhg::service — the sharded asynchronous request pipeline, driven
// through its one entry point (`handle`, and `submit` on top of it): typed
// backpressure at admission, drain-on-shutdown completing every accepted
// request, mutation/query serialization through one shard's FIFO, and
// cross-shard determinism of answers against the direct synchronous engine
// path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "fhg/api/protocol.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/graph/generators.hpp"
#include "fhg/obs/format.hpp"
#include "fhg/obs/histogram.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/service/service.hpp"
#include "fhg/workload/scenario.hpp"

namespace fa = fhg::api;
namespace fd = fhg::dynamic;
namespace fe = fhg::engine;
namespace fg = fhg::graph;
namespace fo = fhg::obs;
namespace fs = fhg::service;
namespace fw = fhg::workload;

namespace {

fw::ScenarioSpec fleet_spec(std::size_t fleet, double aperiodic = 0.25, double dyn = 0.0) {
  fw::ScenarioSpec spec;
  spec.family = fw::GraphFamily::kPowerLaw;
  spec.fleet = fleet;
  spec.nodes = 16;
  spec.seed = 7;
  spec.horizon = 256;
  spec.aperiodic = aperiodic;
  spec.dynamic_share = dyn;
  return spec;
}

std::unique_ptr<fe::Engine> make_fleet(const fw::ScenarioSpec& spec) {
  auto engine = std::make_unique<fe::Engine>(fe::EngineOptions{.shards = 8, .threads = 2});
  fw::ScenarioGenerator(spec).populate(*engine);
  (void)engine->step_all(32);
  return engine;
}

/// A one-instance engine with a dynamic tenant named "dyn" over C_8.
std::unique_ptr<fe::Engine> make_dynamic_single() {
  auto engine = std::make_unique<fe::Engine>(fe::EngineOptions{.shards = 4, .threads = 1});
  fe::InstanceSpec spec;
  spec.kind = fe::SchedulerKind::kDynamicPrefixCode;
  (void)engine->create_instance("dyn", fg::cycle(8), spec);
  (void)engine->step_all(16);
  return engine;
}

/// The answer a successful IsHappy response carries.
bool happy_of(const fa::Response& response) {
  EXPECT_TRUE(response.ok()) << response.status.detail;
  const auto* happy = std::get_if<fa::IsHappyResponse>(&response.payload);
  return happy != nullptr && happy->happy;
}

/// The holiday a successful NextGathering response carries (0, never a
/// valid answer, when there is none).
std::uint64_t next_of(const fa::Response& response) {
  EXPECT_TRUE(response.ok()) << response.status.detail;
  const auto* next = std::get_if<fa::NextGatheringResponse>(&response.payload);
  return next != nullptr ? next->holiday : 0;
}

/// `series` in the service's stats, summed across its shard labels (a
/// histogram contributes its observation count).
std::uint64_t stat(const fs::Service& service, std::string_view series) {
  return fo::sum_series(service.stats({}).metrics, series);
}

/// The result a successful ApplyMutations response carries.
fa::ApplyMutationsResponse mutation_of(const fa::Response& response) {
  EXPECT_TRUE(response.ok()) << response.status.detail;
  const auto* mutation = std::get_if<fa::ApplyMutationsResponse>(&response.payload);
  return mutation != nullptr ? *mutation : fa::ApplyMutationsResponse{};
}

}  // namespace

// -------------------------------------------------------- admission --------

TEST(Service, BackpressureRejectsTypedWhenQueueFull) {
  auto engine = make_dynamic_single();
  // Deferred start: nothing drains, so the queue fills deterministically.
  fs::Service service(*engine, {.shards = 1, .queue_capacity = 4, .start = false});
  std::vector<std::future<fa::Response>> accepted;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t holiday = 1 + static_cast<std::uint64_t>(i);
    accepted.push_back(service.submit(fa::IsHappyRequest{"dyn", 0, holiday}));
  }

  // The fifth request is refused synchronously: `done` has already run, once,
  // with the typed verdict by the time `handle` returns.
  int invoked = 0;
  fa::Response refused;
  service.handle(fa::IsHappyRequest{"dyn", 0, 99}, [&](fa::Response response) {
    ++invoked;
    refused = std::move(response);
  });
  ASSERT_EQ(invoked, 1);
  EXPECT_EQ(refused.status.code, fa::StatusCode::kQueueFull);
  EXPECT_EQ(refused.status.name(), "queue-full");
  EXPECT_TRUE(std::holds_alternative<std::monostate>(refused.payload));

  // The future flavor is refused the same way: already resolved, never broken.
  auto refused_future = service.submit(fa::IsHappyRequest{"dyn", 0, 99});
  ASSERT_EQ(refused_future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(refused_future.get().status.code, fa::StatusCode::kQueueFull);

  // Draining starts the worker: every *accepted* request still completes.
  service.drain();
  for (auto& pending : accepted) {
    const fa::Response response = pending.get();
    EXPECT_TRUE(response.ok()) << response.status.detail;
    EXPECT_TRUE(std::holds_alternative<fa::IsHappyResponse>(response.payload));
  }
  EXPECT_EQ(invoked, 1);
  EXPECT_EQ(stat(service, "fhg_service_accepted_total"), 4u);
  EXPECT_EQ(stat(service, "fhg_service_rejected_full_total"), 2u);
  EXPECT_EQ(stat(service, "fhg_service_queue_high_water"), 4u);
}

TEST(Service, StoppedServiceRejectsTyped) {
  auto engine = make_dynamic_single();
  fs::Service service(*engine, {.shards = 2});
  service.drain();
  EXPECT_TRUE(service.stopped());
  int invoked = 0;
  fa::Response refused;
  service.handle(fa::NextGatheringRequest{"dyn", 0, 0}, [&](fa::Response response) {
    ++invoked;
    refused = std::move(response);
  });
  ASSERT_EQ(invoked, 1);
  EXPECT_EQ(refused.status.code, fa::StatusCode::kStopped);
  EXPECT_EQ(refused.status.name(), "stopped");
  EXPECT_EQ(service.submit(fa::IsHappyRequest{"dyn", 0, 1}).get().status.code,
            fa::StatusCode::kStopped);
  EXPECT_EQ(stat(service, "fhg_service_rejected_stopped_total"), 2u);
}

TEST(Service, UnknownInstanceAndBadNodeFailPerRequest) {
  auto engine = make_dynamic_single();
  // One shard and a deferred start put all four requests in one drained
  // batch: a failing request must not poison valid ones coalesced with it.
  fs::Service service(*engine, {.shards = 1, .start = false});
  auto good = service.submit(fa::IsHappyRequest{"dyn", 0, 1});
  auto missing = service.submit(fa::IsHappyRequest{"no-such-tenant", 0, 1});
  auto bad_node = service.submit(fa::IsHappyRequest{"dyn", 1000, 1});
  auto missing_next = service.submit(fa::NextGatheringRequest{"no-such-tenant", 0, 0});
  service.start();

  const fa::Response good_response = good.get();
  ASSERT_TRUE(good_response.ok()) << good_response.status.detail;
  EXPECT_EQ(std::get<fa::IsHappyResponse>(good_response.payload).happy,
            engine->is_happy("dyn", 0, 1));
  for (auto* pending : {&missing, &missing_next}) {
    const fa::Response response = pending->get();
    EXPECT_EQ(response.status.code, fa::StatusCode::kNotFound);
    EXPECT_FALSE(response.status.detail.empty());
    EXPECT_TRUE(std::holds_alternative<std::monostate>(response.payload));
  }
  EXPECT_EQ(bad_node.get().status.code, fa::StatusCode::kInvalidArgument);
  service.drain();
  EXPECT_EQ(stat(service, "fhg_service_failed_total"), 3u);
}

// ------------------------------------------------------------ stats --------

TEST(Service, GetStatsReportsExactServiceSeriesForASerialStream) {
  auto engine = make_dynamic_single();
  // One shard and one request in flight at a time: every count below is a
  // function of the stream alone.
  fs::Service service(*engine, {.shards = 1});
  const std::vector<fa::Request> stream{
      fa::IsHappyRequest{"dyn", 0, 1},
      fa::IsHappyRequest{"dyn", 1, 2},
      fa::NextGatheringRequest{"dyn", 2, 0},
      fa::IsHappyRequest{"dyn", 1000, 1},  // bad node: fails typed
      fa::ApplyMutationsRequest{"dyn", {fd::insert_edge_command(3, 6)}},
      fa::CreateInstanceRequest{"tmp", 6, {{0, 1}, {2, 3}}, fe::InstanceSpec{}},
      fa::EraseInstanceRequest{"tmp"},
  };
  for (const fa::Request& request : stream) {
    (void)service.submit(request).get();
  }
  const fa::Response response =
      service.submit(fa::GetStatsRequest{.include_histograms = true, .include_traces = false})
          .get();
  ASSERT_TRUE(response.ok()) << response.status.detail;
  const auto& stats = std::get<fa::GetStatsResponse>(response.payload);

  struct Expected {
    std::string name;
    fo::MetricKind kind;
    std::uint64_t value;
  };
  constexpr auto kCounter = fo::MetricKind::kCounter;
  constexpr auto kGauge = fo::MetricKind::kGauge;
  constexpr auto kHistogram = fo::MetricKind::kHistogram;
  // Name order.  The GetStats request counts itself as accepted, but not as
  // admin nor in the latency histogram: both are recorded after its
  // payload was built.  Each read is a kernel run of one.
  const std::vector<Expected> expected{
      {"fhg_service_accepted_total{shard=\"0\"}", kCounter, 8},
      {"fhg_service_admin_total{shard=\"0\"}", kCounter, 2},
      {"fhg_service_batch_size{shard=\"0\"}", kHistogram, 4},
      {"fhg_service_batches_total{shard=\"0\"}", kCounter, 4},
      {"fhg_service_failed_total{shard=\"0\"}", kCounter, 1},
      {"fhg_service_latency_us{shard=\"0\"}", kHistogram, 7},
      {"fhg_service_mutations_total{shard=\"0\"}", kCounter, 1},
      {"fhg_service_next_gatherings_total{shard=\"0\"}", kCounter, 1},
      {"fhg_service_queries_total{shard=\"0\"}", kCounter, 3},
      {"fhg_service_queue_depth{shard=\"0\"}", kGauge, 0},
      {"fhg_service_queue_high_water{shard=\"0\"}", kGauge, 1},
      {"fhg_service_rejected_full_total{shard=\"0\"}", kCounter, 0},
      {"fhg_service_rejected_stopped_total{shard=\"0\"}", kCounter, 0},
  };
  std::vector<const fo::MetricSample*> service_samples;
  for (const fo::MetricSample& sample : stats.metrics) {
    if (sample.name.starts_with("fhg_service_")) {
      service_samples.push_back(&sample);
    }
  }
  ASSERT_EQ(service_samples.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const fo::MetricSample& sample = *service_samples[i];
    EXPECT_EQ(sample.name, expected[i].name);
    EXPECT_EQ(sample.kind, expected[i].kind) << sample.name;
    EXPECT_EQ(sample.value, expected[i].value) << sample.name;
  }
  // Every kernel run held one probe; the bad node never reached a kernel.
  EXPECT_EQ(service_samples[2]->histogram.buckets[fo::Histogram::bucket_of(1)], 4u);
  const auto value_of = [](const std::vector<fo::MetricSample>& samples, std::string_view name) {
    for (const fo::MetricSample& sample : samples) {
      if (sample.name == name) {
        return sample.value;
      }
    }
    ADD_FAILURE() << "no sample named " << name;
    return std::uint64_t{0};
  };
  EXPECT_EQ(value_of(stats.metrics, "fhg_engine_batches_total"), 3u);
  EXPECT_EQ(value_of(stats.metrics, "fhg_engine_batch_probes_total"), 3u);

  // Once drained, the GetStats request is counted as admin and timed too.
  service.drain();
  const std::vector<fo::MetricSample> after = service.stats({}).metrics;
  EXPECT_EQ(value_of(after, "fhg_service_accepted_total{shard=\"0\"}"), 8u);
  EXPECT_EQ(value_of(after, "fhg_service_admin_total{shard=\"0\"}"), 3u);
  EXPECT_EQ(value_of(after, "fhg_service_latency_us{shard=\"0\"}"), 8u);
}

// ------------------------------------------------------- inline reads -----
//
// A read that finds its shard idle (worker started, not draining, queue
// empty, no drained batch in progress) is served on the submitting thread;
// anything else queues and completes on the shard worker.

TEST(Service, IdleShardServesReadsOnTheSubmittingThread) {
  const fw::ScenarioSpec spec = fleet_spec(16);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  fs::Service service(*engine, {.shards = 2});
  const auto self = std::this_thread::get_id();
  std::size_t reads = 0;
  for (const fa::Request& request : generator.request_stream(200, 3)) {
    bool ran = false;
    std::thread::id thread;
    fa::Response response;
    service.handle(request, [&](fa::Response r) {
      ran = true;
      thread = std::this_thread::get_id();
      response = std::move(r);
    });
    // Nothing else is in flight, so every read finds its shard idle.
    ASSERT_TRUE(ran) << "read " << reads << " was queued";
    EXPECT_EQ(thread, self);
    if (const auto* happy = std::get_if<fa::IsHappyRequest>(&request)) {
      EXPECT_EQ(happy_of(response), engine->is_happy(happy->instance, happy->node, happy->holiday));
    } else {
      const auto& next = std::get<fa::NextGatheringRequest>(request);
      EXPECT_EQ(next_of(response),
                engine->next_gathering(next.instance, next.node, next.after)
                    .value_or(fe::kNoGathering));
    }
    ++reads;
  }
  // A bad read fails typed inline too.
  bool ran = false;
  fa::Response missing;
  service.handle(fa::IsHappyRequest{"no-such-tenant", 0, 1}, [&](fa::Response r) {
    ran = true;
    missing = std::move(r);
  });
  ASSERT_TRUE(ran);
  EXPECT_EQ(missing.status.code, fa::StatusCode::kNotFound);
  service.drain();
  EXPECT_EQ(stat(service, "fhg_service_accepted_total"), reads + 1);
  EXPECT_EQ(stat(service, "fhg_service_queries_total") +
                stat(service, "fhg_service_next_gatherings_total"),
            reads + 1);
  EXPECT_EQ(stat(service, "fhg_service_failed_total"), 1u);
  EXPECT_EQ(stat(service, "fhg_service_queue_high_water"), 0u);  // no read ever waited in a queue
}

TEST(Service, DeferredStartAndBusyShardsQueueReads) {
  auto engine = make_dynamic_single();
  const auto self = std::this_thread::get_id();

  // Deferred start: the worker has not started, so the read queues.
  {
    fs::Service service(*engine, {.shards = 1, .start = false});
    std::atomic<bool> ran{false};
    std::thread::id thread;
    service.handle(fa::IsHappyRequest{"dyn", 0, 1}, [&](fa::Response response) {
      thread = std::this_thread::get_id();
      EXPECT_EQ(happy_of(response), engine->is_happy("dyn", 0, 1));
      ran = true;
    });
    EXPECT_FALSE(ran.load());
    service.drain();
    ASSERT_TRUE(ran.load());
    EXPECT_NE(thread, self);
  }

  // Busy: the worker is serving a drained batch (blocked inside a
  // ListInstances completion), so a read queues behind it even though the
  // queue itself is empty.  A fresh engine, because the service series live
  // on the engine registry: the high-water mark below must be this
  // service's alone.
  engine = make_dynamic_single();
  fs::Service service(*engine, {.shards = 1});
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  service.handle(fa::ListInstancesRequest{}, [&entered, released](fa::Response) {
    entered.set_value();
    released.wait();
  });
  entered.get_future().wait();
  std::atomic<bool> ran{false};
  std::thread::id thread;
  service.handle(fa::NextGatheringRequest{"dyn", 2, 5}, [&](fa::Response response) {
    thread = std::this_thread::get_id();
    EXPECT_EQ(next_of(response), engine->next_gathering("dyn", 2, 5).value_or(fe::kNoGathering));
    ran = true;
  });
  EXPECT_FALSE(ran.load());
  release.set_value();
  service.drain();
  ASSERT_TRUE(ran.load());
  EXPECT_NE(thread, self);
  EXPECT_EQ(stat(service, "fhg_service_queue_high_water"), 1u);
}

TEST(Service, DrainWaitsForReadsServedInline) {
  auto engine = make_dynamic_single();
  fs::Service service(*engine, {.shards = 1});
  // A read served inline on its own thread, held inside `done`.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::thread reader([&] {
    service.handle(fa::IsHappyRequest{"dyn", 0, 1}, [&entered, released](fa::Response) {
      entered.set_value();
      released.wait();
    });
  });
  entered.get_future().wait();
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    service.drain();
    drained = true;
  });
  // Drain has stopped admission but must not return while the read runs.
  while (!service.stopped()) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service.submit(fa::IsHappyRequest{"dyn", 0, 2}).get().status.code,
            fa::StatusCode::kStopped);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  release.set_value();
  reader.join();
  drainer.join();
  EXPECT_TRUE(drained.load());
  EXPECT_EQ(stat(service, "fhg_service_queries_total"), 1u);
}

TEST(Service, ReadAdmittedBehindQueuedMutationSeesPostMutationAnswer) {
  auto engine = make_dynamic_single();
  auto twin = make_dynamic_single();
  const std::vector<fd::MutationCommand> commands{fd::insert_edge_command(3, 6),
                                                  fd::insert_edge_command(0, 4)};
  // Pre- and post-mutation answers for every (node, holiday) probed below.
  std::vector<bool> before;
  std::vector<bool> after;
  for (fg::NodeId node = 0; node < 8; ++node) {
    for (std::uint64_t holiday = 17; holiday <= 48; ++holiday) {
      before.push_back(twin->is_happy("dyn", node, holiday));
    }
  }
  (void)twin->apply_mutations("dyn", commands);
  for (fg::NodeId node = 0; node < 8; ++node) {
    for (std::uint64_t holiday = 17; holiday <= 48; ++holiday) {
      after.push_back(twin->is_happy("dyn", node, holiday));
    }
  }
  ASSERT_NE(before, after) << "the mutation must change some answer";

  // Hold the worker inside a batch so the mutation and the reads behind it
  // all queue; then release it and let the FIFO serve them in order.
  fs::Service service(*engine, {.shards = 1, .queue_capacity = 1024});
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  service.handle(fa::ListInstancesRequest{}, [&entered, released](fa::Response) {
    entered.set_value();
    released.wait();
  });
  entered.get_future().wait();
  auto mutated = service.submit(fa::ApplyMutationsRequest{"dyn", commands});
  std::vector<std::future<fa::Response>> reads;
  for (fg::NodeId node = 0; node < 8; ++node) {
    for (std::uint64_t holiday = 17; holiday <= 48; ++holiday) {
      reads.push_back(service.submit(fa::IsHappyRequest{"dyn", node, holiday}));
    }
  }
  release.set_value();
  EXPECT_EQ(mutation_of(mutated.get()).applied, commands.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    EXPECT_EQ(happy_of(reads[i].get()), after[i]) << "probe " << i;
  }
  // Once the FIFO is empty again, a fresh read is inline and still sees the
  // post-mutation schedule.
  service.drain();
  fs::Service idle(*engine, {.shards = 1});
  bool ran = false;
  fa::Response response;
  idle.handle(fa::IsHappyRequest{"dyn", 7, 48}, [&](fa::Response r) {
    ran = true;
    response = std::move(r);
  });
  ASSERT_TRUE(ran);
  EXPECT_EQ(happy_of(response), after.back());
}

// ------------------------------------------------------------ drain --------

TEST(Service, DrainCompletesEveryAcceptedRequest) {
  const fw::ScenarioSpec spec = fleet_spec(16);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  fs::Service service(*engine, {.shards = 4, .queue_capacity = 8192});
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::uint64_t rejected = 0;  // admission verdicts arrive on this thread
  const auto stream = generator.request_stream(2000, 3);
  for (const fa::Request& request : stream) {
    service.handle(request, [&](fa::Response response) {
      if (response.status.code == fa::StatusCode::kQueueFull) {
        ++rejected;
        return;
      }
      ++completed;
      failed += response.ok() ? 0 : 1;
    });
  }
  service.drain();
  const std::uint64_t accepted = stream.size() - rejected;
  EXPECT_EQ(completed.load(), accepted);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(stat(service, "fhg_service_accepted_total"), accepted);
  EXPECT_EQ(stat(service, "fhg_service_queries_total") +
                stat(service, "fhg_service_next_gatherings_total"),
            accepted);
  EXPECT_EQ(stat(service, "fhg_service_latency_us"), accepted);
  EXPECT_GE(stat(service, "fhg_service_batches_total"), 1u);
  EXPECT_EQ(stat(service, "fhg_service_batch_size"), stat(service, "fhg_service_batches_total"));
  EXPECT_EQ(stat(service, "fhg_service_failed_total"), 0u);
  // Drain is idempotent and the second call still reports stopped.
  service.drain();
  EXPECT_TRUE(service.stopped());
}

// -------------------------------------------- mutation serialization -------

TEST(Service, MutationSerializesAgainstQueriesOnOneShard) {
  auto engine = make_dynamic_single();
  auto twin = make_dynamic_single();

  // Queue Q1 → M → Q2 → M2 → Q3 on the single shard *before* starting the
  // worker, so the FIFO order is exactly the submission order.
  fs::Service service(*engine, {.shards = 1, .queue_capacity = 64, .start = false});
  const fg::NodeId node = 3;
  const std::uint64_t holiday = 12;
  const std::vector<fd::MutationCommand> first{fd::insert_edge_command(3, 6)};
  const std::vector<fd::MutationCommand> second{fd::erase_edge_command(3, 6),
                                                fd::insert_edge_command(1, 5)};
  auto q1 = service.submit(fa::IsHappyRequest{"dyn", node, holiday});
  auto m1 = service.submit(fa::ApplyMutationsRequest{"dyn", first});
  auto q2 = service.submit(fa::IsHappyRequest{"dyn", node, holiday});
  auto m2 = service.submit(fa::ApplyMutationsRequest{"dyn", second});
  auto q3 = service.submit(fa::IsHappyRequest{"dyn", node, holiday});
  service.start();
  service.drain();

  // The twin runs the identical sequence synchronously: the async pipeline
  // must observe each query at the same schedule version.
  const bool expect1 = twin->is_happy("dyn", node, holiday);
  const fe::MutationResult twin_m1 = twin->apply_mutations("dyn", first);
  const bool expect2 = twin->is_happy("dyn", node, holiday);
  const fe::MutationResult twin_m2 = twin->apply_mutations("dyn", second);
  const bool expect3 = twin->is_happy("dyn", node, holiday);

  EXPECT_EQ(happy_of(q1.get()), expect1);
  EXPECT_EQ(happy_of(q2.get()), expect2);
  EXPECT_EQ(happy_of(q3.get()), expect3);
  const fa::ApplyMutationsResponse r1 = mutation_of(m1.get());
  const fa::ApplyMutationsResponse r2 = mutation_of(m2.get());
  EXPECT_EQ(r1.applied, twin_m1.applied);
  EXPECT_EQ(r2.applied, twin_m2.applied);
  EXPECT_EQ(r1.table_version, twin_m1.table_version);
  EXPECT_EQ(r2.table_version, twin_m2.table_version);
  EXPECT_EQ(engine->find("dyn")->table_version(), twin->find("dyn")->table_version());
  EXPECT_EQ(engine->find("dyn")->mutation_log().size(),
            twin->find("dyn")->mutation_log().size());
  EXPECT_EQ(stat(service, "fhg_service_mutations_total"), 2u);
}

TEST(Service, MutatingNonDynamicInstanceFailsTyped) {
  const fw::ScenarioSpec spec = fleet_spec(4, /*aperiodic=*/0.0);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  fs::Service service(*engine, {.shards = 2});
  const fa::Response response =
      service
          .submit(fa::ApplyMutationsRequest{generator.tenant_name(0),
                                            {fd::insert_edge_command(0, 2)}})
          .get();
  EXPECT_EQ(response.status.code, fa::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------- determinism ----------

TEST(Service, AnswersMatchDirectEngineAcrossShardCounts) {
  const fw::ScenarioSpec spec = fleet_spec(32);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  const auto stream = generator.request_stream(1500, 11);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    fs::Service service(*engine, {.shards = shards, .queue_capacity = 4096});
    std::vector<std::future<fa::Response>> pending;
    pending.reserve(stream.size());
    for (const fa::Request& request : stream) {
      pending.push_back(service.submit(request));
    }
    service.drain();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const fa::Response response = pending[i].get();
      if (const auto* happy = std::get_if<fa::IsHappyRequest>(&stream[i])) {
        EXPECT_EQ(happy_of(response),
                  engine->is_happy(happy->instance, happy->node, happy->holiday))
            << shards << " shards, instance " << happy->instance;
      } else {
        const auto& next = std::get<fa::NextGatheringRequest>(stream[i]);
        EXPECT_EQ(next_of(response), engine->next_gathering(next.instance, next.node, next.after)
                                         .value_or(fe::kNoGathering))
            << shards << " shards, instance " << next.instance;
      }
    }
  }
}

TEST(Service, ConcurrentSubmittersAllComplete) {
  const fw::ScenarioSpec spec = fleet_spec(16);
  auto engine = make_fleet(spec);
  const fw::ScenarioGenerator generator(spec);
  fs::Service service(*engine, {.shards = 4, .queue_capacity = 512});
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 500;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (const fa::Request& request : generator.request_stream(kPerClient, 100 + c)) {
        for (;;) {
          // A reject is delivered before `handle` returns, on this thread.
          fa::StatusCode reject = fa::StatusCode::kOk;
          service.handle(request, [&](fa::Response response) {
            const fa::StatusCode code = response.status.code;
            if (code == fa::StatusCode::kQueueFull || code == fa::StatusCode::kStopped) {
              reject = code;
              return;
            }
            ++completed;
          });
          if (reject == fa::StatusCode::kOk) {
            ++submitted;
            break;
          }
          ASSERT_EQ(reject, fa::StatusCode::kQueueFull);  // bounded queue, not stopped
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  service.drain();
  EXPECT_EQ(submitted.load(), kClients * kPerClient);
  EXPECT_EQ(completed.load(), submitted.load());
  EXPECT_EQ(stat(service, "fhg_service_accepted_total"), submitted.load());
}

// --------------------------------------------------- request stream --------

TEST(Workload, RequestStreamIsDeterministicAndRespectsShares) {
  fw::ScenarioSpec spec = fleet_spec(32, /*aperiodic=*/0.1, /*dyn=*/0.5);
  spec.mutation = 0.2;
  const fw::ScenarioGenerator a(spec);
  const fw::ScenarioGenerator b(spec);
  const auto stream_a = a.request_stream(4000, 5);
  EXPECT_EQ(stream_a, b.request_stream(4000, 5));
  EXPECT_NE(stream_a, a.request_stream(4000, 6)) << "rounds must differ";

  // Requests are addressed by tenant name ("<family>-<slot>"); recover the
  // slot to cross-check the recipe the roll was kept for.
  const auto slot_of = [](std::string_view name) {
    return static_cast<std::size_t>(
        std::strtoull(std::string(name.substr(name.rfind('-') + 1)).c_str(), nullptr, 10));
  };
  std::size_t mutates = 0;
  std::size_t nexts = 0;
  for (const fa::Request& request : stream_a) {
    if (const auto* mutate = std::get_if<fa::ApplyMutationsRequest>(&request)) {
      const std::size_t slot = slot_of(mutate->instance);
      ASSERT_LT(slot, spec.fleet);
      // Only dynamic slots may be asked to mutate, and the commands are
      // materialized into the request itself.
      EXPECT_EQ(a.recipe(slot).kind, fe::SchedulerKind::kDynamicPrefixCode);
      EXPECT_FALSE(mutate->commands.empty());
      ++mutates;
    } else if (const auto* next = std::get_if<fa::NextGatheringRequest>(&request)) {
      ASSERT_LT(slot_of(next->instance), spec.fleet);
      ASSERT_LT(next->node, spec.nodes);
      ++nexts;
    } else {
      const auto& happy = std::get<fa::IsHappyRequest>(request);
      ASSERT_LT(slot_of(happy.instance), spec.fleet);
      ASSERT_LT(happy.node, spec.nodes);
      ASSERT_GE(happy.holiday, 1u);
    }
  }
  EXPECT_GT(mutates, 0u);
  EXPECT_GT(nexts, 0u);
  EXPECT_LT(mutates, stream_a.size() / 2);
}
