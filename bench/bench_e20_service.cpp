// E20 — the sharded asynchronous service pipeline vs the direct synchronous
// query path (google-benchmark; emits machine-readable JSON for the CI perf
// gate).
//
// The same deterministic `fhg::workload` request stream served two ways over
// an identical 10k-tenant fleet:
//
//   direct     — the pre-service caller pattern: one thread issuing
//                `Engine::is_happy` / `Engine::next_gathering` per request,
//                paying a registry hash + shard mutex + shared_ptr bump on
//                every probe;
//   service-N  — `fhg::service::Service` with N shards: client threads
//                submit single name-addressed requests through
//                `Service::handle` (bounded closed-loop window), shard
//                workers drain their queues and coalesce whatever accumulated into
//                `QuerySnapshot::query_batch` / `next_gathering_batch`
//                calls — single-request callers transparently riding the
//                batched lock-free read path.
//
// The acceptance configuration (10k-tenant power-law fleet, 64k-request
// stream) requires `service-4` to beat `direct` by >= 2x
// (tools/check_bench.py enforces this from the JSON output; the checked-in
// baseline gates regressions).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fhg/api/protocol.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/service/service.hpp"
#include "fhg/workload/scenario.hpp"

namespace {

using namespace fhg;

constexpr std::size_t kStreamLength = 65'536;  ///< requests per iteration
/// Load-generator threads.  Two, deliberately: submit capacity already
/// exceeds the worker-side bottleneck, and on 4-vCPU CI runners fewer
/// client threads leave the cores to the shard workers being measured.
constexpr std::size_t kClients = 2;
constexpr std::size_t kWindow = 2048;          ///< outstanding requests per client

/// One fully built fleet plus the prebuilt request stream (name-addressed
/// `api::Request` values), shared by every strategy so they serve an
/// identical workload.  The acceptance stream is query-only, so each
/// request is either `IsHappyRequest` or `NextGatheringRequest`.
struct Fleet {
  explicit Fleet(const workload::ScenarioSpec& spec) : generator(spec) {
    engine = std::make_unique<engine::Engine>(engine::EngineOptions{.shards = 64, .threads = 0});
    generator.populate(*engine);
    requests = generator.request_stream(kStreamLength, 0);
  }

  workload::ScenarioGenerator generator;
  std::unique_ptr<engine::Engine> engine;
  std::vector<api::Request> requests;
};

Fleet& fleet_for(const std::string& scenario) {
  static std::map<std::string, std::unique_ptr<Fleet>> cache;
  auto& slot = cache[scenario];
  if (!slot) {
    const auto spec = workload::parse_scenario(scenario);
    if (!spec) {
      throw std::invalid_argument("bench_e20: bad scenario '" + scenario + "'");
    }
    slot = std::make_unique<Fleet>(*spec);
  }
  return *slot;
}

/// The single-threaded synchronous query loop: what a front-end without the
/// service layer would do per request.
void BM_Direct(benchmark::State& state, const std::string& scenario) {
  Fleet& fleet = fleet_for(scenario);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (const api::Request& request : fleet.requests) {
      if (const auto* next = std::get_if<api::NextGatheringRequest>(&request)) {
        hits += fleet.engine->next_gathering(next->instance, next->node, next->after)
                    .value_or(engine::kNoGathering) != engine::kNoGathering;
      } else {
        const auto& happy = std::get<api::IsHappyRequest>(request);
        hits += fleet.engine->is_happy(happy.instance, happy.node, happy.holiday);
      }
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * fleet.requests.size()));
}

/// One client's closed-loop state.  Completions capture only a pointer to
/// it, so each callback fits `std::function`'s inline buffer and submitting
/// allocates nothing beyond the request itself.
struct Window {
  std::atomic<std::uint64_t> outstanding{0};
  std::atomic<std::uint64_t>* failures = nullptr;
  bool queue_full = false;  ///< set by a synchronous kQueueFull reject
};

/// The asynchronous pipeline: kClients submitter threads, `shards` workers
/// coalescing.  Failures abort (the stream is valid by construction).
void BM_Service(benchmark::State& state, const std::string& scenario, std::size_t shards) {
  Fleet& fleet = fleet_for(scenario);
  for (auto _ : state) {
    service::Service service(*fleet.engine,
                             {.shards = shards, .queue_capacity = 4 * kWindow * kClients});
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Contiguous slice per client; the last client absorbs the remainder.
        const std::size_t per_client = fleet.requests.size() / kClients;
        const std::size_t begin = c * per_client;
        const std::size_t end = c + 1 == kClients ? fleet.requests.size() : begin + per_client;
        Window window{.failures = &failures};
        for (std::size_t i = begin; i < end; ++i) {
          const api::Request& request = fleet.requests[i];
          while (window.outstanding.load(std::memory_order_acquire) >= kWindow) {
            std::this_thread::yield();
          }
          window.outstanding.fetch_add(1, std::memory_order_acq_rel);
          for (;;) {
            // A kQueueFull reject is delivered synchronously, before
            // `handle` returns; accepted requests complete on a shard worker.
            window.queue_full = false;
            service.handle(request, [w = &window](api::Response response) {
              if (response.status.code == api::StatusCode::kQueueFull) {
                w->queue_full = true;
                return;
              }
              if (!response.ok()) {
                w->failures->fetch_add(1, std::memory_order_relaxed);
              }
              w->outstanding.fetch_sub(1, std::memory_order_acq_rel);
            });
            if (!window.queue_full) {
              break;
            }
            std::this_thread::yield();  // backpressure: retry in closed loop
          }
        }
        while (window.outstanding.load(std::memory_order_acquire) > 0) {
          std::this_thread::yield();
        }
      });
    }
    for (std::thread& client : clients) {
      client.join();
    }
    service.drain();
    if (failures.load() != 0) {
      state.SkipWithError("service request failed on a valid stream");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * fleet.requests.size()));
}

/// Acceptance configuration: 10k periodic tenants, query-only stream.
const char* kAcceptance = "power-law:fleet=10000,nodes=48,aperiodic=0,horizon=1024";

void register_all() {
  // Wall-clock rates: the service strategies do their work on shard workers
  // and client threads, so main-thread CPU time would wildly overstate them.
  benchmark::RegisterBenchmark("direct/acceptance-10k", [](benchmark::State& s) {
    BM_Direct(s, kAcceptance);
  })->UseRealTime();
  for (const std::size_t shards : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark(("service-" + std::to_string(shards) + "/acceptance-10k").c_str(),
                                 [shards](benchmark::State& s) {
                                   BM_Service(s, kAcceptance, shards);
                                 })
        ->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
