#pragma once

/// \file service.hpp
/// The sharded asynchronous request pipeline over `fhg::engine` — the
/// production implementation of the `fhg::api` protocol.
///
/// `Engine` answers queries synchronously on the caller's thread; the fast
/// path is the *batched* one (`query_batch` amortizes snapshot access and
/// streams each period table with locality), but a front-end receiving one
/// request at a time cannot use it directly.  `Service` closes that gap: it
/// owns N shards, each with a bounded MPSC request queue and one worker
/// thread that drains whatever has accumulated and coalesces it into
/// `QuerySnapshot::query_batch` / `next_gathering_batch` calls — so callers
/// submitting single requests transparently get batched throughput.  A read
/// that finds its shard idle skips the queue and runs the same kernel call
/// on the submitting thread (see `handle`), so a lone request pays no
/// thread hand-off.
///
/// The service executes every `api::Request` kind (it implements
/// `api::Handler`, which is what the in-process and socket transports are
/// written against).  Requests that address an instance are routed to a
/// shard by name hash (`std::hash<std::string_view>`, the same function
/// `InstanceRegistry` shards by), which gives the pipeline its ordering
/// unit: *everything* about one instance — queries, mutations, and since
/// this revision the lifecycle operations `CreateInstance`/`EraseInstance`
/// too — lands in one queue and serializes in submission order.  A query
/// submitted after a create of the same name observes the new tenant; after
/// an erase, a typed `kNotFound`.  Tenancy-wide requests (`ListInstances`,
/// `Snapshot`, `Restore`) route to shard 0 and serialize only with shard-0
/// traffic; the engine's own locking keeps them safe against the rest.
///
/// Admission control is a bounded queue with a typed verdict folded into
/// the protocol's status model: when a shard is at capacity a submission
/// reports `api::StatusCode::kQueueFull` immediately (backpressure the
/// caller can act on) instead of blocking or buffering without bound, and a
/// draining service reports `kStopped`.  `drain()` stops admission,
/// completes everything already accepted, and joins the workers; the
/// destructor drains too.
///
/// Metrics live on the engine's registry (`engine.metrics()`), the one
/// store `GetStats` and `/metrics` read: each shard registers its
/// `fhg_service_*{shard="i"}` counters, gauges and histograms there at
/// construction and records into them directly.  The series are therefore
/// per engine, like every other `fhg_*` series: every serving stack
/// (`fhg_serve`, servebench, router backends) runs one `Service` per
/// `Engine`, and two services built on one engine add into the same series.
///
/// ```
/// fhg::service::Service service(engine, {.shards = 4});
/// service.handle(fhg::api::IsHappyRequest{"acme", 7, 123456789},
///                [](fhg::api::Response response) {
///                  if (response.ok()) { /* typed payload */ }
///                });
/// auto pending = service.submit(fhg::api::NextGatheringRequest{"acme", 7, 0});
/// fhg::api::Response next = pending.get();  // rejects arrive typed too
/// service.drain();                          // graceful shutdown
/// ```

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fhg/api/handler.hpp"
#include "fhg/api/protocol.hpp"
#include "fhg/api/status.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/obs/trace.hpp"

namespace fhg::service {

/// Construction-time sizing of a `Service`.
struct ServiceOptions {
  std::size_t shards = 4;             ///< shard (worker/queue) count, min 1
  std::size_t queue_capacity = 4096;  ///< per-shard admission bound, min 1
  /// Spawn the shard workers in the constructor.  `false` defers to
  /// `start()`: submissions are admitted (up to capacity) but nothing is
  /// served — useful for tests that need a deterministically full queue.
  bool start = true;
  /// Identity this process reports in the `Hello` handshake (protocol v2).
  /// The cluster router matches it against its configured backend names;
  /// empty is fine for single-process serving.
  std::string backend_id = {};
};

/// The sharded asynchronous serving front-end.  Thread-safe: any thread may
/// submit; each accepted request's callback runs exactly once — on the
/// submitting thread for a read served inline (see `handle`), otherwise on
/// its shard's worker, including during `drain()`.
class Service : public api::Handler {
 public:
  /// Builds the front-end over `engine` (not owned; must outlive the
  /// service) and, unless `options.start` is false, spawns one worker
  /// thread per shard.
  explicit Service(engine::Engine& engine, ServiceOptions options = {});

  /// Drains: refuses new work, completes accepted work, joins workers.
  ~Service() override;

  Service(const Service&) = delete;             ///< non-copyable (owns threads)
  Service& operator=(const Service&) = delete;  ///< non-assignable

  /// The options the service was built with (after clamping to minimums).
  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }

  /// Number of shards (== worker threads once started).
  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }

  /// The shard `instance` routes to: `std::hash<std::string_view>` modulo
  /// the shard count — the same hash `InstanceRegistry` shards by, so one
  /// instance's requests always serialize through one queue.  Tenancy-wide
  /// requests (empty routing key) go to shard 0.
  [[nodiscard]] std::size_t shard_of(std::string_view instance) const noexcept {
    return instance.empty() ? 0 : std::hash<std::string_view>{}(instance) % shards_.size();
  }

  /// Spawns the shard workers if they are not running yet (no-op when the
  /// service was constructed with `options.start == true`).
  void start();

  /// Graceful shutdown: stops admission (subsequent submissions report
  /// `kStopped`), serves every request already accepted — waiting for reads
  /// being served inline on other threads too — then joins the workers.
  /// Starts them first if the service never started, so deferred-start
  /// services still complete their backlog.  Idempotent.
  void drain();

  /// True once `drain()` has begun: new submissions will be refused.
  [[nodiscard]] bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }

  // -- The protocol entry point (api::Handler) --------------------------------

  /// Executes any `api::Request` in the owning shard's FIFO order and
  /// completes `done` with a typed `api::Response` — including admission
  /// failures, which arrive as `kQueueFull`/`kStopped` responses invoked
  /// synchronously on the calling thread.
  ///
  /// A read (`IsHappy`/`NextGathering`) is served inline, with `done`
  /// invoked on the calling thread before `handle` returns, when its shard
  /// is idle: the worker has started, the shard is not draining, its queue
  /// is empty and no drained batch is being served.  Those four facts are
  /// checked under the shard mutex, and the read's `QuerySnapshot` is taken
  /// under it too: every request admitted to the shard earlier has then been
  /// fully served, and none admitted later can run before the lock is
  /// released, so the inline answer is the one the FIFO would give.  Every
  /// other request — mutations, lifecycle and tenancy-wide kinds, and reads
  /// behind queued or in-progress work — queues, and `done` runs on the
  /// shard worker.  Either way `done` must not re-enter the service with a
  /// blocking wait.
  void handle(api::Request request, api::ResponseCallback done) override;

  /// Context-carrying flavor of `handle`, invoked by the transports: stamps
  /// the request's trace id so the per-stage span clocks (queue wait, serve
  /// time, end-to-end) land in the slowest-trace ring when it is nonzero.
  void handle(api::Request request, const api::RequestContext& context,
              api::ResponseCallback done) override;

  /// Future flavor of `handle`: always yields a response (rejects included,
  /// as typed statuses — the future never holds a broken promise).
  [[nodiscard]] std::future<api::Response> submit(api::Request request);

  /// Builds the full stats snapshot `GetStats` serves: the engine registry,
  /// service series included (`fhg_service_accepted_total{shard="0"}` …),
  /// sorted by name with its gauges refreshed first; plus the slowest-trace
  /// ring.  A request is counted as it completes, before its callback runs,
  /// so a `GetStats` response counts itself in `accepted` only.
  /// `options.include_histograms` / `options.include_traces` drop the
  /// timing-dependent parts, leaving a snapshot that is a deterministic
  /// function of the served workload — the transport-equivalence tests
  /// compare those byte for byte.  Thread-safe; also callable directly
  /// (bypassing the queue) by exposition endpoints.
  [[nodiscard]] api::GetStatsResponse stats(const api::GetStatsRequest& options) const;

  /// The ring of slowest traced requests observed so far.
  [[nodiscard]] const obs::TraceRing& traces() const noexcept { return trace_ring_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    api::Request body;  ///< the typed request; the variant index is the kind
    std::uint64_t trace_id = 0;    ///< nonzero = report spans to the trace ring
    std::uint64_t request_id = 0;  ///< wire request id (0 when not from a transport)
    Clock::time_point enqueued{};  ///< admission time (span start)
    Clock::time_point dequeued{};  ///< when the worker drained it (queue span end)
    api::ResponseCallback done;    ///< invoked exactly once with the response
  };

  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<Request> queue;
    bool stop = false;     ///< set under `mutex` by drain()
    bool running = false;  ///< set under `mutex` once start() spawned the worker
    bool busy = false;     ///< under `mutex`: the worker is serving a drained batch
    std::size_t inline_reads = 0;  ///< under `mutex`: admitted inline, not yet completed
    std::thread worker;

    /// Registers shard `index`'s series on `metrics` (the engine registry),
    /// each named `fhg_service_<name>{shard="index"}`.
    Shard(obs::Registry& metrics, std::size_t index);
    obs::Counter& accepted;          ///< admitted (queued or served inline)
    obs::Counter& rejected_full;     ///< refused: queue at capacity
    obs::Counter& rejected_stopped;  ///< refused: service draining/stopped
    obs::Counter& queries;           ///< membership requests completed
    obs::Counter& next_gatherings;   ///< next-gathering requests completed
    obs::Counter& mutations;         ///< mutation batches completed
    obs::Counter& admin;             ///< lifecycle / tenancy-wide requests completed
    obs::Counter& failed;            ///< requests completed with an error
    obs::Counter& batches;           ///< coalesced kernel runs (`flush_queries` calls)
    /// Live queue depth: +1 per admit and −batch per drain, both while the
    /// shard mutex is already held.
    obs::Gauge& queue_depth;
    obs::Gauge& queue_high_water;    ///< deepest queue observed
    obs::HistogramCell& batch_size;  ///< requests per coalesced run
    obs::HistogramCell& latency_us;  ///< admission→completion latency (µs)
  };

  /// The verdict of `admit`: a typed reject, a snapshot to serve an idle
  /// shard's read inline with, or neither (the request was queued).
  struct Admission {
    std::optional<api::StatusCode> reject;
    std::shared_ptr<const engine::QuerySnapshot> snapshot;
  };

  /// Admission to `shard` (the request's owner): reject typed when stopped
  /// or full, admit a read inline when the shard is idle (see `handle`),
  /// otherwise enqueue and wake the worker if it may be sleeping.
  /// `request` is consumed only when queued — on a reject or an inline
  /// admission the caller keeps it.
  Admission admit(Shard& shard, Request& request);

  /// Per-shard worker: drain the queue, coalesce query runs into batch
  /// calls, serialize mutations and admin requests between them; exit once
  /// stopped and empty.
  void worker_loop(Shard& shard);

  /// Serves one of `shard`'s drained batches in submission order.
  void process(Shard& shard, std::deque<Request>& batch);

  /// Coalesces `run` (query requests of `shard` only, non-empty) into
  /// batched calls on `snapshot` — the one read path of the queued and the
  /// inline reads.
  void flush_queries(Shard& shard, std::span<Request* const> run,
                     const engine::QuerySnapshot& snapshot);

  /// Applies one mutation request through the engine.
  api::Response serve_mutation(Request& request);

  /// Serves one lifecycle / tenancy-wide request (`CreateInstance`,
  /// `EraseInstance`, `ListInstances`, `Snapshot`, `Restore`, …) through the
  /// engine's typed entry points.
  api::Response serve_admin(Request& request);

  /// Completes `request` with `response` as of `now`: counts it on
  /// `shard` by kind (and as failed, if `response` is an error), records its
  /// latency, then runs its callback.
  void finish(Shard& shard, Request& request, api::Response response, Clock::time_point now);

  /// Offers a completed traced request's spans to the slowest-trace ring
  /// (no-op when `request.trace_id` is zero).
  void offer_trace(const Request& request, Clock::time_point now);

  engine::Engine& engine_;
  ServiceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::TraceRing trace_ring_;  ///< slowest traced requests, fleet-wide
  std::mutex lifecycle_mutex_;  ///< serializes start()/drain()
  bool started_ = false;        ///< guarded by lifecycle_mutex_
  std::atomic<bool> stopped_{false};
};

}  // namespace fhg::service
