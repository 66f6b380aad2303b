#include "fhg/service/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "fhg/api/codec.hpp"
#include "fhg/engine/query_batch.hpp"

namespace fhg::service {

namespace {

/// The admission-failure detail carried in reject responses.
std::string reject_detail(api::StatusCode reject) {
  return reject == api::StatusCode::kQueueFull
             ? "the owning shard's queue is at capacity"
             : "the service is draining or has been drained";
}

/// The uniform view `flush_queries` needs of the two query kinds.
struct QueryView {
  std::string_view instance;
  graph::NodeId node = 0;
  std::uint64_t holiday = 0;  ///< queried holiday, or the `after` bound
  bool membership = false;    ///< true = IsHappy, false = NextGathering
};

QueryView view_of(const api::Request& body) {
  if (const auto* q = std::get_if<api::IsHappyRequest>(&body)) {
    return {q->instance, q->node, q->holiday, true};
  }
  const auto& n = std::get<api::NextGatheringRequest>(body);
  return {n.instance, n.node, n.after, false};
}

/// `fhg_service_<name>{shard="<index>"}`.
std::string shard_series(std::string_view name, std::size_t index) {
  return "fhg_service_" + std::string(name) + "{shard=\"" + std::to_string(index) + "\"}";
}

}  // namespace

Service::Shard::Shard(obs::Registry& metrics, std::size_t index)
    : accepted(metrics.counter(shard_series("accepted_total", index))),
      rejected_full(metrics.counter(shard_series("rejected_full_total", index))),
      rejected_stopped(metrics.counter(shard_series("rejected_stopped_total", index))),
      queries(metrics.counter(shard_series("queries_total", index))),
      next_gatherings(metrics.counter(shard_series("next_gatherings_total", index))),
      mutations(metrics.counter(shard_series("mutations_total", index))),
      admin(metrics.counter(shard_series("admin_total", index))),
      failed(metrics.counter(shard_series("failed_total", index))),
      batches(metrics.counter(shard_series("batches_total", index))),
      queue_depth(metrics.gauge(shard_series("queue_depth", index))),
      queue_high_water(metrics.gauge(shard_series("queue_high_water", index))),
      batch_size(metrics.histogram(shard_series("batch_size", index))),
      latency_us(metrics.histogram(shard_series("latency_us", index))) {}

Service::Service(engine::Engine& engine, ServiceOptions options)
    : engine_(engine), options_(options) {
  options_.shards = std::max<std::size_t>(options_.shards, 1);
  options_.queue_capacity = std::max<std::size_t>(options_.queue_capacity, 1);
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(engine_.metrics(), i));
  }
  if (options_.start) {
    start();
  }
}

Service::~Service() { drain(); }

void Service::start() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) {
    return;
  }
  started_ = true;
  for (const auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> shard_lock(shard->mutex);
      shard->running = true;
    }
    shard->worker = std::thread([this, &shard = *shard] { worker_loop(shard); });
  }
}

void Service::drain() {
  // Deferred-start services still owe completions for everything accepted:
  // bring the workers up so the backlog is served before the stop lands.
  start();
  // Joining under the lifecycle lock makes drain idempotent *and* blocking:
  // a second caller waits until the first drain has finished.  Workers never
  // take this lock, so there is no deadlock path.
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (stopped_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  for (const auto& shard : shards_) {
    {
      // The stop flag must move under the shard mutex: a worker that just
      // found the queue empty re-checks the flag before sleeping, so the
      // wakeup below cannot slip between its check and its wait.
      std::unique_lock<std::mutex> shard_lock(shard->mutex);
      shard->stop = true;
      // Reads already admitted inline finish on their callers' threads;
      // drain returns only after the last of them completed.
      shard->cv.wait(shard_lock, [&] { return shard->inline_reads == 0; });
    }
    shard->cv.notify_all();
  }
  for (const auto& shard : shards_) {
    if (shard->worker.joinable()) {
      shard->worker.join();
    }
  }
}

Service::Admission Service::admit(Shard& shard, Request& request) {
  // Stamped outside the lock: the clock read must not lengthen the critical
  // section every submitter serializes on.
  request.enqueued = Clock::now();
  const bool read = request.body.index() <= 1;  // IsHappy / NextGathering
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.stop || stopped_.load(std::memory_order_acquire)) {
      shard.rejected_stopped.increment();
      return {api::StatusCode::kStopped, nullptr};
    }
    if (shard.queue.size() >= options_.queue_capacity) {
      shard.rejected_full.increment();
      return {api::StatusCode::kQueueFull, nullptr};
    }
    shard.accepted.increment();
    if (read && shard.running && !shard.busy && shard.queue.empty()) {
      // Everything admitted to this shard before this read has been served
      // and nothing after it can be applied until the lock is released, so
      // a snapshot taken here answers exactly as the FIFO would.
      ++shard.inline_reads;
      return {std::nullopt, engine_.query_snapshot()};
    }
    wake = shard.queue.empty();
    shard.queue.push_back(std::move(request));
    shard.queue_depth.add(1);
    shard.queue_high_water.record_max(static_cast<std::int64_t>(shard.queue.size()));
  }
  if (wake) {
    // Only the empty→non-empty transition can find the worker asleep; every
    // other push happens while it is still draining earlier work.
    shard.cv.notify_one();
  }
  return {};
}

void Service::worker_loop(Shard& shard) {
  std::deque<Request> batch;
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    shard.cv.wait(lock, [&] { return shard.stop || !shard.queue.empty(); });
    if (shard.queue.empty()) {
      return;  // stop requested and nothing left: graceful exit
    }
    batch.swap(shard.queue);
    shard.queue_depth.add(-static_cast<std::int64_t>(batch.size()));
    shard.busy = true;
    lock.unlock();
    // One clock read stamps the whole drained batch: the queue span of each
    // request ends here, its serve span begins.
    const auto dequeued = Clock::now();
    for (Request& request : batch) {
      request.dequeued = dequeued;
    }
    process(shard, batch);
    batch.clear();
    lock.lock();
    shard.busy = false;
  }
}

void Service::process(Shard& shard, std::deque<Request>& batch) {
  std::vector<Request*> run;
  run.reserve(batch.size());
  // Each flush takes a fresh snapshot, so a run sees every mutation served
  // before it.
  const auto flush = [&] {
    if (!run.empty()) {
      flush_queries(shard, run, *engine_.query_snapshot());
      run.clear();
    }
  };
  for (Request& request : batch) {
    const std::size_t kind = request.body.index();
    if (kind <= 1) {  // IsHappy / NextGathering
      run.push_back(&request);
      continue;
    }
    // Mutations and lifecycle ops (Create / Erase / List / Snapshot / …)
    // keep submission order: queries queued before one are answered against
    // the state before it, queries after it against the state after it — a
    // query queued after a create of the same name observes the new tenant,
    // one queued after an erase fails typed.
    flush();
    api::Response response = kind == 2 ? serve_mutation(request) : serve_admin(request);
    finish(shard, request, std::move(response), Clock::now());
  }
  flush();
}

void Service::offer_trace(const Request& request, Clock::time_point now) {
  if (request.trace_id == 0) {
    return;
  }
  const auto us = [](Clock::duration d) {
    const auto v = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    return v > 0 ? static_cast<std::uint64_t>(v) : std::uint64_t{0};
  };
  trace_ring_.offer(obs::TraceSample{
      .trace_id = request.trace_id,
      .request_id = request.request_id,
      .kind = static_cast<std::uint8_t>(request.body.index()),
      .queue_us = us(request.dequeued - request.enqueued),
      .serve_us = us(now - request.dequeued),
      .total_us = us(now - request.enqueued)});
}

void Service::finish(Shard& shard, Request& request, api::Response response,
                     Clock::time_point now) {
  // Counted before `done` runs, so whoever holds the response sees it
  // counted.  A GetStats built its payload before this point and so counts
  // itself in `accepted` only.
  const std::size_t kind = request.body.index();
  (kind == 0   ? shard.queries
   : kind == 1 ? shard.next_gatherings
   : kind == 2 ? shard.mutations
               : shard.admin)
      .increment();
  if (!response.ok()) {
    shard.failed.increment();
  }
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
      now - request.enqueued);
  shard.latency_us.record(static_cast<std::uint64_t>(waited.count()));
  offer_trace(request, now);
  if (request.done) {
    request.done(std::move(response));
  }
}

void Service::flush_queries(Shard& shard, std::span<Request* const> run,
                            const engine::QuerySnapshot& snapshot) {
  shard.batches.increment();
  shard.batch_size.record(run.size());
  // Resolve and validate each request individually, so one unknown instance
  // or out-of-range node fails that request alone instead of poisoning the
  // whole coalesced batch (the kernels throw on any invalid probe).
  std::vector<engine::Probe> member_probes;
  std::vector<Request*> member_requests;
  std::vector<engine::Probe> next_probes;
  std::vector<Request*> next_requests;
  for (Request* request : run) {
    const QueryView view = view_of(request->body);
    const auto id = snapshot.id_of(view.instance);
    if (!id) {
      finish(shard, *request,
             api::Response::error(api::StatusCode::kNotFound,
                                  "no instance named '" + std::string(view.instance) + "'"),
             Clock::now());
      continue;
    }
    if (view.node >= snapshot.num_nodes(*id)) {
      finish(shard, *request,
             api::Response::error(api::StatusCode::kInvalidArgument,
                                  "node " + std::to_string(view.node) +
                                      " out of range for instance '" +
                                      std::string(view.instance) + "'"),
             Clock::now());
      continue;
    }
    const engine::Probe probe{.instance = *id, .node = view.node, .holiday = view.holiday};
    if (view.membership) {
      member_probes.push_back(probe);
      member_requests.push_back(request);
    } else {
      next_probes.push_back(probe);
      next_requests.push_back(request);
    }
  }
  // A batch kernel can fail as a whole (e.g. an aperiodic tenant hitting its
  // replay limit).  Fall back to serving each request singly via the engine
  // so only the offenders fail — with the exception type mapped to the
  // protocol's status vocabulary.
  const auto single_status = [](const std::exception& e) {
    if (dynamic_cast<const std::out_of_range*>(&e) != nullptr) {
      // Pre-validation passed against the snapshot, so an out-of-range here
      // means the tenant vanished between snapshot and fallback.
      return api::Status::error(api::StatusCode::kNotFound, e.what());
    }
    if (dynamic_cast<const std::runtime_error*>(&e) != nullptr) {
      return api::Status::error(api::StatusCode::kResourceExhausted, e.what());
    }
    return api::Status::error(api::StatusCode::kInternal, e.what());
  };
  // Runs `kernel` on the held snapshot and counts it on the engine, as
  // Engine::query_batch would: the kernel's own time, start to return (or
  // throw).  Returns whether it succeeded and the end stamp, which also
  // completes the requests.
  const auto run_kernel = [&](std::size_t probes, const auto& kernel) {
    const auto start = Clock::now();
    bool batched = true;
    try {
      kernel();
    } catch (const std::exception&) {
      batched = false;
    }
    const auto now = Clock::now();
    engine_.record_kernel(probes, now - start);
    return std::pair{batched, now};
  };
  if (!member_probes.empty()) {
    std::vector<std::uint8_t> answers(member_probes.size());
    const auto [batched, now] = run_kernel(
        member_probes.size(), [&] { snapshot.query_batch(member_probes, answers); });
    for (std::size_t i = 0; i < member_requests.size(); ++i) {
      Request& request = *member_requests[i];
      try {
        const QueryView view = view_of(request.body);
        const bool happy = batched ? answers[i] != 0
                                   : engine_.is_happy(view.instance, view.node, view.holiday);
        finish(shard, request, {api::Status::good(), api::IsHappyResponse{happy}}, now);
      } catch (const std::exception& single) {
        finish(shard, request, {single_status(single), {}}, now);
      }
    }
  }
  if (!next_probes.empty()) {
    std::vector<std::uint64_t> answers(next_probes.size());
    const auto [batched, now] = run_kernel(
        next_probes.size(), [&] { snapshot.next_gathering_batch(next_probes, answers); });
    for (std::size_t i = 0; i < next_requests.size(); ++i) {
      Request& request = *next_requests[i];
      try {
        const QueryView view = view_of(request.body);
        const std::uint64_t next =
            batched ? answers[i]
                    : engine_.next_gathering(view.instance, view.node, view.holiday)
                          .value_or(engine::kNoGathering);
        finish(shard, request, {api::Status::good(), api::NextGatheringResponse{next}}, now);
      } catch (const std::exception& single) {
        finish(shard, request, {single_status(single), {}}, now);
      }
    }
  }
}

api::Response Service::serve_mutation(Request& request) {
  auto& mutate = std::get<api::ApplyMutationsRequest>(request.body);
  api::Response response;
  try {
    const engine::MutationResult result = engine_.apply_mutations(mutate.instance, mutate.commands);
    response.payload =
        api::ApplyMutationsResponse{result.applied, result.recolors, result.table_version};
  } catch (const std::out_of_range& e) {
    response = api::Response::error(api::StatusCode::kNotFound, e.what());
  } catch (const std::invalid_argument& e) {
    response = api::Response::error(api::StatusCode::kInvalidArgument, e.what());
  } catch (const std::logic_error& e) {
    // Engine::apply_mutations throws logic_error for non-dynamic tenants.
    response = api::Response::error(api::StatusCode::kFailedPrecondition, e.what());
  } catch (const std::exception& e) {
    response = api::Response::error(api::StatusCode::kInternal, e.what());
  }
  return response;
}

api::Response Service::serve_admin(Request& request) {
  api::Response response;
  if (auto* create = std::get_if<api::CreateInstanceRequest>(&request.body)) {
    try {
      graph::Graph g = graph::Graph::from_edges(create->nodes, create->edges);
      api::Status status = engine_.try_create_instance(std::move(create->instance),
                                                       std::move(g), std::move(create->spec));
      if (status.ok()) {
        response.payload = api::CreateInstanceResponse{};
      }
      response.status = std::move(status);
    } catch (const std::invalid_argument& e) {
      // Graph::from_edges rejects self-loops and out-of-range endpoints.
      response = api::Response::error(api::StatusCode::kInvalidArgument, e.what());
    } catch (const std::bad_alloc&) {
      // The codec admits node counts up to the NodeId range; a request
      // asking for a graph this machine cannot hold must fail typed, not
      // escape the shard worker and terminate the server.
      response = api::Response::error(api::StatusCode::kResourceExhausted,
                                      "instance too large to allocate");
    } catch (const std::exception& e) {
      response = api::Response::error(api::StatusCode::kInternal, e.what());
    }
  } else if (const auto* erase = std::get_if<api::EraseInstanceRequest>(&request.body)) {
    api::Status status = engine_.erase_instance(erase->instance);
    if (status.ok()) {
      response.payload = api::EraseInstanceResponse{};
    }
    response.status = std::move(status);
  } else if (std::holds_alternative<api::ListInstancesRequest>(request.body)) {
    api::ListInstancesResponse list;
    const auto instances = engine_.registry().all_sorted();
    list.instances.reserve(instances.size());
    for (const auto& instance : instances) {
      list.instances.push_back(api::InstanceInfo{.name = instance->name(),
                                                 .kind = instance->spec().kind,
                                                 .nodes = instance->num_nodes(),
                                                 .periodic = instance->periodic(),
                                                 .dynamic = instance->dynamic()});
    }
    response.payload = std::move(list);
  } else if (std::holds_alternative<api::SnapshotRequest>(request.body)) {
    try {
      response.payload = api::SnapshotResponse{engine_.snapshot()};
    } catch (const std::exception& e) {
      response = api::Response::error(api::StatusCode::kInternal, e.what());
    }
  } else if (const auto* get_stats = std::get_if<api::GetStatsRequest>(&request.body)) {
    try {
      response.payload = stats(*get_stats);
    } catch (const std::exception& e) {
      response = api::Response::error(api::StatusCode::kInternal, e.what());
    }
  } else if (std::holds_alternative<api::RecoverInfoRequest>(request.body)) {
    api::RecoverInfoResponse info;
    if (const engine::WalSink* sink = engine_.wal_sink()) {
      const engine::WalSinkStats stats = sink->stats();
      info.wal_enabled = true;
      info.last_durable_holiday = stats.last_durable_holiday;
      info.wal_bytes = stats.wal_bytes;
      info.segments = stats.segments;
      info.appends = stats.appends;
      info.fsyncs = stats.fsyncs;
      info.compactions = stats.compactions;
      info.replayed_batches = stats.replayed_batches;
      info.replayed_commands = stats.replayed_commands;
      info.skipped_batches = stats.skipped_batches;
      info.torn_bytes = stats.torn_bytes;
    }
    // Served with or without a WAL: the applied-batch count is the sequence
    // point a deterministic mutation driver resumes from after a crash.
    for (const auto& instance : engine_.registry().all_sorted()) {
      info.durable_batches += instance->batch_count();
    }
    response.payload = info;
  } else if (std::holds_alternative<api::HelloRequest>(request.body)) {
    response.payload = api::HelloResponse{.backend = options_.backend_id,
                                          .min_version = api::kMinSupportedVersion,
                                          .max_version = api::kProtocolVersion};
  } else if (const auto* snap_one = std::get_if<api::SnapshotInstanceRequest>(&request.body)) {
    api::SnapshotInstanceResponse payload;
    api::Status status = engine_.snapshot_instance(snap_one->instance, payload.bytes);
    if (status.ok()) {
      response.payload = std::move(payload);
    }
    response.status = std::move(status);
  } else if (auto* adopt = std::get_if<api::RestoreInstanceRequest>(&request.body)) {
    bool replaced = false;
    api::Status status = engine_.adopt_instance(adopt->bytes, adopt->instance, &replaced);
    if (status.ok()) {
      response.payload = api::RestoreInstanceResponse{replaced};
    }
    response.status = std::move(status);
  } else if (std::holds_alternative<api::DrainBackendRequest>(request.body)) {
    // Drain is a router verb: it reshapes a ring this process is merely a
    // member of.  Answer typed so a misrouted client learns it dialed a
    // backend, not the router.
    response = api::Response::error(api::StatusCode::kFailedPrecondition,
                                    "drain-backend addresses a cluster router; this is a "
                                    "backend ('" +
                                        options_.backend_id + "')");
  } else {
    const auto& restore = std::get<api::RestoreRequest>(request.body);
    try {
      engine_.load_snapshot(restore.bytes);
      response.payload = api::RestoreResponse{engine_.num_instances()};
    } catch (const std::exception& e) {
      // restore_registry parses the whole stream before touching the
      // registry, so a malformed snapshot leaves the old tenancy in place.
      response = api::Response::error(api::StatusCode::kInvalidArgument, e.what());
    }
  }
  return response;
}

void Service::handle(api::Request request, api::ResponseCallback done) {
  handle(std::move(request), api::RequestContext{}, std::move(done));
}

void Service::handle(api::Request request, const api::RequestContext& context,
                     api::ResponseCallback done) {
  Request internal{.body = std::move(request),
                   .trace_id = context.trace_id,
                   .request_id = context.request_id,
                   .done = std::move(done)};
  Shard& shard = *shards_[shard_of(api::routing_instance(internal.body))];
  const Admission admission = admit(shard, internal);
  if (admission.reject) {
    // The unified contract: rejects are typed responses too, delivered
    // synchronously on the submitting thread.
    if (internal.done) {
      internal.done(api::Response::error(*admission.reject, reject_detail(*admission.reject)));
    }
    return;
  }
  if (admission.snapshot) {
    // An idle shard's read: served here, through the same kernel path the
    // worker uses, with no queue wait.
    internal.dequeued = internal.enqueued;
    Request* const run[] = {&internal};
    flush_queries(shard, run, *admission.snapshot);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (--shard.inline_reads == 0 && shard.stop) {
      shard.cv.notify_all();  // a drain is waiting for this read
    }
  }
}

std::future<api::Response> Service::submit(api::Request request) {
  auto promise = std::make_shared<std::promise<api::Response>>();
  std::future<api::Response> future = promise->get_future();
  handle(std::move(request),
         [promise](api::Response response) { promise->set_value(std::move(response)); });
  return future;
}

api::GetStatsResponse Service::stats(const api::GetStatsRequest& options) const {
  engine_.refresh_gauges();
  api::GetStatsResponse out;
  out.metrics = engine_.metrics().snapshot();  // already sorted by name
  if (!options.include_histograms) {
    std::erase_if(out.metrics, [](const obs::MetricSample& sample) {
      return sample.kind == obs::MetricKind::kHistogram;
    });
  }
  if (options.include_traces) {
    out.traces = trace_ring_.snapshot();
  }
  return out;
}

}  // namespace fhg::service
