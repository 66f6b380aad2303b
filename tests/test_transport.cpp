// Tests for the transport layer: one protocol, two transports.  The seeded
// workload request stream must produce byte-identical response frames
// through the in-process transport and a real TCP loopback socket; lifecycle
// operations serialize through the owning shard's FIFO; every failure mode
// surfaces as a typed status through the Client.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "fhg/api/client.hpp"
#include "fhg/api/codec.hpp"
#include "fhg/api/protocol.hpp"
#include "fhg/api/socket.hpp"
#include "fhg/api/transport.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/graph/generators.hpp"
#include "fhg/obs/format.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/service/service.hpp"
#include "fhg/workload/scenario.hpp"

namespace fa = fhg::api;
namespace fe = fhg::engine;
namespace fg = fhg::graph;
namespace fs = fhg::service;
namespace fw = fhg::workload;

namespace {

fw::ScenarioSpec mixed_spec() {
  fw::ScenarioSpec spec;
  spec.family = fw::GraphFamily::kPowerLaw;
  spec.fleet = 24;
  spec.nodes = 12;
  spec.seed = 11;
  spec.horizon = 128;
  spec.aperiodic = 0.2;
  spec.dynamic_share = 0.4;
  spec.mutation = 0.2;
  return spec;
}

std::unique_ptr<fe::Engine> make_fleet(const fw::ScenarioSpec& spec) {
  auto engine = std::make_unique<fe::Engine>(fe::EngineOptions{.shards = 8, .threads = 2});
  fw::ScenarioGenerator(spec).populate(*engine);
  (void)engine->step_all(24);
  return engine;
}

/// The lifecycle coda appended to equivalence streams: every admin kind,
/// including a typed failure (the second erase).
std::vector<fa::Request> admin_cycle(const std::string& name) {
  return {
      fa::CreateInstanceRequest{name, 8, {{0, 1}, {1, 2}, {2, 3}}, fe::InstanceSpec{}},
      fa::IsHappyRequest{name, 1, 3},
      fa::NextGatheringRequest{name, 2, 0},
      fa::ListInstancesRequest{},
      fa::SnapshotRequest{},
      fa::EraseInstanceRequest{name},
      fa::EraseInstanceRequest{name},  // second erase: typed kNotFound
  };
}

/// A TCP client below `SocketTransport`: raw sends with caller-chosen
/// boundaries and pacing, so tests can place frame splits exactly where the
/// event loop must reassemble them — and *not* read, to provoke
/// backpressure.  `SocketTransport` can do neither (it always ships whole
/// frames and reads every reply).
class RawClient {
 public:
  RawClient(const std::string& host, std::uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    if (rcvbuf_bytes > 0) {
      // Must be set before connect so the advertised window is small from
      // the SYN onward — the knob the backpressure test turns.
      (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawClient() { close(); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_all(std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed: " << errno;
      sent += static_cast<std::size_t>(n);
    }
  }

  void recv_exact(std::uint8_t* out, std::size_t want) {
    std::size_t got = 0;
    while (got < want) {
      const ssize_t n = ::recv(fd_, out + got, want - got, 0);
      ASSERT_GT(n, 0) << "peer closed or errored mid-read: " << errno;
      got += static_cast<std::size_t>(n);
    }
  }

  /// Reads one complete frame (header + payload) off the stream.
  std::vector<std::uint8_t> recv_frame() {
    std::vector<std::uint8_t> frame(fa::kFrameHeaderBytes);
    recv_exact(frame.data(), frame.size());
    const std::size_t payload = (std::size_t{frame[4]} << 24) | (std::size_t{frame[5]} << 16) |
                                (std::size_t{frame[6]} << 8) | std::size_t{frame[7]};
    frame.resize(fa::kFrameHeaderBytes + payload);
    recv_exact(frame.data() + fa::kFrameHeaderBytes, payload);
    return frame;
  }

 private:
  int fd_ = -1;
};

std::uint64_t global_counter(std::string_view name) {
  return fhg::obs::Registry::global().counter(name).value();
}

}  // namespace

// ----------------------------------------------- transport equivalence -----

TEST(Transport, SocketAndInProcessProduceByteIdenticalResponses) {
  const fw::ScenarioSpec spec = mixed_spec();
  // Two identical fleets: mutations in the stream advance both in lockstep,
  // so every response frame — queries, mutation results, snapshots — must
  // match byte for byte.
  auto socket_engine = make_fleet(spec);
  auto inproc_engine = make_fleet(spec);
  fs::Service socket_service(*socket_engine, {.shards = 3});
  fs::Service inproc_service(*inproc_engine, {.shards = 3});
  fa::SocketServer server(socket_service, {});
  fa::SocketTransport socket_transport(server.host(), server.port());
  fa::InProcessTransport inproc_transport(inproc_service);

  const fw::ScenarioGenerator generator(spec);
  auto stream = generator.request_stream(600, 5);
  for (fa::Request& request : admin_cycle("equivalence-probe")) {
    stream.push_back(std::move(request));
  }
  std::size_t mutations = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    mutations += std::holds_alternative<fa::ApplyMutationsRequest>(stream[i]) ? 1 : 0;
    const auto frame = fa::encode_request(i + 1, stream[i]);
    std::vector<std::uint8_t> socket_reply;
    std::vector<std::uint8_t> inproc_reply;
    ASSERT_TRUE(socket_transport.roundtrip(frame, socket_reply).ok()) << i;
    ASSERT_TRUE(inproc_transport.roundtrip(frame, inproc_reply).ok()) << i;
    ASSERT_EQ(socket_reply, inproc_reply)
        << "request " << i << " (" << fa::request_kind_name(stream[i].index()) << ")";
  }
  EXPECT_GT(mutations, 0u) << "the equivalence stream must exercise the mutation path";
  server.stop();
}

TEST(Transport, ClientAnswersMatchDirectEngineOverTheSocket) {
  const fw::ScenarioSpec spec = mixed_spec();
  auto engine = make_fleet(spec);
  fs::Service service(*engine, {.shards = 2});
  fa::SocketServer server(service, {});
  fa::Client client(std::make_unique<fa::SocketTransport>(server.host(), server.port()));

  const fw::ScenarioGenerator generator(spec);
  for (const fa::Request& request : generator.request_stream(300, 9)) {
    if (const auto* happy = std::get_if<fa::IsHappyRequest>(&request)) {
      const auto served = client.is_happy(happy->instance, happy->node, happy->holiday);
      ASSERT_TRUE(served.ok()) << served.status.detail;
      EXPECT_EQ(served.value, engine->is_happy(happy->instance, happy->node, happy->holiday));
    } else if (const auto* next = std::get_if<fa::NextGatheringRequest>(&request)) {
      const auto served = client.next_gathering(next->instance, next->node, next->after);
      ASSERT_TRUE(served.ok()) << served.status.detail;
      EXPECT_EQ(served.value, engine->next_gathering(next->instance, next->node, next->after)
                                  .value_or(fe::kNoGathering));
    }
  }
  server.stop();
}

// ------------------------------------------------- lifecycle through FIFO --

TEST(Transport, LifecycleOpsSerializeThroughTheOwningShardFifo) {
  fe::Engine engine;
  // One shard, deferred start: the FIFO order is exactly submission order,
  // so the queries interleaved with create/erase prove the lifecycle ops
  // ride the same queue (a bypass would see them before the create).
  fs::Service service(engine, {.shards = 1, .queue_capacity = 64, .start = false});
  std::vector<fa::Response> responses;
  std::vector<std::future<fa::Response>> pending;
  const std::string name = "fifo-probe";
  pending.push_back(service.submit(fa::IsHappyRequest{name, 0, 1}));   // before create
  pending.push_back(service.submit(
      fa::CreateInstanceRequest{name, 6, {{0, 1}, {2, 3}}, fe::InstanceSpec{}}));
  pending.push_back(service.submit(fa::IsHappyRequest{name, 0, 1}));   // after create
  pending.push_back(service.submit(fa::EraseInstanceRequest{name}));
  pending.push_back(service.submit(fa::IsHappyRequest{name, 0, 1}));   // after erase
  service.start();
  service.drain();
  for (auto& future : pending) {
    responses.push_back(future.get());
  }
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].status.code, fa::StatusCode::kNotFound) << "query before create";
  EXPECT_TRUE(responses[1].ok()) << responses[1].status.detail;
  EXPECT_TRUE(responses[2].ok()) << "query after create must see the tenant";
  EXPECT_TRUE(responses[3].ok()) << responses[3].status.detail;
  EXPECT_EQ(responses[4].status.code, fa::StatusCode::kNotFound) << "query after erase";
  EXPECT_EQ(fhg::obs::sum_series(service.stats({}).metrics, "fhg_service_admin_total"), 2u);
}

TEST(Transport, AdmissionRejectsArriveAsTypedResponses) {
  fe::Engine engine;
  fs::Service service(engine, {.shards = 1, .queue_capacity = 1, .start = false});
  auto accepted = service.submit(fa::ListInstancesRequest{});
  // The queue holds one request; the second gets a synchronous typed reject.
  auto refused = service.submit(fa::ListInstancesRequest{});
  ASSERT_EQ(refused.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(refused.get().status.code, fa::StatusCode::kQueueFull);
  service.drain();
  EXPECT_TRUE(accepted.get().ok());
  auto stopped = service.submit(fa::ListInstancesRequest{});
  EXPECT_EQ(stopped.get().status.code, fa::StatusCode::kStopped);
}

// ------------------------------------------------------- typed failures ----

TEST(Transport, EveryFailureModeSurfacesTypedThroughTheClient) {
  fe::Engine engine;
  (void)engine.create_instance("static", fg::cycle(8), fe::InstanceSpec{});
  fs::Service service(engine, {.shards = 2});
  fa::Client client(std::make_unique<fa::InProcessTransport>(service));

  EXPECT_EQ(client.is_happy("missing", 0, 1).status.code, fa::StatusCode::kNotFound);
  EXPECT_EQ(client.is_happy("static", 999, 1).status.code, fa::StatusCode::kInvalidArgument);
  EXPECT_EQ(client.apply_mutations("static", {fhg::dynamic::insert_edge_command(0, 2)})
                .status.code,
            fa::StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.apply_mutations("missing", {fhg::dynamic::insert_edge_command(0, 2)})
                .status.code,
            fa::StatusCode::kNotFound);
  EXPECT_EQ(client.create_instance("static", 4, {}, fe::InstanceSpec{}).code,
            fa::StatusCode::kAlreadyExists);
  EXPECT_EQ(client.create_instance("self-loop", 4, {{1, 1}}, fe::InstanceSpec{}).code,
            fa::StatusCode::kInvalidArgument);
  EXPECT_EQ(client.erase_instance("missing").code, fa::StatusCode::kNotFound);
  EXPECT_EQ(client.restore({0xBA, 0xD0}).status.code, fa::StatusCode::kInvalidArgument);
  // The failed restore must not have clobbered the tenancy.
  const auto listed = client.list_instances();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value.size(), 1u);
  EXPECT_EQ(listed.value[0].name, "static");
}

TEST(Transport, MisFramedBytesEarnATypedDecodeErrorOverTheSocket) {
  fe::Engine engine;
  fs::Service service(engine, {.shards = 1});
  fa::SocketServer server(service, {});
  fa::SocketTransport transport(server.host(), server.port());
  // Ship garbage where a frame should be: the server answers once, typed,
  // then hangs up (resynchronization without frame boundaries is hopeless).
  const std::vector<std::uint8_t> garbage{'n', 'o', 't', ' ', 'a', ' ', 'f', 'r', 'a', 'm'};
  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(transport.roundtrip(garbage, reply).ok());
  fa::DecodedResponse decoded;
  ASSERT_TRUE(fa::decode_response(reply, decoded).ok());
  EXPECT_EQ(decoded.request_id, 0u);  // unreadable prologue: addressed to 0
  EXPECT_EQ(decoded.response.status.code, fa::StatusCode::kDecodeError);
  server.stop();
}

TEST(Transport, VersionMismatchIsRefusedTypedEndToEnd) {
  fe::Engine engine;
  (void)engine.create_instance("static", fg::cycle(8), fe::InstanceSpec{});
  fs::Service service(engine, {.shards = 1});
  fa::SocketServer server(service, {});
  // A client from the future: every call comes back kUnsupportedVersion.
  fa::Client client(std::make_unique<fa::SocketTransport>(server.host(), server.port()),
                    /*version=*/9);
  const auto result = client.is_happy("static", 0, 1);
  EXPECT_EQ(result.status.code, fa::StatusCode::kUnsupportedVersion);
  server.stop();
}

// ------------------------------------------------------ snapshot restore ---

TEST(Transport, SnapshotRestoresIntoAFreshServerOverTheWire) {
  const fw::ScenarioSpec spec = mixed_spec();
  auto source_engine = make_fleet(spec);
  fs::Service source_service(*source_engine, {.shards = 2});
  fa::Client source(std::make_unique<fa::InProcessTransport>(source_service));

  fe::Engine target_engine;
  fs::Service target_service(target_engine, {.shards = 2});
  fa::SocketServer server(target_service, {});
  fa::Client target(std::make_unique<fa::SocketTransport>(server.host(), server.port()));

  const auto snapshot = source.snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status.detail;
  const auto restored = target.restore(snapshot.value);
  ASSERT_TRUE(restored.ok()) << restored.status.detail;
  EXPECT_EQ(restored.value, source_engine->num_instances());

  // The round trip is byte-identical, as the snapshot format promises.
  // (Taken before any queries: answering a query *extends* an aperiodic
  // tenant's replayed prefix, legitimately advancing its holiday counter.)
  const auto again = target.snapshot();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value, snapshot.value);

  // The restored tenancy answers the seeded query stream identically.
  const fw::ScenarioGenerator generator(spec);
  for (const fa::Request& request : generator.request_stream(200, 3)) {
    if (const auto* happy = std::get_if<fa::IsHappyRequest>(&request)) {
      const auto served = target.is_happy(happy->instance, happy->node, happy->holiday);
      ASSERT_TRUE(served.ok()) << served.status.detail;
      EXPECT_EQ(served.value,
                source_engine->is_happy(happy->instance, happy->node, happy->holiday));
    }
  }
  server.stop();
}

// ------------------------------------------------------------- GetStats ----

TEST(Transport, GetStatsSnapshotsAreByteIdenticalAcrossTransports) {
  // Two identical fleets served the same request stream over the socket and
  // in process must expose byte-identical stats snapshots: the engine
  // registry is per-engine and deterministic under a deterministic workload,
  // and the timing-dependent parts (histograms, traces) are excluded by the
  // request flags.  Transport-layer metrics live on the process-global
  // registry precisely so they cannot leak in here.
  const fw::ScenarioSpec spec = mixed_spec();
  auto socket_engine = make_fleet(spec);
  auto inproc_engine = make_fleet(spec);
  fs::Service socket_service(*socket_engine, {.shards = 3});
  fs::Service inproc_service(*inproc_engine, {.shards = 3});
  fa::SocketServer server(socket_service, {});
  fa::SocketTransport socket_transport(server.host(), server.port());
  fa::InProcessTransport inproc_transport(inproc_service);

  const fw::ScenarioGenerator generator(spec);
  auto stream = generator.request_stream(400, 5);
  for (fa::Request& request : admin_cycle("stats-probe")) {
    stream.push_back(std::move(request));
  }
  stream.push_back(fa::GetStatsRequest{.include_histograms = false, .include_traces = false});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto frame = fa::encode_request(i + 1, stream[i]);
    std::vector<std::uint8_t> socket_reply;
    std::vector<std::uint8_t> inproc_reply;
    ASSERT_TRUE(socket_transport.roundtrip(frame, socket_reply).ok()) << i;
    ASSERT_TRUE(inproc_transport.roundtrip(frame, inproc_reply).ok()) << i;
    ASSERT_EQ(socket_reply, inproc_reply)
        << "request " << i << " (" << fa::request_kind_name(stream[i].index()) << ")";
  }
  // The final frames really were stats: decode one and spot-check content.
  const auto frame = fa::encode_request(9999, fa::Request{fa::GetStatsRequest{
                                                  .include_histograms = false,
                                                  .include_traces = false}});
  std::vector<std::uint8_t> reply;
  ASSERT_TRUE(socket_transport.roundtrip(frame, reply).ok());
  fa::DecodedResponse decoded;
  ASSERT_TRUE(fa::decode_response(reply, decoded).ok());
  const auto* stats = std::get_if<fa::GetStatsResponse>(&decoded.response.payload);
  ASSERT_NE(stats, nullptr);
  EXPECT_FALSE(stats->metrics.empty());
  EXPECT_TRUE(stats->traces.empty());  // excluded by the flag
  for (const auto& sample : stats->metrics) {
    EXPECT_NE(sample.kind, fhg::obs::MetricKind::kHistogram) << sample.name;
    EXPECT_EQ(sample.name.compare(0, 4, "fhg_"), 0) << sample.name;
  }
  server.stop();
}

TEST(Transport, StatsCountersAreMonotoneAcrossALoadBurst) {
  const fw::ScenarioSpec spec = mixed_spec();
  auto engine = make_fleet(spec);
  fs::Service service(*engine, {.shards = 2});
  fa::SocketServer server(service, {});
  fa::Client client(std::make_unique<fa::SocketTransport>(server.host(), server.port()));

  auto before = client.get_stats();
  ASSERT_TRUE(before.ok()) << before.status.detail;
  const fw::ScenarioGenerator generator(spec);
  std::size_t queries = 0;
  for (const fa::Request& request : generator.request_stream(200, 21)) {
    if (const auto* happy = std::get_if<fa::IsHappyRequest>(&request)) {
      ++queries;
      ASSERT_TRUE(client.is_happy(happy->instance, happy->node, happy->holiday).ok());
    }
  }
  ASSERT_GT(queries, 0u);
  auto after = client.get_stats();
  ASSERT_TRUE(after.ok()) << after.status.detail;

  for (const std::string_view name :
       {"fhg_service_accepted_total", "fhg_service_queries_total",
        "fhg_engine_batch_probes_total"}) {
    // Summed across shard labels: "name" or "name{shard=...}".
    const std::uint64_t was = fhg::obs::sum_series(before.value.metrics, name);
    const std::uint64_t now = fhg::obs::sum_series(after.value.metrics, name);
    EXPECT_GE(now, was + queries) << name;
  }
  // Histograms ride along by default and the burst recorded latencies.
  const auto latency = std::find_if(
      after.value.metrics.begin(), after.value.metrics.end(), [](const auto& sample) {
        return sample.kind == fhg::obs::MetricKind::kHistogram &&
               sample.name.find("fhg_service_latency_us") != std::string::npos &&
               sample.histogram.total() > 0;
      });
  EXPECT_NE(latency, after.value.metrics.end());
  server.stop();
}

TEST(Transport, ClientTraceIdsReachTheSlowestTraceRing) {
  const fw::ScenarioSpec spec = mixed_spec();
  auto engine = make_fleet(spec);
  fs::Service service(*engine, {.shards = 2});
  fa::SocketServer server(service, {});
  fa::Client client(std::make_unique<fa::SocketTransport>(server.host(), server.port()));
  client.set_trace_base(0x50000000ULL);  // tracing is on by default

  const fw::ScenarioGenerator generator(spec);
  std::size_t sent = 0;
  for (const fa::Request& request : generator.request_stream(100, 33)) {
    if (const auto* happy = std::get_if<fa::IsHappyRequest>(&request)) {
      ++sent;
      ASSERT_TRUE(client.is_happy(happy->instance, happy->node, happy->holiday).ok());
    }
  }
  ASSERT_GT(sent, 0u);
  auto stats = client.get_stats();
  ASSERT_TRUE(stats.ok()) << stats.status.detail;
  ASSERT_FALSE(stats.value.traces.empty());
  for (const auto& trace : stats.value.traces) {
    // Every trace was minted by this client: base + request id, echoed back.
    EXPECT_GT(trace.trace_id, 0x50000000ULL);
    EXPECT_EQ(trace.trace_id - 0x50000000ULL, trace.request_id);
    EXPECT_LT(trace.kind, fa::kNumRequestKinds);
    EXPECT_GE(trace.total_us, trace.serve_us);
  }
  // Disabling tracing stops new entries: the ring size stabilizes.
  client.set_tracing(false);
  const std::size_t ring_size = stats.value.traces.size();
  EXPECT_EQ(service.traces().snapshot().size(), ring_size);  // direct accessor agrees
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.list_instances().ok());
  }
  auto again = client.get_stats();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value.traces.size(), ring_size);
  server.stop();
}

// ----------------------------------------------------- event-loop edges ----
//
// The epoll server's failure modes live below what SocketTransport can
// reach: partial frames across wakeups, peers vanishing mid-frame, peers
// that stop reading.  RawClient drives each one directly.

TEST(Transport, FrameSplitAcrossManyEpollWakeupsStillDecodes) {
  fe::Engine engine;
  (void)engine.create_instance("split-probe", fg::cycle(6), fe::InstanceSpec{});
  fs::Service service(engine, {.shards = 1});
  fa::SocketServer server(service, {});
  RawClient raw(server.host(), server.port());

  // One byte per send, paced so the kernel delivers them as separate
  // readable events: the frame crosses many wakeups and the assembler must
  // carry the partial frame between them.
  const std::uint64_t wakes_before = global_counter("fhg_socket_epoll_wakes_total");
  const auto frame = fa::encode_request(77, fa::Request{fa::ListInstancesRequest{}});
  for (std::size_t i = 0; i < frame.size(); ++i) {
    raw.send_all(std::span<const std::uint8_t>(&frame[i], 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto reply = raw.recv_frame();
  fa::DecodedResponse decoded;
  ASSERT_TRUE(fa::decode_response(reply, decoded).ok());
  EXPECT_EQ(decoded.request_id, 77u);
  ASSERT_TRUE(decoded.response.ok()) << decoded.response.status.detail;
  const auto* listed = std::get_if<fa::ListInstancesResponse>(&decoded.response.payload);
  ASSERT_NE(listed, nullptr);
  ASSERT_EQ(listed->instances.size(), 1u);
  EXPECT_EQ(listed->instances[0].name, "split-probe");
  // The drip-feed genuinely exercised reassembly across wakeups, not one
  // coalesced read (one wake covers at most a few coalesced bytes).
  EXPECT_GT(global_counter("fhg_socket_epoll_wakes_total"), wakes_before + 5);
  server.stop();
}

TEST(Transport, DisconnectMidFrameReapsTheConnectionCleanly) {
  fe::Engine engine;
  (void)engine.create_instance("reap-probe", fg::cycle(6), fe::InstanceSpec{});
  fs::Service service(engine, {.shards = 1});
  fa::SocketServer server(service, {});
  const std::uint64_t reaped_before = global_counter("fhg_socket_connections_reaped_total");

  {
    // Ship the header plus a sliver of payload, then vanish: the server
    // must notice EOF with a partial frame buffered and reap the
    // connection instead of waiting for a completion that never comes.
    RawClient raw(server.host(), server.port());
    const auto frame = fa::encode_request(1, fa::Request{fa::ListInstancesRequest{}});
    ASSERT_GT(frame.size(), fa::kFrameHeaderBytes + 1);
    raw.send_all(std::span<const std::uint8_t>(frame.data(), fa::kFrameHeaderBytes + 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    raw.close();
  }
  // The reap is asynchronous (next wakeup on the owning worker): poll.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (global_counter("fhg_socket_connections_reaped_total") == reaped_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(global_counter("fhg_socket_connections_reaped_total"), reaped_before);

  // The server is unharmed: a fresh, well-behaved client gets served.
  fa::Client client(std::make_unique<fa::SocketTransport>(server.host(), server.port()));
  const auto listed = client.list_instances();
  ASSERT_TRUE(listed.ok()) << listed.status.detail;
  EXPECT_EQ(listed.value.size(), 1u);
  server.stop();
}

TEST(Transport, SlowReaderTriggersWriteBackpressureAndNothingIsLost) {
  fe::Engine engine;
  // A fat ListInstances response (many tenants, long names) times a deep
  // pipeline of unread requests overflows every kernel buffer in the path,
  // forcing the server through its EAGAIN → park → EPOLLOUT → resume arc.
  for (int i = 0; i < 192; ++i) {
    const std::string name =
        "backpressure-tenant-with-a-deliberately-long-name-" + std::to_string(i);
    ASSERT_NE(engine.create_instance(name, fg::cycle(4), fe::InstanceSpec{}), nullptr);
  }
  fs::Service service(engine, {.shards = 2});
  // Bound the server-side send buffer: the kernel's autotuned loopback
  // buffer grows to megabytes and would absorb the whole pipeline without
  // a single EAGAIN.
  fa::SocketServer server(service, {.send_buffer_bytes = 4096});
  const std::uint64_t stalls_before = global_counter("fhg_socket_write_stalls_total");

  constexpr std::size_t kPipelined = 160;
  RawClient raw(server.host(), server.port(), /*rcvbuf_bytes=*/4096);
  for (std::size_t i = 0; i < kPipelined; ++i) {
    raw.send_all(fa::encode_request(i + 1, fa::Request{fa::ListInstancesRequest{}}));
  }
  // Don't read yet: let the responses pile into the tiny receive window
  // until the server's writes genuinely stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GT(global_counter("fhg_socket_write_stalls_total"), stalls_before)
      << "the pipeline never overflowed the socket buffers";

  // Now drain: every response arrives intact, in submission order — parked
  // bytes were neither dropped nor reordered by the stall/resume cycle.
  for (std::size_t i = 0; i < kPipelined; ++i) {
    const auto reply = raw.recv_frame();
    fa::DecodedResponse decoded;
    ASSERT_TRUE(fa::decode_response(reply, decoded).ok()) << "reply " << i;
    ASSERT_EQ(decoded.request_id, i + 1);
    const auto* listed = std::get_if<fa::ListInstancesResponse>(&decoded.response.payload);
    ASSERT_NE(listed, nullptr) << "reply " << i;
    EXPECT_EQ(listed->instances.size(), 192u);
  }
  server.stop();
}

TEST(Transport, PipelinedInlineAndQueuedReadsReplyInRequestOrder) {
  // One dynamic tenant and a few static ones, twice: the socket copy serves
  // one pipelined burst, the twin the same frames one at a time in-process.
  const auto make_engine = [] {
    auto engine = std::make_unique<fe::Engine>(fe::EngineOptions{.shards = 4, .threads = 1});
    fe::InstanceSpec dynamic;
    dynamic.kind = fe::SchedulerKind::kDynamicPrefixCode;
    (void)engine->create_instance("dyn", fg::cycle(8), dynamic);
    fe::InstanceSpec periodic;
    periodic.kind = fe::SchedulerKind::kDegreeBound;
    for (int i = 0; i < 4; ++i) {
      (void)engine->create_instance("static-" + std::to_string(i), fg::gnp(12, 0.3, 40 + i),
                                    periodic);
    }
    (void)engine->step_all(16);
    return engine;
  };
  auto socket_engine = make_engine();
  auto inproc_engine = make_engine();
  fs::Service socket_service(*socket_engine, {.shards = 2});
  fs::Service inproc_service(*inproc_engine, {.shards = 2});
  fa::SocketServer server(socket_service, {});
  fa::InProcessTransport inproc(inproc_service);

  // Static reads find their shard idle and complete inline during dispatch;
  // the dyn reads after each mutation queue behind it and complete later on
  // the shard worker.  The same dyn probes run before and after each
  // mutation, so a reordering would show up as a changed answer too.
  const std::vector<std::vector<fhg::dynamic::MutationCommand>> mutations{
      {fhg::dynamic::insert_edge_command(3, 6), fhg::dynamic::insert_edge_command(0, 4)},
      {fhg::dynamic::erase_edge_command(3, 6), fhg::dynamic::insert_edge_command(1, 5)},
      {fhg::dynamic::erase_edge_command(0, 4)},
  };
  std::vector<fa::Request> stream;
  const auto dyn_reads = [&] {
    for (fg::NodeId node = 0; node < 8; ++node) {
      stream.push_back(fa::IsHappyRequest{"dyn", node, 20 + node});
      stream.push_back(fa::NextGatheringRequest{"dyn", node, 20});
    }
  };
  const auto static_reads = [&](std::uint64_t holiday) {
    for (int i = 0; i < 4; ++i) {
      stream.push_back(fa::IsHappyRequest{"static-" + std::to_string(i), 3, holiday});
      stream.push_back(fa::NextGatheringRequest{"static-" + std::to_string(i), 5, holiday});
    }
  };
  for (std::size_t round = 0; round < mutations.size(); ++round) {
    static_reads(3 + round);
    dyn_reads();
    stream.push_back(fa::ApplyMutationsRequest{"dyn", mutations[round]});
    dyn_reads();
    static_reads(30 + round);
  }

  // The reference: one request at a time, in-process.
  std::vector<std::vector<std::uint8_t>> expected(stream.size());
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto frame = fa::encode_request(i + 1, stream[i]);
    burst.insert(burst.end(), frame.begin(), frame.end());
    ASSERT_TRUE(inproc.roundtrip(frame, expected[i]).ok()) << i;
  }
  // Some dyn answer must change across a mutation, or the check below
  // could not tell pre- from post-mutation order.
  const auto answer_of = [&](std::size_t i) -> std::uint64_t {
    fa::DecodedResponse decoded;
    EXPECT_TRUE(fa::decode_response(expected[i], decoded).ok()) << i;
    if (const auto* happy = std::get_if<fa::IsHappyResponse>(&decoded.response.payload)) {
      return happy->happy ? 1 : 0;
    }
    return std::get<fa::NextGatheringResponse>(decoded.response.payload).holiday;
  };
  bool changed = false;
  for (std::size_t m = 1; m < stream.size(); ++m) {
    if (std::holds_alternative<fa::ApplyMutationsRequest>(stream[m])) {
      // 16 dyn reads right before the mutation, the same 16 right after.
      for (std::size_t k = 0; k < 16; ++k) {
        changed |= answer_of(m - 16 + k) != answer_of(m + 1 + k);
      }
    }
  }
  ASSERT_TRUE(changed) << "no mutation changed a probed dyn answer";

  // One send: the whole pipeline lands in as few reads as the kernel makes,
  // so inline and queued completions interleave within one dispatch loop.
  RawClient raw(server.host(), server.port());
  raw.send_all(burst);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto reply = raw.recv_frame();
    fa::DecodedResponse decoded;
    ASSERT_TRUE(fa::decode_response(reply, decoded).ok()) << "reply " << i;
    ASSERT_EQ(decoded.request_id, i + 1) << "replies out of request order";
    EXPECT_EQ(reply, expected[i]) << "request " << i << " ("
                                  << fa::request_kind_name(stream[i].index()) << ")";
  }
  server.stop();
}

TEST(Transport, ManyIdleConnectionsServeInterleavedRequests) {
  fe::Engine engine;
  (void)engine.create_instance("idle-probe", fg::cycle(6), fe::InstanceSpec{});
  fs::Service service(engine, {.shards = 2});
  fa::SocketServer server(service, {});
  const std::uint64_t accepted_before = global_counter("fhg_socket_connections_total");

  // A small-scale model of the 10k CI run (sized for TSan): most
  // connections sit idle in the epoll set while a rotating few make
  // requests, so idle fds must cost nothing and never starve active ones.
  constexpr std::size_t kConnections = 96;
  std::vector<std::unique_ptr<fa::Client>> clients;
  clients.reserve(kConnections);
  for (std::size_t i = 0; i < kConnections; ++i) {
    clients.push_back(std::make_unique<fa::Client>(
        std::make_unique<fa::SocketTransport>(server.host(), server.port())));
  }
  // connect(2) completes out of the kernel backlog before the acceptor has
  // necessarily accept(2)ed, so the counter can lag the constructors: poll.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (global_counter("fhg_socket_connections_total") < accepted_before + kConnections &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(global_counter("fhg_socket_connections_total"), accepted_before + kConnections);
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t i = round; i < kConnections; i += 7) {
      const auto listed = clients[i]->list_instances();
      ASSERT_TRUE(listed.ok()) << "round " << round << " client " << i << ": "
                               << listed.status.detail;
      ASSERT_EQ(listed.value.size(), 1u);
      EXPECT_EQ(listed.value[0].name, "idle-probe");
    }
  }
  // Every connection — including ones idle through all four rounds — is
  // still live and serviceable.
  for (std::size_t i = 0; i < kConnections; ++i) {
    ASSERT_TRUE(clients[i]->list_instances().ok()) << "client " << i;
  }
  server.stop();
}

// ------------------------------------------------- reconnect and retry -----

TEST(Transport, SocketTransportReconnectsAcrossAServerBounce) {
  fe::Engine engine;
  (void)engine.create_instance("bounce-probe", fg::cycle(6), fe::InstanceSpec{});
  fs::Service service(engine, {.shards = 1, .queue_capacity = 4096, .start = true,
                               .backend_id = "bouncer"});
  auto first = std::make_unique<fa::SocketServer>(service, fa::SocketServerOptions{});
  const std::uint16_t port = first->port();
  fa::SocketTransport transport(first->host(), port);

  const auto frame = fa::encode_request(1, fa::ListInstancesRequest{});
  std::vector<std::uint8_t> reply_before;
  ASSERT_TRUE(transport.roundtrip(frame, reply_before).ok());

  // The bounce: the old process dies, a new one binds the same port
  // (SO_REUSEADDR).  The dead socket must fail typed, not hang or crash,
  // and one reconnect must fully heal the transport.
  first->stop();
  first.reset();
  std::vector<std::uint8_t> ignored;
  EXPECT_FALSE(transport.roundtrip(frame, ignored).ok());
  fa::SocketServer second(service, fa::SocketServerOptions{.port = port});
  ASSERT_TRUE(transport.reconnect().ok());
  std::vector<std::uint8_t> reply_after;
  ASSERT_TRUE(transport.roundtrip(frame, reply_after).ok());
  // Same service, same request id, same framing: byte-identical replies
  // prove the reassembler restarted clean (no half-frame leaked across).
  EXPECT_EQ(reply_before, reply_after);
  second.stop();
}

TEST(Transport, ClientRetryPolicyHealsABouncedConnectionTransparently) {
  fe::Engine engine;
  (void)engine.create_instance("retry-probe", fg::cycle(6), fe::InstanceSpec{});
  fs::Service service(engine, {.shards = 1, .queue_capacity = 4096, .start = true,
                               .backend_id = "bouncer"});
  auto first = std::make_unique<fa::SocketServer>(service, fa::SocketServerOptions{});
  const std::uint16_t port = first->port();
  const std::string host = first->host();

  fa::Client client(std::make_unique<fa::SocketTransport>(host, port));
  client.set_retry_policy({.max_retries = 3,
                           .initial_backoff = std::chrono::milliseconds(1),
                           .max_backoff = std::chrono::milliseconds(8)});
  ASSERT_TRUE(client.list_instances().ok());
  EXPECT_EQ(client.retries(), 0u) << "a healthy connection must not retry";

  // Bounce while the client holds a now-dead connection: the next call eats
  // the transport failure, reconnects, and succeeds without the caller ever
  // seeing an error.
  first->stop();
  first.reset();
  fa::SocketServer second(service, fa::SocketServerOptions{.port = port});
  const auto listed = client.list_instances();
  ASSERT_TRUE(listed.ok()) << listed.status.detail;
  ASSERT_EQ(listed.value.size(), 1u);
  EXPECT_EQ(listed.value[0].name, "retry-probe");
  EXPECT_GE(client.retries(), 1u);
  EXPECT_GE(client.reconnects(), 1u);

  // With nothing listening, the budget runs out into a typed failure — and
  // a later recovery is still reachable through the same client.
  second.stop();
  const auto while_down = client.list_instances();
  EXPECT_FALSE(while_down.ok());
  EXPECT_EQ(while_down.status.code, fa::StatusCode::kInternal);
  fa::SocketServer third(service, fa::SocketServerOptions{.port = port});
  ASSERT_TRUE(client.list_instances().ok());
  third.stop();
}
