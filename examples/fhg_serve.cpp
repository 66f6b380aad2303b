// fhg_serve — the fhg scheduling system as a network service, plus the
// matching load generator and a self-contained end-to-end check of both.
//
// Three modes:
//
//   serve     Build a deterministic `fhg::workload` fleet, put the sharded
//             `fhg::service` pipeline in front of it, and listen for
//             `fhg::api` protocol frames on TCP.  Runs until SIGINT/SIGTERM
//             (or --duration elapses).  With --port 0 the kernel picks an
//             ephemeral port; --port-file publishes whatever was bound so
//             scripts can connect without racing the listener.
//
//   load      Drive a running server: --clients threads each open their own
//             connection (`api::SocketTransport` + `api::Client`) and submit
//             the deterministic request stream for the same workload spec —
//             queries plus, when the spec has dynamic/mutation tenants,
//             in-place topology mutations.  Exits nonzero when any request
//             fails unexpectedly (a refused mutation, on a slot whose
//             tenant is no longer dynamic, is expected and only counted).
//
//             Connection-scaling mode: --idle-connections N additionally
//             opens N connections *before* the hot clients run, probes each
//             once (one ListInstances roundtrip), parks them — open, silent —
//             for the whole hot phase, then revalidates a sample and closes
//             them.  Thousands of mostly-idle connections plus a few hot
//             ones is exactly the shape the epoll server is built for; the
//             serve-scale CI job runs this at 10k connections and asserts
//             the server's fhg_socket_connections_peak high-water saw them.
//
//   loopback  The CI divergence gate, self-contained in one process: builds
//             two identical fleets, serves one over a real TCP loopback
//             socket and the other through the in-process transport, drives
//             both with identical request streams, and byte-compares every
//             encoded response frame — "one protocol, two transports" made
//             falsifiable — and then the two engines' snapshots.  Then
//             hammers the socket server from --clients concurrent
//             connections for completeness, and checks the socket-served
//             engine itself: a sample of answers served over the socket
//             against direct `Engine` calls, sampled fairness audits (the
//             §4/§5 gap bounds), a snapshot → restore round trip that must
//             be byte-identical, and a probe round the restored engine must
//             answer exactly like the original.  Exits 1 when any of these
//             fails.
//
//   stats     One-shot scrape of a running server over the protocol itself:
//             sends a GetStats request and prints the returned registry
//             snapshot (and slowest-trace table) with the shared fhg::obs
//             text formatter.
//
// Observability (serve mode): --stats-port starts a Prometheus text
// exposition endpoint (GET /metrics) serving the engine+service registry
// plus the process-global transport metrics; --stats-interval SECS logs the
// same snapshot to stdout periodically while serving.
//
// Usage:
//   fhg_serve serve    [--host H] [--port P] [--port-file PATH]
//                      [--workload SPEC | --fleet N] [--steps N]
//                      [--shards N] [--threads N] [--service-shards N]
//                      [--duration SECS] [--seed S]
//                      [--stats-port P] [--stats-interval SECS]
//                      [--wal-dir PATH] [--wal-fsync N]
//                      [--wal-compact-every N] [--backend-id NAME]
//   fhg_serve load     --connect HOST:PORT [--workload SPEC | --fleet N]
//                      [--steps N] [--requests N] [--clients N] [--round R]
//                      [--seed S] [--idle-connections N] [--openers N]
//                      [--retry N]
//   fhg_serve loopback [--workload SPEC | --fleet N] [--steps N]
//                      [--requests N] [--clients N] [--service-shards N]
//                      [--seed S]
//   fhg_serve stats    --connect HOST:PORT [--histograms 0|1] [--traces 0|1]
//
// Every option takes a value; an option the mode does not know, or one left
// without a value, is a usage error (exit 2).
//
// Workload specs are `family[:key=value,...]` with families ring, grid,
// power-law, random-geometric, gnp (or a preset: powerlaw-1m, geometric-1m)
// and keys fleet, nodes, seed, aperiodic, dynamic, mutation, next,
// horizon, cmds (see fhg/workload/scenario.hpp).  The load generator must be
// given the *same* spec the server was started with, or its tenant names
// will miss.
//
// Examples:
//   fhg_serve serve --workload power-law:fleet=1000 --port 7421 &
//   fhg_serve load --connect 127.0.0.1:7421 --workload power-law:fleet=1000
//   fhg_serve loopback --workload power-law:fleet=300,dynamic=0.3,mutation=0.1
//   fhg_serve loopback --workload powerlaw-1m:nodes=131072,cmds=512 --steps 8 --requests 16

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fhg/api/client.hpp"
#include "fhg/api/codec.hpp"
#include "fhg/api/protocol.hpp"
#include "fhg/api/socket.hpp"
#include "fhg/api/transport.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/obs/format.hpp"
#include "fhg/obs/http.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/service/service.hpp"
#include "fhg/wal/wal.hpp"
#include "fhg/workload/scenario.hpp"

#include "cli_options.hpp"

namespace {

using namespace fhg;
using Clock = std::chrono::steady_clock;
using examples::uint_option;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "fhg_serve: " << error << "\n"
            << "usage: fhg_serve serve    [--host H] [--port P] [--port-file PATH]\n"
            << "                          [--workload SPEC | --fleet N] [--steps N]\n"
            << "                          [--shards N] [--threads N] [--service-shards N]\n"
            << "                          [--duration SECS] [--seed S]\n"
            << "                          [--stats-port P] [--stats-interval SECS]\n"
            << "                          [--wal-dir PATH] [--wal-fsync N]\n"
            << "                          [--wal-compact-every N] [--backend-id NAME]\n"
            << "       fhg_serve load     --connect HOST:PORT [--workload SPEC | --fleet N]\n"
            << "                          [--steps N] [--requests N] [--clients N] [--round R]\n"
            << "                          [--seed S] [--idle-connections N] [--openers N]\n"
            << "                          [--retry N]\n"
            << "       fhg_serve loopback [--workload SPEC | --fleet N] [--steps N]\n"
            << "                          [--requests N] [--clients N] [--service-shards N]\n"
            << "                          [--seed S]\n"
            << "       fhg_serve stats    --connect HOST:PORT [--histograms 0|1] [--traces 0|1]\n"
            << "workload specs: family[:key=value,...], families: ring grid power-law\n"
            << "                random-geometric gnp; presets: powerlaw-1m geometric-1m\n"
            << "                keys: fleet nodes seed aperiodic dynamic mutation\n"
            << "                      next horizon cmds\n";
  std::exit(2);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The option keys each mode accepts.
const std::map<std::string, std::set<std::string>>& mode_options() {
  static const std::map<std::string, std::set<std::string>> modes{
      {"serve",
       {"host", "port", "port-file", "workload", "fleet", "steps", "shards", "threads",
        "service-shards", "duration", "seed", "stats-port", "stats-interval", "wal-dir",
        "wal-fsync", "wal-compact-every", "backend-id"}},
      {"load",
       {"connect", "workload", "fleet", "steps", "requests", "clients", "round", "seed",
        "idle-connections", "openers", "retry"}},
      {"loopback",
       {"workload", "fleet", "steps", "requests", "clients", "service-shards", "seed"}},
      {"stats", {"connect", "histograms", "traces"}},
  };
  return modes;
}

/// The workload spec shared by all three modes: an explicit scenario string,
/// or the default power-law family sized by --fleet.
workload::ScenarioSpec workload_spec(std::map<std::string, std::string>& options,
                                     std::uint64_t steps) {
  auto spec =
      workload::parse_scenario(options.count("workload") ? options["workload"] : "power-law");
  if (!spec) {
    usage("bad workload spec '" + options["workload"] + "'");
  }
  if (options.count("fleet")) {
    spec->fleet = static_cast<std::size_t>(uint_option(options, "fleet", 1000));
  }
  if (options["workload"].find("seed=") == std::string::npos) {
    spec->seed = uint_option(options, "seed", 1);
  }
  if (options["workload"].find("horizon=") == std::string::npos) {
    spec->horizon = std::max<std::uint64_t>(steps, 1);
  }
  return *spec;
}

/// Builds and steps one fleet.
std::unique_ptr<engine::Engine> build_fleet(const workload::ScenarioGenerator& generator,
                                            std::size_t shards, std::size_t threads,
                                            std::uint64_t steps) {
  auto engine = std::make_unique<engine::Engine>(
      engine::EngineOptions{.shards = shards, .threads = threads});
  generator.populate(*engine);
  (void)engine->step_all(steps);
  return engine;
}

/// Per-request tallies of one client's pass over a stream.
struct LoadTally {
  std::uint64_t completed = 0;
  std::uint64_t hits = 0;                ///< membership answers that were happy
  std::uint64_t answered = 0;            ///< next-gatherings that found a holiday
  std::uint64_t mutations_applied = 0;   ///< mutation commands that changed topology
  std::uint64_t mutations_refused = 0;   ///< refused batches (tenant not dynamic: expected)
  std::uint64_t failed = 0;              ///< unexpected failures (gate to zero)
};

/// Drives one request stream through one client, tallying outcomes.
LoadTally drive(api::Client& client, const std::vector<api::Request>& stream) {
  LoadTally tally;
  for (const api::Request& request : stream) {
    const api::Response response = client.call(request);
    ++tally.completed;
    if (const auto* happy = std::get_if<api::IsHappyResponse>(&response.payload)) {
      tally.hits += happy->happy ? 1 : 0;
    } else if (const auto* next = std::get_if<api::NextGatheringResponse>(&response.payload)) {
      tally.answered += next->holiday != engine::kNoGathering ? 1 : 0;
    } else if (const auto* mutated =
                   std::get_if<api::ApplyMutationsResponse>(&response.payload)) {
      tally.mutations_applied += mutated->applied;
    } else if (!response.ok() && std::holds_alternative<api::ApplyMutationsRequest>(request)) {
      ++tally.mutations_refused;  // the tenant is no longer dynamic: expected
    } else if (!response.ok()) {
      ++tally.failed;
    }
  }
  return tally;
}

void merge(LoadTally& into, const LoadTally& from) {
  into.completed += from.completed;
  into.hits += from.hits;
  into.answered += from.answered;
  into.mutations_applied += from.mutations_applied;
  into.mutations_refused += from.mutations_refused;
  into.failed += from.failed;
}

void print_tally(const std::string& label, const LoadTally& tally, double elapsed_s) {
  std::cout << label << ": " << tally.completed << " requests in " << elapsed_s << "s ("
            << static_cast<double>(tally.completed) / elapsed_s << " requests/sec), "
            << tally.hits << " happy, " << tally.answered << " next-gatherings answered, "
            << tally.mutations_applied << " mutation commands applied ("
            << tally.mutations_refused << " batches refused), " << tally.failed
            << " unexpected failures\n";
}

/// Multi-threaded load over a transport factory: `clients` threads, each
/// with its own client and stream round.  Returns the merged tally.
/// `retry` (default off) is handed to every client — driving a cluster
/// router during a backend kill wants the bounded reconnect-retry loop.
template <typename MakeTransport>
LoadTally fan_out(const workload::ScenarioGenerator& generator, std::uint64_t requests,
                  std::size_t clients, std::uint64_t base_round, MakeTransport make_transport,
                  api::RetryPolicy retry = {}) {
  const std::uint64_t total = std::max<std::uint64_t>(requests, clients);
  const std::uint64_t per_client = total / clients;
  std::vector<LoadTally> tallies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::uint64_t share =
          c + 1 == clients ? total - per_client * (clients - 1) : per_client;
      const auto stream =
          generator.request_stream(static_cast<std::size_t>(share), base_round + c);
      try {
        api::Client client(make_transport());
        client.set_retry_policy(retry);
        tallies[c] = drive(client, stream);
      } catch (const std::exception& e) {
        // e.g. the connection could not be established: the whole share
        // counts as failed instead of tearing the process down.
        std::cerr << "fhg_serve: client " << c << ": " << e.what() << "\n";
        tallies[c].failed += share;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  LoadTally total_tally;
  for (const LoadTally& tally : tallies) {
    merge(total_tally, tally);
  }
  return total_tally;
}

/// The full serving-side picture: the engine+service registry (what GetStats
/// serves over the wire) merged with the process-global transport metrics
/// (codec and socket counters, which GetStats deliberately excludes so that
/// serving the stats cannot perturb the stats), sorted back into one list.
std::vector<obs::MetricSample> serving_samples(const service::Service& service) {
  api::GetStatsRequest everything;
  everything.include_traces = false;  // traces are printed separately
  std::vector<obs::MetricSample> samples = service.stats(everything).metrics;
  const std::vector<obs::MetricSample> transport = obs::Registry::global().snapshot();
  samples.insert(samples.end(), transport.begin(), transport.end());
  std::sort(samples.begin(), samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

// ------------------------------------------------------------------- serve --

int run_serve(std::map<std::string, std::string> options) {
  // Block the shutdown signals *before* any thread exists (engine pool,
  // service shards, socket accept loop): every thread inherits the mask, so
  // SIGINT/SIGTERM can only ever be consumed by the sigwait below instead of
  // killing a worker with the default action.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  const std::uint64_t steps = uint_option(options, "steps", 128);
  const workload::ScenarioGenerator generator(workload_spec(options, steps));
  const auto shards = static_cast<std::size_t>(uint_option(options, "shards", 32));
  const auto threads = static_cast<std::size_t>(uint_option(options, "threads", 0));
  const auto build_start = Clock::now();

  // Durability: with --wal-dir the engine either recovers from the directory
  // (snapshot + write-ahead-log replay, skipping the fleet build entirely) or
  // builds the fleet fresh and seals it with an initial snapshot, so a later
  // crash always has a recovery point.  Declared after `engine` so the
  // manager (which holds a reference into the engine) is destroyed first.
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<wal::Manager> wal_manager;
  if (options.count("wal-dir")) {
    wal::WalOptions wal_options;
    wal_options.dir = options["wal-dir"];
    wal_options.fsync_every = uint_option(options, "wal-fsync", 1);
    wal_options.compact_every = uint_option(options, "wal-compact-every", 0);
    const bool resume = wal::Manager::has_state(wal_options.dir);
    if (resume) {
      engine = std::make_unique<engine::Engine>(
          engine::EngineOptions{.shards = shards, .threads = threads});
    } else {
      engine = build_fleet(generator, shards, threads, steps);
    }
    wal_manager = std::make_unique<wal::Manager>(*engine, wal_options);
    const wal::RecoveryReport report = wal_manager->recover();
    if (resume) {
      std::cout << "fhg_serve: recovered " << engine->num_instances() << " instances from "
                << wal_options.dir << " (" << report.replayed_batches << " batches replayed, "
                << report.skipped_batches << " already durable, " << report.torn_bytes
                << " torn bytes truncated)\n";
    }
    // Fresh directories get their first recovery point here; recovered ones
    // fold the replayed log back into the snapshot.
    wal_manager->compact();
    engine->attach_wal(wal_manager.get());
  } else {
    engine = build_fleet(generator, shards, threads, steps);
  }
  std::cout << "fhg_serve: fleet " << workload::scenario_name(generator.spec()) << " ("
            << engine->num_instances() << " instances, " << seconds_since(build_start)
            << "s to build)\n";

  service::Service service(
      *engine,
      {.shards = static_cast<std::size_t>(uint_option(options, "service-shards", 4)),
       .backend_id = options.count("backend-id") ? options["backend-id"] : ""});
  api::SocketServerOptions socket_options;
  if (options.count("host")) {
    socket_options.host = options["host"];
  }
  socket_options.port = static_cast<std::uint16_t>(uint_option(options, "port", 0));
  api::SocketServer server(service, socket_options);
  std::cout << "fhg_serve: listening on " << server.host() << ":" << server.port()
            << " (protocol v" << api::kProtocolVersion << ", " << service.num_shards()
            << " service shards)\n"
            << std::flush;
  // Optional Prometheus exposition: GET /metrics serves the same registry
  // snapshot GetStats serves over the protocol, plus the transport metrics.
  std::unique_ptr<obs::StatsHttpServer> stats_server;
  if (options.count("stats-port")) {
    obs::StatsHttpOptions stats_options;
    if (options.count("host")) {
      stats_options.host = options["host"];
    }
    stats_options.port = static_cast<std::uint16_t>(uint_option(options, "stats-port", 0));
    stats_server = std::make_unique<obs::StatsHttpServer>(
        [&service] { return obs::to_prometheus(serving_samples(service)); }, stats_options);
    std::cout << "fhg_serve: metrics on http://" << stats_options.host << ":"
              << stats_server->port() << "/metrics\n"
              << std::flush;
  }

  // Published only once every listener is bound: line 1 is the protocol
  // port, line 2 (when --stats-port was given) the metrics port — scripts
  // read the file instead of racing the listeners or parsing stdout.
  // Written to a temp file and renamed into place: rename(2) is atomic, so
  // a polling reader sees either no file or a complete one, never a torn
  // write (a cluster harness polls one file per backend concurrently).
  if (options.count("port-file")) {
    const std::string path = options["port-file"];
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp);
      out << server.port() << "\n";
      if (stats_server) {
        out << stats_server->port() << "\n";
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::cerr << "fhg_serve: cannot publish port file " << path << "\n";
    }
  }

  const std::uint64_t stats_interval = uint_option(options, "stats-interval", 0);
  const bool timed = options.count("duration") != 0;
  if (!timed && stats_interval == 0) {
    // Foreground or backgrounded alike: park until SIGINT/SIGTERM.
    int caught = 0;
    sigwait(&signals, &caught);
    std::cout << "fhg_serve: signal " << caught << ", shutting down\n";
  } else {
    // The shutdown signals are blocked in every thread, so plain sleeping
    // would make the server uninterruptible; wait *on the signals* with a
    // deadline instead — the earlier of --duration and the next stats tick.
    const auto deadline =
        Clock::now() + std::chrono::seconds(uint_option(options, "duration", 0));
    auto next_stats = Clock::now() + std::chrono::seconds(stats_interval);
    for (;;) {
      const auto now = Clock::now();
      if (timed && now >= deadline) {
        break;
      }
      if (stats_interval != 0 && now >= next_stats) {
        std::cout << "fhg_serve: stats after " << server.connections_accepted()
                  << " connections\n"
                  << obs::to_text(serving_samples(service)) << std::flush;
        next_stats += std::chrono::seconds(stats_interval);
        continue;
      }
      auto wake = stats_interval != 0 ? next_stats : deadline;
      if (timed && deadline < wake) {
        wake = deadline;
      }
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now);
      timespec wait{};
      wait.tv_sec = static_cast<time_t>(left.count() / 1'000'000'000);
      wait.tv_nsec = static_cast<long>(left.count() % 1'000'000'000);
      const int caught = sigtimedwait(&signals, nullptr, &wait);
      if (caught > 0) {
        std::cout << "fhg_serve: signal " << caught << ", shutting down\n";
        break;
      }
      if (errno != EAGAIN && errno != EINTR) {
        break;
      }
    }
  }
  server.stop();
  if (stats_server) {
    stats_server->stop();
  }
  service.drain();
  const std::vector<obs::MetricSample> samples = serving_samples(service);
  std::cout << "fhg_serve: served " << server.connections_accepted() << " connections, "
            << obs::sum_series(samples, "fhg_service_accepted_total") << " accepted requests";
  if (stats_server) {
    std::cout << ", " << stats_server->scrapes() << " scrapes";
  }
  std::cout << "\n" << obs::to_text(samples);
  const std::vector<obs::TraceSample> traces = service.traces().snapshot();
  if (!traces.empty()) {
    std::cout << "slowest traces:\n" << obs::to_text(traces);
  }
  return 0;
}

/// The connection-scaling pool: `count` open-but-idle connections held for
/// the whole hot phase.  Each is probed once on open (one ListInstances
/// roundtrip over the raw transport, so the connection is proven live before
/// it goes quiet); `revalidate` probes a 1-in-16 sample again after sitting
/// idle, proving the server kept every parked connection serviceable.
class IdlePool {
 public:
  IdlePool(std::string host, std::uint16_t port, std::size_t count, std::size_t openers)
      : host_(std::move(host)), port_(port), transports_(count) {
    if (count == 0) {
      return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(openers);
    for (std::size_t t = 0; t < std::max<std::size_t>(1, openers); ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < transports_.size();
             i = next.fetch_add(1)) {
          try {
            auto transport = std::make_unique<api::SocketTransport>(host_, port_);
            if (!probe(*transport, i + 1)) {
              failed_.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            transports_[i] = std::move(transport);
          } catch (const std::exception&) {
            failed_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  /// Probes every 16th parked connection again; stale or dead ones count as
  /// failures.  Call after the hot phase, before the pool closes.
  void revalidate() {
    for (std::size_t i = 0; i < transports_.size(); i += 16) {
      if (!transports_[i] || !probe(*transports_[i], 1'000'000 + i)) {
        failed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        revalidated_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return transports_.size(); }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_.load(); }
  [[nodiscard]] std::uint64_t revalidated() const noexcept { return revalidated_.load(); }

 private:
  static bool probe(api::SocketTransport& transport, std::uint64_t request_id) {
    const auto frame = api::encode_request(request_id, api::Request{api::ListInstancesRequest{}});
    std::vector<std::uint8_t> reply;
    if (!transport.roundtrip(frame, reply).ok()) {
      return false;
    }
    api::DecodedResponse decoded;
    return api::decode_response(reply, decoded).ok() && decoded.response.ok() &&
           decoded.request_id == request_id;
  }

  std::string host_;
  std::uint16_t port_;
  std::vector<std::unique_ptr<api::SocketTransport>> transports_;
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> revalidated_{0};
};

// -------------------------------------------------------------------- load --

int run_load(std::map<std::string, std::string> options) {
  if (!options.count("connect")) {
    usage("load mode needs --connect HOST:PORT");
  }
  const std::string target = options["connect"];
  const auto colon = target.rfind(':');
  if (colon == std::string::npos) {
    usage("--connect wants HOST:PORT, got '" + target + "'");
  }
  const std::string host = target.substr(0, colon);
  const auto port = static_cast<std::uint16_t>(
      std::strtoul(target.substr(colon + 1).c_str(), nullptr, 10));

  // --steps mirrors the server's flag so the derived horizon (and hence the
  // request stream) matches what the server was started with.
  const workload::ScenarioGenerator generator(
      workload_spec(options, uint_option(options, "steps", 128)));
  const std::uint64_t requests = uint_option(options, "requests", 100'000);
  const auto clients =
      std::max<std::size_t>(1, static_cast<std::size_t>(uint_option(options, "clients", 4)));
  const std::uint64_t base_round = uint_option(options, "round", 1);
  const auto idle_connections =
      static_cast<std::size_t>(uint_option(options, "idle-connections", 0));
  const auto openers = static_cast<std::size_t>(uint_option(options, "openers", 16));

  // Connection-scaling phase 1: park the idle pool first, so the hot
  // clients below run against a server already holding every connection.
  const auto idle_start = Clock::now();
  IdlePool idle(host, port, idle_connections, openers);
  if (idle.size() != 0) {
    std::cout << "idle pool: " << idle.size() << " connections opened and probed in "
              << seconds_since(idle_start) << "s (" << idle.failed() << " failures)\n";
  }

  // --retry N arms each client's bounded reconnect-retry loop (idempotent
  // kinds only): the knob that lets a load run ride out a backend kill when
  // the target is a cluster router.
  api::RetryPolicy retry;
  retry.max_retries = static_cast<std::size_t>(uint_option(options, "retry", 0));
  const auto start = Clock::now();
  const LoadTally tally = fan_out(
      generator, requests, clients, base_round,
      [&] { return std::make_unique<api::SocketTransport>(host, port); }, retry);
  print_tally("load (" + std::to_string(clients) + " connections to " + target + ")", tally,
              seconds_since(start));

  // Phase 2: the parked connections sat silent through the whole hot burst;
  // a sample must still answer.
  if (idle.size() != 0) {
    idle.revalidate();
    std::cout << "idle pool: " << idle.revalidated()
              << " parked connections revalidated after the hot phase ("
              << idle.failed() << " total failures)\n";
  }
  // The client side's own wire telemetry (codec + socket counters live on
  // the process-global registry), through the same shared formatter the
  // server uses — not a second hand-rolled table.
  std::cout << "client wire metrics:\n" << obs::to_text(obs::Registry::global().snapshot());
  if (tally.failed != 0) {
    std::cerr << "fhg_serve: FAIL — " << tally.failed << " requests failed unexpectedly\n";
    return 1;
  }
  if (idle.failed() != 0) {
    std::cerr << "fhg_serve: FAIL — " << idle.failed()
              << " idle-pool connections failed to open, probe, or revalidate\n";
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------------- stats --

int run_stats(std::map<std::string, std::string> options) {
  if (!options.count("connect")) {
    usage("stats mode needs --connect HOST:PORT");
  }
  const std::string target = options["connect"];
  const auto colon = target.rfind(':');
  if (colon == std::string::npos) {
    usage("--connect wants HOST:PORT, got '" + target + "'");
  }
  const std::string host = target.substr(0, colon);
  const auto port = static_cast<std::uint16_t>(
      std::strtoul(target.substr(colon + 1).c_str(), nullptr, 10));

  api::GetStatsRequest request;
  request.include_histograms = uint_option(options, "histograms", 1) != 0;
  request.include_traces = uint_option(options, "traces", 1) != 0;
  try {
    api::Client client(std::make_unique<api::SocketTransport>(host, port));
    const api::Result<api::GetStatsResponse> result = client.get_stats(request);
    if (!result.ok()) {
      std::cerr << "fhg_serve: GetStats failed: " << result.status.name() << " ("
                << result.status.detail << ")\n";
      return 1;
    }
    std::cout << obs::to_text(result.value.metrics);
    if (!result.value.traces.empty()) {
      std::cout << "slowest traces:\n" << obs::to_text(result.value.traces);
    }
  } catch (const std::exception& e) {
    std::cerr << "fhg_serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------- loopback --

int run_loopback(std::map<std::string, std::string> options) {
  const std::uint64_t steps = uint_option(options, "steps", 64);
  const workload::ScenarioSpec spec = workload_spec(options, steps);
  const workload::ScenarioGenerator generator(spec);
  const auto service_shards =
      static_cast<std::size_t>(uint_option(options, "service-shards", 4));
  const std::uint64_t requests = uint_option(options, "requests", 20'000);
  const auto clients =
      std::max<std::size_t>(1, static_cast<std::size_t>(uint_option(options, "clients", 4)));

  // Two identical fleets: one behind TCP loopback, one behind the
  // in-process transport.  Identical request streams must yield
  // byte-identical response frames — the "one protocol, two transports"
  // acceptance gate.
  auto socket_engine = build_fleet(generator, 32, 0, steps);
  auto inproc_engine = build_fleet(generator, 32, 0, steps);
  service::Service socket_service(*socket_engine, {.shards = service_shards});
  service::Service inproc_service(*inproc_engine, {.shards = service_shards});
  api::SocketServer server(socket_service, {});
  std::cout << "fhg_serve loopback: " << workload::scenario_name(spec) << ", socket on "
            << server.host() << ":" << server.port() << "\n";

  api::SocketTransport socket_transport(server.host(), server.port());
  api::InProcessTransport inproc_transport(inproc_service);

  // Phase 1 — single-threaded equivalence sweep over every request kind:
  // the seeded stream (queries + mutations) plus a lifecycle cycle
  // (create → query → list → snapshot → erase), frame-compared.
  auto stream = generator.request_stream(
      static_cast<std::size_t>(std::min<std::uint64_t>(requests, 20'000)), 7);
  const std::string probe = "loopback-probe";
  stream.push_back(api::CreateInstanceRequest{
      probe, 8, {{0, 1}, {1, 2}, {2, 3}}, engine::InstanceSpec{}});
  stream.push_back(api::IsHappyRequest{probe, 1, 3});
  stream.push_back(api::NextGatheringRequest{probe, 2, 0});
  stream.push_back(api::ListInstancesRequest{});
  stream.push_back(api::SnapshotRequest{});
  stream.push_back(api::EraseInstanceRequest{probe});
  stream.push_back(api::EraseInstanceRequest{probe});  // second erase: typed kNotFound
  const auto equivalence_start = Clock::now();
  std::uint64_t diverged = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto frame = api::encode_request(i + 1, stream[i]);
    std::vector<std::uint8_t> socket_reply;
    std::vector<std::uint8_t> inproc_reply;
    const api::Status socket_status = socket_transport.roundtrip(frame, socket_reply);
    const api::Status inproc_status = inproc_transport.roundtrip(frame, inproc_reply);
    if (!socket_status.ok() || !inproc_status.ok() || socket_reply != inproc_reply) {
      ++diverged;
    }
  }
  std::cout << "equivalence: " << stream.size() << " frames in "
            << seconds_since(equivalence_start) << "s, " << diverged << " diverged\n";

  // Both engines have now served the identical stream, so their whole state
  // must match too — not only the answers the frames carried.
  const bool engines_identical = socket_engine->snapshot() == inproc_engine->snapshot();
  std::cout << "engine state: socket and in-process snapshots "
            << (engines_identical ? "byte-identical" : "DIFFER") << "\n";

  // Phase 2 — concurrent completeness: hammer the socket server from
  // `clients` connections; every request must complete without an
  // unexpected failure.
  const auto load_start = Clock::now();
  const LoadTally tally = fan_out(generator, requests, clients, 100, [&] {
    return std::make_unique<api::SocketTransport>(server.host(), server.port());
  });
  print_tally("socket load (" + std::to_string(clients) + " connections)", tally,
              seconds_since(load_start));

  // Phase 3 — served answers against the engine itself.  The transports
  // share the service code, so phase 1 cannot see an answer the service
  // gets wrong on both; with the load finished no mutation is in flight,
  // and every answer served over the socket must equal a direct call.
  const auto sample_size = static_cast<std::size_t>(std::min<std::uint64_t>(requests, 5'000));
  const auto sample_snapshot = socket_engine->query_snapshot();
  const workload::ProbeRound sample = generator.probes(*sample_snapshot, sample_size, 2);
  api::Client sample_client(std::make_unique<api::SocketTransport>(server.host(), server.port()));
  std::size_t mismatched = 0;
  for (const engine::Probe& sampled : sample.membership) {
    const std::string& name = sample_snapshot->instance(sampled.instance)->name();
    const auto served = sample_client.is_happy(name, sampled.node, sampled.holiday);
    mismatched += !served.ok() ||
                  served.value != socket_engine->is_happy(name, sampled.node, sampled.holiday);
  }
  for (const engine::Probe& sampled : sample.next_gathering) {
    const std::string& name = sample_snapshot->instance(sampled.instance)->name();
    const auto served = sample_client.next_gathering(name, sampled.node, sampled.holiday);
    const auto direct = socket_engine->next_gathering(name, sampled.node, sampled.holiday);
    mismatched += !served.ok() || served.value != direct.value_or(engine::kNoGathering);
  }
  std::cout << "served check: " << sample.membership.size() + sample.next_gathering.size()
            << " sampled answers, " << mismatched << " differ from the direct engine\n";

  server.stop();
  socket_service.drain();
  inproc_service.drain();

  // Phase 4 — the socket-served engine's state after all of the above.
  // Sampled fairness audits: every period must stay within the paper's
  // §4/§5 gap bound.
  const auto instances = socket_engine->registry().all_sorted();
  std::size_t audited = 0;
  std::size_t violations = 0;
  for (std::size_t i = 0; i < instances.size();
       i += std::max<std::size_t>(1, instances.size() / 8)) {
    const auto audit = instances[i]->audit();
    ++audited;
    if (!audit.bounds_respected) {
      ++violations;
      std::cerr << "fhg_serve: " << instances[i]->name() << " (" << instances[i]->scheduler_name()
                << ") worst gap " << audit.worst_gap << " exceeds its bound\n";
    }
  }
  std::cout << "audit: " << audited << " sampled tenants, " << violations
            << " over their gap bound\n";

  // Snapshot → restore must round-trip byte-identically, and the restored
  // engine must answer a fresh probe round exactly like the original —
  // including schedule versions produced by in-place mutations (restore
  // replays each tenant's mutation log).
  const std::vector<std::uint8_t> bytes = socket_engine->snapshot();
  engine::Engine restored;
  bool restore_identical = false;
  bool requery_ok = false;
  try {
    restored.load_snapshot(bytes);
    restore_identical = restored.snapshot() == bytes;
    const workload::ProbeRound round = generator.probes(
        *socket_engine->query_snapshot(),
        static_cast<std::size_t>(std::min<std::uint64_t>(requests, 20'000)), 1);
    requery_ok = socket_engine->query_batch(round.membership) ==
                     restored.query_batch(round.membership) &&
                 socket_engine->next_gathering_batch(round.next_gathering) ==
                     restored.next_gathering_batch(round.next_gathering);
  } catch (const std::exception& e) {
    std::cerr << "fhg_serve: restore: " << e.what() << "\n";
  }
  std::cout << "restore: " << bytes.size() << " snapshot bytes, round trip "
            << (restore_identical ? "byte-identical" : "MISMATCH") << ", re-query "
            << (requery_ok ? "match" : "MISMATCH") << "\n";

  const auto fail = [](const std::string& what) {
    std::cerr << "fhg_serve: FAIL — " << what << "\n";
    return false;
  };
  bool ok = true;
  if (diverged != 0) {
    ok = fail(std::to_string(diverged) + " response frames diverged between transports");
  }
  if (!engines_identical) {
    ok = fail("socket and in-process engine snapshots differ after the equivalence sweep");
  }
  if (tally.failed != 0) {
    ok = fail(std::to_string(tally.failed) + " socket requests failed unexpectedly");
  }
  if (mismatched != 0) {
    ok = fail(std::to_string(mismatched) + " served answers differ from the direct engine");
  }
  if (violations != 0) {
    ok = fail(std::to_string(violations) + " sampled fairness audits violated their gap bound");
  }
  if (!restore_identical) {
    ok = fail("snapshot restore round trip not byte-identical");
  }
  if (!requery_ok) {
    ok = fail("restored engine answers probes differently");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage("missing mode (serve | load | loopback | stats)");
  }
  const std::string mode = argv[1];
  const auto known = mode_options().find(mode);
  if (known == mode_options().end()) {
    usage("unknown mode '" + mode + "'");
  }
  auto options =
      examples::parse_options(argc, argv, 2, known->second, " for " + mode + " mode", usage);
  if (mode == "serve") {
    return run_serve(std::move(options));
  }
  if (mode == "load") {
    return run_load(std::move(options));
  }
  if (mode == "loopback") {
    return run_loopback(std::move(options));
  }
  return run_stats(std::move(options));
}
