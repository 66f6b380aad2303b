// fhg_router — the cluster front door: a consistent-hash router/proxy over
// N running `fhg_serve` backends, speaking the same wire protocol as the
// backends it shields.  Modes:
//
//   route     Run the proxy: build the ring from --backends, listen on
//             --port, forward every typed request per the routing rules
//             (reads to the owner with replica failover, writes mirrored
//             primary+replica, list fan-out), probe backend health, evict /
//             re-register / migrate as the fleet changes.  --stats-port
//             serves the `fhg_cluster_*` registry as Prometheus text.
//
//   topology  Ask a running router (or compute locally from --backends)
//             where instances live: ring members, per-backend health, and
//             the (primary, replica) placement of --instance, derived from
//             the same fixed FNV-1a ring every router builds.
//
//   drain     Send `DrainBackend` to a running router: migrate every
//             instance off --backend and pin it out of the ring.
//
// Example (three backends, then kill one and watch the ring heal):
//
//   fhg_serve serve --backend-id b0 --port 7430 --workload power-law:fleet=64 &
//   fhg_serve serve --backend-id b1 --port 7431 --fleet 0 &
//   fhg_serve serve --backend-id b2 --port 7432 --fleet 0 &
//   fhg_router route --backends b0=127.0.0.1:7430,b1=127.0.0.1:7431,b2=127.0.0.1:7432
//               ... --port 7440 --stats-port 7441 &
//   fhg_serve load --connect 127.0.0.1:7440 --workload power-law:fleet=64 --retry 4
//   kill -9 %2 && sleep 1
//   fhg_router topology --connect 127.0.0.1:7440 --backends b0=...,b1=...,b2=...

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fhg/api/client.hpp"
#include "fhg/api/codec.hpp"
#include "fhg/api/socket.hpp"
#include "fhg/cluster/ring.hpp"
#include "fhg/cluster/router.hpp"
#include "fhg/obs/format.hpp"
#include "fhg/obs/http.hpp"
#include "fhg/obs/registry.hpp"

#include "cli_options.hpp"

namespace {

using namespace fhg;
using examples::uint_option;

[[noreturn]] void usage(const std::string& error) {
  std::cerr
      << "fhg_router: " << error << "\n"
      << "usage: fhg_router route    --backends NAME=HOST:PORT[,...]\n"
      << "                           [--host H] [--port P] [--port-file PATH]\n"
      << "                           [--stats-port P] [--vnodes N] [--workers N]\n"
      << "                           [--probe-interval-ms N] [--probe-failures N]\n"
      << "                           [--retry N] [--replicate 0|1] [--router-id NAME]\n"
      << "       fhg_router topology [--connect HOST:PORT] --backends NAME=HOST:PORT[,...]\n"
      << "                           [--instance NAME] [--vnodes N]\n"
      << "       fhg_router drain    --connect HOST:PORT --backend NAME\n";
  std::exit(2);
}

/// The options each mode reads.
const std::map<std::string, std::set<std::string>>& mode_options() {
  static const std::map<std::string, std::set<std::string>> modes{
      {"route",
       {"backends", "host", "port", "port-file", "stats-port", "vnodes", "workers",
        "probe-interval-ms", "probe-failures", "retry", "replicate", "router-id"}},
      {"topology", {"connect", "backends", "instance", "vnodes"}},
      {"drain", {"connect", "backend"}},
  };
  return modes;
}

/// Splits `HOST:PORT`.
std::pair<std::string, std::uint16_t> parse_endpoint(const std::string& target) {
  const auto colon = target.rfind(':');
  if (colon == std::string::npos) {
    usage("endpoint wants HOST:PORT, got '" + target + "'");
  }
  return {target.substr(0, colon),
          static_cast<std::uint16_t>(
              std::strtoul(target.substr(colon + 1).c_str(), nullptr, 10))};
}

/// Parses `NAME=HOST:PORT[,NAME=HOST:PORT...]`.
std::vector<cluster::BackendConfig> parse_backends(const std::string& spec) {
  std::vector<cluster::BackendConfig> backends;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string entry = spec.substr(begin, end - begin);
    if (!entry.empty()) {
      const auto equals = entry.find('=');
      if (equals == std::string::npos) {
        usage("backend wants NAME=HOST:PORT, got '" + entry + "'");
      }
      const auto [host, port] = parse_endpoint(entry.substr(equals + 1));
      backends.push_back(
          cluster::BackendConfig{entry.substr(0, equals), host, port});
    }
    begin = end + 1;
  }
  if (backends.empty()) {
    usage("--backends parsed to an empty list");
  }
  return backends;
}

// ------------------------------------------------------------------- route --

int run_route(std::map<std::string, std::string> options) {
  if (!options.count("backends")) {
    usage("route mode needs --backends NAME=HOST:PORT[,...]");
  }
  // Block shutdown signals before any thread exists (router workers, prober,
  // socket loops) so sigwait below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  cluster::RouterOptions router_options;
  router_options.backends = parse_backends(options["backends"]);
  router_options.vnodes = static_cast<std::size_t>(uint_option(options, "vnodes", 64));
  router_options.workers = static_cast<std::size_t>(uint_option(options, "workers", 4));
  router_options.replicate = uint_option(options, "replicate", 1) != 0;
  router_options.retry.max_retries =
      static_cast<std::size_t>(uint_option(options, "retry", 2));
  router_options.probe_interval =
      std::chrono::milliseconds(uint_option(options, "probe-interval-ms", 200));
  router_options.probe_failures_to_evict =
      static_cast<std::size_t>(uint_option(options, "probe-failures", 2));
  if (options.count("router-id")) {
    router_options.router_id = options["router-id"];
  }

  cluster::Router router(std::move(router_options));
  api::SocketServerOptions socket_options;
  if (options.count("host")) {
    socket_options.host = options["host"];
  }
  socket_options.port = static_cast<std::uint16_t>(uint_option(options, "port", 0));
  api::SocketServer server(router, socket_options);
  std::cout << "fhg_router: ring of " << router.ring_members().size() << " backends, "
            << "listening on " << server.host() << ":" << server.port() << " (protocol v"
            << api::kProtocolVersion << ")\n"
            << std::flush;

  std::unique_ptr<obs::StatsHttpServer> stats_server;
  if (options.count("stats-port")) {
    obs::StatsHttpOptions stats_options;
    if (options.count("host")) {
      stats_options.host = options["host"];
    }
    stats_options.port = static_cast<std::uint16_t>(uint_option(options, "stats-port", 0));
    stats_server = std::make_unique<obs::StatsHttpServer>(
        [&router] {
          // The cluster registry plus the process-global transport counters
          // (the router is itself a heavy wire client).
          std::vector<obs::MetricSample> samples = router.metrics().snapshot();
          const auto transport = obs::Registry::global().snapshot();
          samples.insert(samples.end(), transport.begin(), transport.end());
          return obs::to_prometheus(samples);
        },
        stats_options);
    std::cout << "fhg_router: metrics on http://" << stats_options.host << ":"
              << stats_server->port() << "/metrics\n"
              << std::flush;
  }

  // Atomic publish, like fhg_serve: line 1 the protocol port, line 2 (when
  // --stats-port was given) the metrics port.
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
      std::cerr << "fhg_router: cannot publish port file " << path << "\n";
    }
  }

  int caught = 0;
  sigwait(&signals, &caught);
  std::cout << "fhg_router: signal " << caught << ", shutting down\n";
  server.stop();
  if (stats_server) {
    stats_server->stop();
  }
  router.stop();
  std::cout << obs::to_text(router.metrics().snapshot());
  return 0;
}

// ---------------------------------------------------------------- topology --

int run_topology(std::map<std::string, std::string> options) {
  if (!options.count("backends")) {
    usage("topology mode needs --backends NAME=HOST:PORT[,...]");
  }
  const auto backends = parse_backends(options["backends"]);
  // The placement is a pure function of (backend names, vnodes, instance
  // name) — every router with this config computes the same ring, so the
  // CLI can answer placement questions without the router being up.
  cluster::HashRing ring(static_cast<std::size_t>(uint_option(options, "vnodes", 64)));
  for (const auto& backend : backends) {
    ring.add_node(backend.name);
  }
  std::cout << "ring (" << ring.size() << " backends):";
  for (const auto& name : ring.nodes()) {
    std::cout << " " << name;
  }
  std::cout << "\n";
  if (options.count("instance")) {
    const std::string& instance = options["instance"];
    std::cout << "instance '" << instance << "': primary " << ring.owner_of(instance)
              << ", replica " << ring.successor_of(instance) << "\n";
  }
  if (!options.count("connect")) {
    return 0;
  }
  // Live view: the running router's merged tenant list and cluster metrics.
  const auto [host, port] = parse_endpoint(options["connect"]);
  try {
    api::Client client(std::make_unique<api::SocketTransport>(host, port));
    const auto hello = client.hello();
    if (hello.ok()) {
      std::cout << "router '" << hello.value.backend << "' speaks protocol v"
                << hello.value.min_version << "-v" << hello.value.max_version << "\n";
    }
    const auto listed = client.list_instances();
    if (listed.ok()) {
      std::cout << listed.value.size() << " instances reachable through the router\n";
    }
    api::GetStatsRequest stats_request;
    stats_request.include_histograms = false;
    stats_request.include_traces = false;
    const auto stats = client.get_stats(stats_request);
    if (stats.ok()) {
      std::cout << obs::to_text(stats.value.metrics);
    }
  } catch (const std::exception& e) {
    std::cerr << "fhg_router: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------------- drain --

int run_drain(std::map<std::string, std::string> options) {
  if (!options.count("connect") || !options.count("backend")) {
    usage("drain mode needs --connect HOST:PORT and --backend NAME");
  }
  const auto [host, port] = parse_endpoint(options["connect"]);
  try {
    api::Client client(std::make_unique<api::SocketTransport>(host, port));
    const auto drained = client.drain_backend(options["backend"]);
    if (!drained.ok()) {
      std::cerr << "fhg_router: drain failed: " << drained.status.name() << " ("
                << drained.status.detail << ")\n";
      return 1;
    }
    std::cout << "fhg_router: drained '" << options["backend"] << "', "
              << drained.value << " migrations\n";
  } catch (const std::exception& e) {
    std::cerr << "fhg_router: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage("missing mode (route | topology | drain)");
  }
  const std::string mode = argv[1];
  const auto known = mode_options().find(mode);
  if (known == mode_options().end()) {
    usage("unknown mode '" + mode + "'");
  }
  auto options =
      examples::parse_options(argc, argv, 2, known->second, " for " + mode + " mode", usage);
  if (mode == "route") {
    return run_route(std::move(options));
  }
  if (mode == "topology") {
    return run_topology(std::move(options));
  }
  return run_drain(std::move(options));
}
