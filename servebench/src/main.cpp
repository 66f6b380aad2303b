// servebench — the serving stack's end-to-end benchmark.
//
// One process hosts the server side (engine → service → epoll socket server,
// and for `write-routed` a cluster router over two WAL-backed backends) and
// drives it through ONE closed-loop client connection (`api::Client` over
// `api::SocketTransport`).  Request streams are generated from the seed
// before timing starts; a warm-up stream runs before the timed region.
//
//   servebench --workload read-tcp --seed 1 --seconds 10 --trace 0 --work DIR
//
// `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
// stream twice on one stack — first with span recording off, then on — and
// prints the per-layer metrics derived from the spans, the library's own
// counters, and a replay of the sent requests against a twin `Engine`.
// Every answer is checked against that twin afterwards, outside the timed
// region; the last stdout line is the JSON result.
//
// Resource budget (the noise sources of earlier attempts, removed on
// purpose): the process is pinned to nproc − 1 CPUs before any thread
// starts, every pool the benchmark builds is sized explicitly (engine
// threads = nproc − 1, one service shard, one socket worker, one router
// worker, health prober off), the WAL sits in a fresh directory per stack
// without disk flushes, and all timing is the benchmark's own.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "fhg/api/client.hpp"
#include "fhg/api/protocol.hpp"
#include "fhg/api/socket.hpp"
#include "fhg/cluster/router.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/obs/registry.hpp"
#include "fhg/parallel/thread_pool.hpp"
#include "fhg/service/service.hpp"
#include "fhg/wal/wal.hpp"
#include "fhg/workload/scenario.hpp"
#include "trace.hpp"

#ifndef SERVEBENCH_COMPILER
#define SERVEBENCH_COMPILER "unknown"
#endif
#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace fhg;
using servebench::now_ns;
using servebench::Span;
using servebench::SpanLog;
using servebench::TracingHandler;
using servebench::TracingTransport;

/// Holidays every fleet is stepped before serving; probes target [1, kSteps].
constexpr std::uint64_t kSteps = 128;
/// The benchmark client's trace-id base.  The router's own backend clients
/// mint ids from 1, so ids at or above this base are the benchmark's.
constexpr std::uint64_t kTraceBase = std::uint64_t{1} << 40;
/// Holidays sampled for the independent-set check.
constexpr std::uint64_t kIndependenceSamples = 8;

struct WorkloadConfig {
  const char* name;
  const char* scenario;      ///< `workload::parse_scenario` text; seed and horizon set at run time
  bool routed;               ///< client → router → two WAL-backed backends
  std::size_t stream;        ///< timed requests generated; the loop cycles through them
  std::size_t warmup;        ///< warm-up requests, sent before timing
  int setups;                ///< stack builds per untraced run; setup_s is their median
  std::size_t windows;       ///< slices of an untraced timed region; metrics are window medians
  std::size_t write_every;   ///< 0: the generator's random mix; n: every n-th request a write
  bool check_independence;   ///< check sampled holidays' happy sets on the live graph
};

const WorkloadConfig kWorkloads[] = {
    {"read-tcp", "power-law:fleet=16384", false, std::size_t{1} << 18, 20000, 5, 10, 0, false},
    // One write in eight, not a random quarter: after a write, the first
    // read that reaches each backend takes ~90 µs against ~24 µs otherwise,
    // so a random quarter of writes made ~39% of the reads slow.  That put
    // the read p50 on the slow shoulder of the fast mode, where it moved
    // 25–35 µs from one window to the next.  With a write every eighth
    // request ~28% of the reads are slow: p50 sits inside the fast mode and
    // p90 inside the slow one.
    {"write-routed", "power-law:fleet=512,dynamic=1,mutation=0.125", true, std::size_t{1} << 18,
     4000, 5, 10, 8, false},
    // A quarter writes, not half: a read right after a bulk batch takes
    // ~38 µs against ~11 µs otherwise, and with half writes exactly half the
    // reads pay it, which puts the read p50 on the edge between the two
    // modes (it flipped between 15 and 37 µs across seeds).  The mix is
    // fixed, one write in four: a batch costs ~2000 reads, and over ~1400
    // requests a random mix's write share has a binomial spread of ~±5% of
    // itself, which would move throughput by as much from seed to seed.
    // ~135 requests/s: three windows keep ~300 reads behind each percentile.
    {"storm-256k", "powerlaw-1m:nodes=262144,cmds=512,mutation=0.25", false, 4096, 8, 5, 3, 4,
     true},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "servebench: " << why << "\n"
            << "usage: servebench --workload read-tcp|write-routed|storm-256k --seed N"
               " --seconds S --trace 0|1 [--work DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--work") {
      args.work = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (args.seconds <= 0) {
    usage("--seconds must be positive");
  }
  return args;
}

// -- Resource budget ----------------------------------------------------------

/// CPU placement.  The engine's pools (step workers and the process-wide
/// coloring pool) run on the first nproc − 1 allowed CPUs.  Every thread on
/// the request path — the client, socket workers, service shard and router
/// worker — shares the first of those CPUs: a closed loop over one
/// connection has exactly one request in flight, so extra CPUs on that path
/// buy no parallelism, only cross-CPU wake-ups whose cost varies with the
/// host's scheduling from run to run.
struct Budget {
  unsigned nproc = 1;  ///< CPUs the process was allowed at start
  unsigned cpus = 1;   ///< CPUs the engine pools use: max(1, nproc − 1)
  cpu_set_t engine_cpus{};
  cpu_set_t path_cpu{};
};

void set_thread_cpus(const cpu_set_t& cpus) {
  if (sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

/// Computes the placement and moves the calling thread onto the request
/// path's CPU.  Must run before any thread exists, since threads inherit
/// the mask of the thread that creates them.
Budget pin_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  Budget budget;
  budget.nproc = static_cast<unsigned>(CPU_COUNT(&allowed));
  budget.cpus = budget.nproc > 1 ? budget.nproc - 1 : 1;
  CPU_ZERO(&budget.engine_cpus);
  CPU_ZERO(&budget.path_cpu);
  unsigned taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < budget.cpus; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &budget.engine_cpus);
      if (taken++ == 0) {
        CPU_SET(cpu, &budget.path_cpu);
      }
    }
  }
  // Create the process-wide coloring pool now, on the engine CPUs, rather
  // than lazily from whichever thread first colors a large graph.
  set_thread_cpus(budget.engine_cpus);
  (void)parallel::ThreadPool::shared();
  set_thread_cpus(budget.path_cpu);
  return budget;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Resident memory once freed heap memory is handed back to the kernel.
/// Not the peak: each coloring worker allocates from its own malloc arena,
/// how much freed memory each arena keeps depends on which worker took
/// which chunk, and the storm's peak RSS wandered between 142 and 180 MB
/// across runs while the trimmed figure held within a few percent.
double resident_mb() {
  malloc_trim(0);
  long pages = 0;
  long resident = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  const bool read = statm != nullptr && std::fscanf(statm, "%ld %ld", &pages, &resident) == 2;
  if (statm != nullptr) {
    std::fclose(statm);
  }
  if (!read) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Progress on stderr, stamped with seconds since the first progress line,
/// so a slow phase of a run can be told apart from the timed region.
void progress(const std::string& what) {
  static const std::int64_t start = now_ns();
  std::fprintf(stderr, "servebench: [%7.2fs] %s\n", seconds_between(start, now_ns()), what.c_str());
}

// -- The serving stack ----------------------------------------------------------

/// Builds and steps a fleet.  The calling thread moves to the engine CPUs
/// for the build, so the engine's step pool is created there, and returns
/// to the request path's CPU afterwards.
std::unique_ptr<engine::Engine> build_engine(const workload::ScenarioGenerator& generator,
                                             const Budget& budget) {
  set_thread_cpus(budget.engine_cpus);
  auto engine = std::make_unique<engine::Engine>(
      engine::EngineOptions{.shards = 16, .threads = budget.cpus});
  generator.populate(*engine);
  (void)engine->step_all(kSteps);
  set_thread_cpus(budget.path_cpu);
  return engine;
}

/// One backend process stand-in.  Members are destroyed bottom-up: the
/// listener stops before the service drains, the service drains before the
/// WAL closes, and the engine goes last.
struct Backend {
  std::string id;  ///< the name the router knows it by
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<wal::Manager> wal;
  std::unique_ptr<service::Service> service;
  std::unique_ptr<TracingHandler> traced;
  std::unique_ptr<api::SocketServer> server;
};

std::unique_ptr<Backend> make_backend(const workload::ScenarioGenerator& generator,
                                      const Budget& budget, const std::string& id,
                                      const std::string& wal_dir, SpanLog* log) {
  auto backend = std::make_unique<Backend>();
  backend->id = id;
  backend->engine = build_engine(generator, budget);
  if (!wal_dir.empty()) {
    backend->wal = std::make_unique<wal::Manager>(
        *backend->engine, wal::WalOptions{.dir = wal_dir, .fsync_every = 0});
    // No initial compaction: with fsync_every=0 nothing here is durable, so
    // a recovery-point snapshot has no role, and its fsyncs were the only
    // disk flushes left in set-up (they moved write-routed setup_s by a
    // quarter between runs).
    (void)backend->wal->recover();
    backend->engine->attach_wal(backend->wal.get());
  }
  backend->service = std::make_unique<service::Service>(
      *backend->engine, service::ServiceOptions{.shards = 1, .backend_id = id});
  api::Handler* handler = backend->service.get();
  if (log != nullptr) {
    backend->traced = std::make_unique<TracingHandler>(*backend->service, *log, "service.handle");
    handler = backend->traced.get();
  }
  backend->server =
      std::make_unique<api::SocketServer>(*handler, api::SocketServerOptions{.workers = 1});
  return backend;
}

/// The whole server side.  Destroyed front to back: the front listener and
/// router stop before the backends they forward to.
struct Stack {
  std::vector<std::unique_ptr<Backend>> backends;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<TracingHandler> traced_router;
  std::unique_ptr<api::SocketServer> front;

  [[nodiscard]] std::uint16_t port() const {
    return front ? front->port() : backends.front()->server->port();
  }
};

std::unique_ptr<Stack> build_stack(const WorkloadConfig& config,
                                   const workload::ScenarioGenerator& generator,
                                   const Budget& budget, const std::string& wal_root,
                                   SpanLog* log) {
  auto stack = std::make_unique<Stack>();
  if (!config.routed) {
    stack->backends.push_back(make_backend(generator, budget, "b0", "", log));
    return stack;
  }
  cluster::RouterOptions options;
  for (int i = 0; i < 2; ++i) {
    const std::string name = std::string("b").append(std::to_string(i));
    stack->backends.push_back(make_backend(generator, budget, name, wal_root + "/" + name, log));
    options.backends.push_back(
        cluster::BackendConfig{name, "127.0.0.1", stack->backends.back()->server->port()});
  }
  options.workers = 1;
  options.replicate = true;
  options.probe_interval = std::chrono::milliseconds(0);
  stack->router = std::make_unique<cluster::Router>(std::move(options));
  api::Handler* handler = stack->router.get();
  if (log != nullptr) {
    stack->traced_router = std::make_unique<TracingHandler>(*stack->router, *log, "router.handle");
    handler = stack->traced_router.get();
  }
  stack->front =
      std::make_unique<api::SocketServer>(*handler, api::SocketServerOptions{.workers = 1});
  return stack;
}

// -- The closed-loop client -----------------------------------------------------

/// What one response said, in a form a twin engine's answer can be compared to.
struct Answer {
  bool ok = false;
  std::uint64_t value = 0;     ///< happy flag, next holiday, or commands applied
  std::uint64_t recolors = 0;  ///< mutations only
  std::uint64_t version = 0;   ///< mutations only: table version after the batch
  friend bool operator==(const Answer&, const Answer&) = default;
};

Answer answer_of(const api::Response& response) {
  Answer answer{.ok = response.ok()};
  if (const auto* happy = std::get_if<api::IsHappyResponse>(&response.payload)) {
    answer.value = happy->happy ? 1 : 0;
  } else if (const auto* next = std::get_if<api::NextGatheringResponse>(&response.payload)) {
    answer.value = next->holiday;
  } else if (const auto* mutation = std::get_if<api::ApplyMutationsResponse>(&response.payload)) {
    answer = {true, mutation->applied, mutation->recolors, mutation->table_version};
  }
  return answer;
}

bool is_write(const api::Request& request) {
  return std::holds_alternative<api::ApplyMutationsRequest>(request);
}

/// Reorders `stream` so that every `every`-th request is a write, for as
/// long as both kinds last; `every == 0` keeps the generator's order.
std::vector<api::Request> fixed_mix(std::vector<api::Request> stream, std::size_t every) {
  if (every == 0) {
    return stream;
  }
  std::vector<api::Request> reads;
  std::vector<api::Request> writes;
  for (api::Request& request : stream) {
    (is_write(request) ? writes : reads).push_back(std::move(request));
  }
  std::vector<api::Request> mixed;
  std::size_t r = 0;
  std::size_t w = 0;
  for (std::size_t k = 0;; ++k) {
    const bool write_slot = k % every == every - 1;
    if (write_slot ? w == writes.size() : r == reads.size()) {
      break;
    }
    mixed.push_back(std::move(write_slot ? writes[w++] : reads[r++]));
  }
  return mixed;
}

/// Every request sent, in order, with what came back.
struct Record {
  std::vector<const api::Request*> sent;
  std::vector<Answer> answers;
};

/// One slice of a timed phase.  Reads and writes of window k are
/// `read_us[reads_begin, reads_end)` and `write_us[writes_begin, writes_end)`.
struct Window {
  double elapsed_s = 0;
  double cpu_s = 0;
  std::uint64_t completed = 0;
  std::size_t reads_begin = 0;
  std::size_t reads_end = 0;
  std::size_t writes_begin = 0;
  std::size_t writes_end = 0;
};

/// Quantile `q` of `values[begin, end)`.
double quantile_of(const std::vector<double>& values, std::size_t begin, std::size_t end,
                   double q) {
  std::vector<double> slice(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() + static_cast<std::ptrdiff_t>(end));
  return quantile(slice, q);
}

struct Phase {
  std::uint64_t completed = 0;
  double elapsed_s = 0;
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<Window> windows;

  [[nodiscard]] double throughput() const {
    return ratio(static_cast<double>(completed), elapsed_s);
  }

  /// Median over the windows of `per_window(window)`: a slow stretch that
  /// covers less than half of the run does not move it.
  template <typename F>
  [[nodiscard]] double window_median(F per_window) const {
    std::vector<double> values;
    for (const Window& w : windows) {
      values.push_back(per_window(w));
    }
    return quantile(values, 0.5);
  }

  [[nodiscard]] double read_quantile(double q) const {
    return window_median([&](const Window& w) {
      return quantile_of(read_us, w.reads_begin, w.reads_end, q);
    });
  }

  [[nodiscard]] double write_quantile(double q) const {
    return window_median([&](const Window& w) {
      return quantile_of(write_us, w.writes_begin, w.writes_end, q);
    });
  }
};

class LoadClient {
 public:
  LoadClient(std::uint16_t port, SpanLog* log) : log_(log) {
    std::unique_ptr<api::Transport> transport =
        std::make_unique<api::SocketTransport>("127.0.0.1", port);
    if (log_ != nullptr) {
      auto traced = std::make_unique<TracingTransport>(std::move(transport), *log_);
      traced_ = traced.get();
      transport = std::move(traced);
    }
    client_ = std::make_unique<api::Client>(std::move(transport));
    client_->set_trace_base(kTraceBase);
  }

  /// Sends `stream[cursor++ % size]` until `count` requests have been sent
  /// or, when `seconds > 0`, for `seconds`, cut into `windows` equal slices.
  Phase run(const std::vector<api::Request>& stream, std::size_t& cursor, std::size_t count,
            double seconds, std::size_t windows, Record& record) {
    Phase phase;
    phase.read_us.reserve(std::size_t{1} << 20);
    phase.write_us.reserve(std::size_t{1} << 18);
    const std::int64_t start = now_ns();
    const auto window_ns = static_cast<std::int64_t>(seconds * 1e9 / static_cast<double>(windows));
    Window window;
    std::int64_t window_start = start;
    double window_cpu = process_cpu_s();
    std::int64_t end = start;
    while (seconds > 0 || phase.completed < count) {
      const api::Request& request = stream[cursor++ % stream.size()];
      const bool traced = log_ != nullptr && log_->enabled();
      std::uint64_t span = 0;
      const std::uint64_t trace = client_->trace_base() + client_->next_request_id();
      if (traced) {
        span = log_->reserve_id();
        traced_->set_context(trace, span);
      }
      const std::int64_t t0 = now_ns();
      const api::Response response = client_->call(request);
      end = now_ns();
      if (traced) {
        log_->record(Span{"client.call", t0, end, trace, span, 0});
      }
      (is_write(request) ? phase.write_us : phase.read_us)
          .push_back(static_cast<double>(end - t0) / 1e3);
      record.sent.push_back(&request);
      record.answers.push_back(answer_of(response));
      ++phase.completed;
      ++window.completed;
      if (seconds > 0 &&
          end >= start + window_ns * static_cast<std::int64_t>(phase.windows.size() + 1)) {
        const double cpu_now = process_cpu_s();
        window.elapsed_s = seconds_between(window_start, end);
        window.cpu_s = cpu_now - window_cpu;
        window.reads_end = phase.read_us.size();
        window.writes_end = phase.write_us.size();
        phase.windows.push_back(window);
        window = Window{.reads_begin = window.reads_end, .writes_begin = window.writes_end};
        window_start = end;
        window_cpu = cpu_now;
        if (phase.windows.size() == windows) {
          break;
        }
      }
    }
    phase.elapsed_s = seconds_between(start, end);
    return phase;
  }

 private:
  SpanLog* log_;
  TracingTransport* traced_ = nullptr;
  std::unique_ptr<api::Client> client_;
};

// -- Correctness: replay against a twin engine ------------------------------------

struct Replay {
  std::uint64_t mismatches = 0;
  std::vector<double> engine_ns;      ///< per sent request: the twin's time to answer it
  std::vector<std::uint8_t> is_write;  ///< per sent request: 1 for a mutation batch
  double read_s = 0;
  std::uint64_t reads = 0;
  double mutation_s = 0;
  std::uint64_t batches = 0;
  std::uint64_t commands = 0;
};

/// Replays every sent request, in order, against `twin` through the
/// engine's public calls, timing each one, and counts answers that differ
/// from the served ones.  A single closed-loop connection and per-tenant
/// FIFO order on the server make the in-order replay the exact reference.
Replay replay(engine::Engine& twin, const Record& record) {
  Replay out;
  out.engine_ns.reserve(record.sent.size());
  out.is_write.reserve(record.sent.size());
  for (std::size_t i = 0; i < record.sent.size(); ++i) {
    const api::Request& request = *record.sent[i];
    Answer expected{.ok = true};
    const std::int64_t t0 = now_ns();
    try {
      if (const auto* q = std::get_if<api::IsHappyRequest>(&request)) {
        expected.value = twin.is_happy(q->instance, q->node, q->holiday) ? 1 : 0;
      } else if (const auto* q = std::get_if<api::NextGatheringRequest>(&request)) {
        expected.value =
            twin.next_gathering(q->instance, q->node, q->after).value_or(engine::kNoGathering);
      } else if (const auto* q = std::get_if<api::ApplyMutationsRequest>(&request)) {
        const engine::MutationResult result = twin.apply_mutations(q->instance, q->commands);
        expected = {true, result.applied, result.recolors, result.table_version};
      } else {
        expected.ok = false;
      }
    } catch (const std::exception&) {
      expected.ok = false;
    }
    const std::int64_t t1 = now_ns();
    out.engine_ns.push_back(static_cast<double>(t1 - t0));
    out.is_write.push_back(is_write(request) ? 1 : 0);
    if (const auto* q = std::get_if<api::ApplyMutationsRequest>(&request)) {
      out.mutation_s += seconds_between(t0, t1);
      ++out.batches;
      out.commands += q->commands.size();
    } else {
      out.read_s += seconds_between(t0, t1);
      ++out.reads;
    }
    if (!expected.ok || expected != record.answers[i]) {
      ++out.mismatches;
    }
  }
  return out;
}

/// Tenants whose single-instance snapshot differs between `twin` and any
/// backend holding them.
std::uint64_t snapshot_mismatches(const Stack& stack, engine::Engine& twin,
                                  const workload::ScenarioGenerator& generator) {
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < generator.spec().fleet; ++i) {
    const std::string name = generator.tenant_name(i);
    std::vector<std::uint8_t> expected;
    if (!twin.snapshot_instance(name, expected).ok()) {
      ++mismatches;
      continue;
    }
    std::vector<std::string> holders{"b0"};
    if (stack.router) {
      const auto [primary, replica] = stack.router->route_of(name);
      holders = {primary, replica};
    }
    std::size_t checked = 0;
    for (const auto& backend : stack.backends) {
      if (std::find(holders.begin(), holders.end(), backend->id) == holders.end()) {
        continue;
      }
      ++checked;
      std::vector<std::uint8_t> served;
      if (!backend->engine->snapshot_instance(name, served).ok() || served != expected) {
        ++mismatches;
      }
    }
    if (checked != holders.size()) {
      ++mismatches;  // a holder the ring names is not a backend of this stack
    }
  }
  return mismatches;
}

/// Sampled future holidays whose happy set is not an independent set of the
/// tenant's live graph (recipe graph + applied mutation log) — the paper's
/// guarantee, checked on the served engine.
std::uint64_t independence_violations(engine::Engine& engine, const std::string& name,
                                      std::uint64_t seed) {
  const std::shared_ptr<engine::Instance> instance = engine.find(name);
  if (!instance) {
    return kIndependenceSamples;
  }
  const auto key = [](graph::NodeId u, graph::NodeId v) {
    return (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
  };
  std::unordered_set<std::uint64_t> edges;
  edges.reserve(instance->graph().num_edges() * 2);
  for (const graph::Edge& e : instance->graph().edges()) {
    edges.insert(key(e.first, e.second));
  }
  for (const dynamic::MutationCommand& command : instance->mutation_log()) {
    if (command.op == dynamic::MutationOp::kInsertEdge) {
      edges.insert(key(command.u, command.v));
    } else if (command.op == dynamic::MutationOp::kEraseEdge) {
      edges.erase(key(command.u, command.v));
    }
  }
  const graph::NodeId nodes = instance->num_nodes();
  std::uint64_t violations = 0;
  std::vector<std::uint8_t> happy(nodes);
  const std::uint64_t now = instance->current_holiday();
  std::uint64_t happy_total = 0;
  for (std::uint64_t k = 0; k < kIndependenceSamples; ++k) {
    const std::uint64_t t = now + 1 + (seed * 7919 + k * 104729) % 4096;
    for (graph::NodeId v = 0; v < nodes; ++v) {
      happy[v] = instance->is_happy(v, t) ? 1 : 0;
      happy_total += happy[v];
    }
    for (const std::uint64_t e : edges) {
      if (happy[e >> 32] != 0 && happy[e & 0xffffffffu] != 0) {
        ++violations;
        break;
      }
    }
  }
  progress("independence: " + std::to_string(kIndependenceSamples) + " holidays, mean happy set " +
           std::to_string(happy_total / kIndependenceSamples) + " of " + std::to_string(nodes) +
           " nodes, " + std::to_string(edges.size()) + " live edges, " +
           std::to_string(violations) + " violations");
  return violations;
}

// -- Counters from the library's own registries ------------------------------------

/// Metric samples summed by full name across every registry of the stack.
struct Counters {
  std::map<std::string, double, std::less<>> values;
  std::map<std::string, obs::Histogram, std::less<>> histograms;

  void add(const std::vector<obs::MetricSample>& samples) {
    for (const obs::MetricSample& sample : samples) {
      if (sample.kind == obs::MetricKind::kHistogram) {
        histograms[sample.name].merge(sample.histogram);
      } else {
        values[sample.name] += static_cast<double>(sample.value);
      }
    }
  }

  /// Σ over `base` and every labelled variant `base{...}`.
  [[nodiscard]] double sum(std::string_view base) const {
    double total = 0;
    for (auto it = values.lower_bound(base); it != values.end(); ++it) {
      const std::string_view name = it->first;
      if (name.substr(0, base.size()) != base) {
        break;
      }
      if (name.size() == base.size() || name[base.size()] == '{') {
        total += it->second;
      }
    }
    return total;
  }

  /// Max over `base` and every labelled variant (gauges such as high-water marks).
  [[nodiscard]] double max(std::string_view base) const {
    double best = 0;
    for (auto it = values.lower_bound(base); it != values.end(); ++it) {
      if (std::string_view(it->first).substr(0, base.size()) != base) {
        break;
      }
      best = std::max(best, it->second);
    }
    return best;
  }
};

Counters collect(const Stack& stack) {
  Counters counters;
  counters.add(obs::Registry::global().snapshot());
  for (const auto& backend : stack.backends) {
    counters.add(backend->service->stats({.include_histograms = true, .include_traces = false})
                     .metrics);
  }
  if (stack.router) {
    counters.add(stack.router->metrics().snapshot());
  }
  return counters;
}

// -- Output -------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("servebench: %-28s %14s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// -- Per-layer analysis of a traced phase ---------------------------------------------

/// Fills in the parents the decorators could not see: a front handler span
/// hangs off the client roundtrip with its trace id, and a backend span
/// behind the router off the router span whose interval contains it (one
/// closed-loop connection keeps exactly one client request in flight).
void link_parents(std::vector<Span>& spans, bool routed) {
  std::unordered_map<std::uint64_t, std::uint64_t> roundtrip_of;
  std::vector<const Span*> routed_spans;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "transport.roundtrip") {
      roundtrip_of[s.trace_id] = s.id;
    } else if (routed && std::string_view(s.name) == "router.handle") {
      routed_spans.push_back(&s);
    }
  }
  std::sort(routed_spans.begin(), routed_spans.end(),
            [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; });
  for (Span& s : spans) {
    const std::string_view name = s.name;
    if (name != "service.handle" && name != "router.handle") {
      continue;
    }
    if (s.trace_id >= kTraceBase) {
      const auto it = roundtrip_of.find(s.trace_id);
      s.parent = it == roundtrip_of.end() ? 0 : it->second;
      continue;
    }
    const auto after = std::upper_bound(
        routed_spans.begin(), routed_spans.end(), s.start_ns,
        [](std::int64_t start, const Span* r) { return start < r->start_ns; });
    if (after != routed_spans.begin() && s.end_ns <= (*std::prev(after))->end_ns) {
      s.parent = (*std::prev(after))->id;
    }
  }
}

/// The hop ladder of the read path, from the traced phase's spans: means
/// over the read requests (IsHappy, NextGathering) that have every span, in
/// µs, so each hop is a subtraction — call = codec self + roundtrip;
/// roundtrip = socket self + front handler; a router's handler = router
/// self + the backend handler spans it contains; a service handler =
/// service self + the twin engine's time for the same request.  Reads only:
/// their engine time is a microsecond, so the twin's own run-to-run noise
/// cannot swamp the subtraction the way a 30 ms bulk batch's would.
/// Mutation costs are reported separately (engine.mutation_ms, wal.*).
struct SpanCosts {
  double call_us = 0;
  double codec_self_us = 0;
  double socket_self_us = 0;
  double service_handle_us = 0;
  double service_self_us = 0;
  double router_handle_us = 0;  ///< routed only
  double router_self_us = 0;    ///< routed only
};

/// Call after `link_parents`.
SpanCosts span_costs(const std::vector<Span>& spans, const Replay& replay, bool routed) {
  std::unordered_map<std::uint64_t, double> call;
  std::unordered_map<std::uint64_t, double> roundtrip;
  std::unordered_map<std::uint64_t, const Span*> front;
  std::unordered_map<std::uint64_t, double> backend_us;  ///< router span id → Σ backend spans
  const std::string_view front_name = routed ? "router.handle" : "service.handle";
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    if (name == "client.call") {
      call[s.trace_id] = s.duration_us();
    } else if (name == "transport.roundtrip") {
      roundtrip[s.trace_id] = s.duration_us();
    } else if (name == front_name && s.trace_id >= kTraceBase) {
      front[s.trace_id] = &s;
    } else if (name == "service.handle" && s.parent != 0) {
      backend_us[s.parent] += s.duration_us();
    }
  }
  double sums[7] = {};
  std::uint64_t n = 0;
  for (const auto& [trace, call_us] : call) {
    // Request ids start at 1 and every call takes one, so the trace id
    // names the request's slot in the sent record.
    const std::size_t slot = trace - kTraceBase - 1;
    const auto rt = roundtrip.find(trace);
    const auto fr = front.find(trace);
    if (slot >= replay.is_write.size() || replay.is_write[slot] != 0 || rt == roundtrip.end() ||
        fr == front.end()) {
      continue;
    }
    const double front_us = fr->second->duration_us();
    const double engine_us = replay.engine_ns[slot] / 1e3;
    const double service_us = routed ? backend_us[fr->second->id] : front_us;
    ++n;
    sums[0] += call_us;
    sums[1] += call_us - rt->second;
    sums[2] += rt->second - front_us;
    sums[3] += service_us;
    sums[4] += service_us - engine_us;
    sums[5] += routed ? front_us : 0;
    sums[6] += routed ? front_us - service_us : 0;
  }
  const auto mean = [&](int i) { return ratio(sums[i], static_cast<double>(n)); };
  return SpanCosts{mean(0), mean(1), mean(2), mean(3), mean(4), mean(5), mean(6)};
}

/// State checks after the run; returns how many failed.
std::uint64_t check_state(const WorkloadConfig& config, const Stack& stack, engine::Engine& twin,
                          const workload::ScenarioGenerator& generator, std::uint64_t seed) {
  std::uint64_t failures = 0;
  if (generator.spec().mutation > 0) {
    failures += snapshot_mismatches(stack, twin, generator);
  }
  if (stack.router) {
    failures += static_cast<std::uint64_t>(collect(stack).sum("fhg_cluster_replica_errors_total"));
  }
  if (config.check_independence) {
    failures +=
        independence_violations(*stack.backends.front()->engine, generator.tenant_name(0), seed);
  }
  return failures;
}

std::vector<Metric> end_to_end_metrics(const Phase& timed, std::vector<double>& setup_times,
                                       double rss_mb) {
  return {
      {"throughput_rps",
       timed.window_median(
           [](const Window& w) { return ratio(static_cast<double>(w.completed), w.elapsed_s); }),
       "1/s"},
      {"read_p50_us", timed.read_quantile(0.5), "us"},
      {"read_p90_us", timed.read_quantile(0.9), "us"},
      {"cpu_us_per_req",
       timed.window_median(
           [](const Window& w) { return ratio(w.cpu_s * 1e6, static_cast<double>(w.completed)); }),
       "us"},
      {"rss_mb", rss_mb, "MB"},
      {"setup_s", quantile(setup_times, 0.5), "s"},
  };
}

/// Everything a traced run measured, for `layer_metrics`.
struct TracedRun {
  const Stack& stack;
  const Phase& untraced;
  const Phase& traced;
  const Counters& before;  ///< registries at the start of the traced phase
  const Counters& after;   ///< and at its end
  const SpanCosts& costs;
  const Replay& replay;
  double twin_build_s;
  double gen_s;
};

std::vector<Metric> layer_metrics(const TracedRun& run) {
  const double n = static_cast<double>(run.traced.completed);
  const auto delta = [&](std::string_view name) {
    return run.after.sum(name) - run.before.sum(name);
  };
  const auto histogram = [](const Counters& c, const std::string& name) {
    const auto it = c.histograms.find(name);
    return it == c.histograms.end() ? obs::Histogram{} : it->second;
  };
  obs::Histogram append = histogram(run.after, "fhg_wal_append_us");
  const obs::Histogram append_before = histogram(run.before, "fhg_wal_append_us");
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    append.buckets[b] -= append_before.buckets[b];
  }
  double skew = 0;
  if (run.stack.router) {
    double lo = 0;
    double hi = 0;
    for (std::size_t b = 0; b < run.stack.backends.size(); ++b) {
      const double served =
          delta("fhg_cluster_requests_total{backend=\"b" + std::to_string(b) + "\"}");
      lo = b == 0 ? served : std::min(lo, served);
      hi = std::max(hi, served);
    }
    skew = ratio(hi, lo);
  }
  const double queries =
      delta("fhg_service_queries_total") + delta("fhg_service_next_gatherings_total");
  const double commands = delta("fhg_engine_mutation_commands_total");
  const double rounds = delta("fhg_coloring_parallel_rounds_total");
  const Replay& replay = run.replay;
  return {
      {"client.call_us", run.costs.call_us, "us"},
      {"client.write_p50_us", run.untraced.write_quantile(0.5), "us"},
      {"client.write_p90_us", run.untraced.write_quantile(0.9), "us"},
      {"codec.client_self_us", run.costs.codec_self_us, "us"},
      {"codec.bytes_per_req", ratio(delta("fhg_api_bytes_encoded_total"), n), "bytes"},
      {"socket.self_us", run.costs.socket_self_us, "us"},
      {"socket.wakes_per_req", ratio(delta("fhg_socket_epoll_wakes_total"), n), "count"},
      {"socket.write_stalls", delta("fhg_socket_write_stalls_total"), "count"},
      {"service.handle_us", run.costs.service_handle_us, "us"},
      {"service.self_us", run.costs.service_self_us, "us"},
      {"service.probes_per_batch", ratio(queries, delta("fhg_service_batches_total")), "count"},
      {"service.queue_high_water", run.after.max("fhg_service_queue_high_water"), "count"},
      {"engine.read_us", ratio(replay.read_s * 1e6, static_cast<double>(replay.reads)), "us"},
      {"engine.probes_per_kernel",
       ratio(delta("fhg_engine_batch_probes_total"), delta("fhg_engine_batches_total")), "count"},
      {"engine.mutation_ms", ratio(replay.mutation_s * 1e3, static_cast<double>(replay.batches)),
       "ms"},
      {"engine.mutation_us_per_cmd",
       ratio(replay.mutation_s * 1e6, static_cast<double>(replay.commands)), "us"},
      {"engine.build_s", run.twin_build_s, "s"},
      {"engine.recolors_per_cmd", ratio(delta("fhg_engine_recolors_total"), commands), "count"},
      {"coloring.bulk_batches", delta("fhg_coloring_bulk_batches_total"), "count"},
      {"coloring.inplace_batches", delta("fhg_coloring_inplace_batches_total"), "count"},
      {"coloring.parallel_rounds", rounds, "count"},
      {"coloring.conflicts_per_round", ratio(delta("fhg_coloring_conflicts_total"), rounds),
       "count"},
      {"wal.append_us", static_cast<double>(append.quantile(0.5)), "us"},
      {"wal.bytes_per_cmd", ratio(delta("fhg_wal_append_bytes_total"), commands), "bytes"},
      {"wal.fsyncs_per_batch", ratio(delta("fhg_wal_fsyncs_total"), delta("fhg_wal_appends_total")),
       "count"},
      {"router.handle_us", run.costs.router_handle_us, "us"},
      {"router.self_us", run.costs.router_self_us, "us"},
      {"cluster.retries", delta("fhg_cluster_retries_total"), "count"},
      {"cluster.failovers", delta("fhg_cluster_failovers_total"), "count"},
      {"cluster.replica_errors", delta("fhg_cluster_replica_errors_total"), "count"},
      {"cluster.backend_skew", skew, "ratio"},
      {"obs.trace_overhead", 1 - ratio(run.traced.throughput(), run.untraced.throughput()),
       "ratio"},
      {"workload.gen_s", run.gen_s, "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadConfig* config = nullptr;
  for (const WorkloadConfig& candidate : kWorkloads) {
    if (args.workload == candidate.name) {
      config = &candidate;
    }
  }
  if (config == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  try {
    const Budget budget = pin_cpus();
    std::printf(
        "servebench: profile {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d, \"nproc\": %u, \"engine_cpus\": %u, \"path_cpus\": 1, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
        config->name, static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
        args.trace ? 1 : 0, budget.nproc, budget.cpus, SERVEBENCH_COMPILER,
        SERVEBENCH_BUILD_TYPE);

    auto spec = workload::parse_scenario(config->scenario);
    if (!spec) {
      throw std::logic_error(std::string("bad scenario ") + config->scenario);
    }
    spec->seed = args.seed;
    spec->horizon = kSteps;
    const workload::ScenarioGenerator generator(*spec);

    // Streams: generated before anything is timed.
    const std::int64_t gen_start = now_ns();
    const std::vector<api::Request> warmup =
        fixed_mix(generator.request_stream(config->warmup, 1), config->write_every);
    const std::vector<api::Request> stream =
        fixed_mix(generator.request_stream(config->stream, 0), config->write_every);
    const double gen_s = seconds_between(gen_start, now_ns());
    progress("streams generated");

    const std::filesystem::path wal_root =
        std::filesystem::path(args.work) / ("wal-" + std::to_string(getpid()));
    SpanLog log;
    SpanLog* log_ptr = nullptr;
    if (args.trace) {
      log.reserve(4 * config->stream);  // client, roundtrip and one or two handler spans
      log_ptr = &log;
    }

    // Set-up: fleet build + step (+ WAL recovery point) + listeners bound.
    // Untraced runs build the stack several times and report the median.
    std::vector<double> setup_times;
    std::unique_ptr<Stack> stack;
    const int setups = args.trace ? 1 : config->setups;
    for (int k = 0; k < setups; ++k) {
      stack.reset();
      std::filesystem::remove_all(wal_root);
      const std::int64_t t0 = now_ns();
      stack = build_stack(*config, generator, budget, wal_root.string(), log_ptr);
      setup_times.push_back(seconds_between(t0, now_ns()));
      progress("stack built in " + number(setup_times.back()) + " s");
    }

    Record record;
    // Generous: untouched capacity costs address space, not resident memory,
    // and a reallocation inside the timed region would stall one request.
    record.sent.reserve(config->warmup + 4 * config->stream);
    record.answers.reserve(config->warmup + 4 * config->stream);
    auto client = std::make_unique<LoadClient>(stack->port(), log_ptr);
    std::size_t warm_cursor = 0;
    (void)client->run(warmup, warm_cursor, warmup.size(), 0, 1, record);
    progress("warm-up done");

    // The timed region.  A traced run splits it: recording off, then on.
    std::size_t cursor = 0;
    Phase timed;
    Phase traced;
    Counters before;
    Counters after;
    if (!args.trace) {
      timed = client->run(stream, cursor, 0, args.seconds, config->windows, record);
    } else {
      const std::size_t half = std::max<std::size_t>(1, config->windows / 2);
      timed = client->run(stream, cursor, 0, args.seconds / 2, half, record);
      before = collect(*stack);
      log.set_enabled(true);
      traced = client->run(stream, cursor, 0, args.seconds / 2, half, record);
      log.set_enabled(false);
      after = collect(*stack);
    }
    const double rss_mb = resident_mb();
    client.reset();
    std::string rates;
    for (const Window& w : timed.windows) {
      rates.append(" ").append(
          number(std::round(ratio(static_cast<double>(w.completed), w.elapsed_s))));
    }
    progress("timed region done; requests/s per window:" + rates);

    // Correctness, outside the timed region.
    const std::int64_t twin_start = now_ns();
    const std::unique_ptr<engine::Engine> twin = build_engine(generator, budget);
    const double twin_build_s = seconds_between(twin_start, now_ns());
    const Replay replayed = replay(*twin, record);
    const std::uint64_t state_failures =
        check_state(*config, *stack, *twin, generator, args.seed);
    const std::uint64_t attempted = record.sent.size();
    const std::uint64_t failed = replayed.mismatches + state_failures;
    std::printf("servebench: %llu requests checked against the twin engine, %llu mismatched, "
                "%llu state-check failures\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(replayed.mismatches),
                static_cast<unsigned long long>(state_failures));

    std::vector<Metric> metrics;
    if (!args.trace) {
      std::printf("servebench: write_p50_us %s write_p90_us %s (%zu writes, %zu reads)\n",
                  number(timed.write_quantile(0.5)).c_str(),
                  number(timed.write_quantile(0.9)).c_str(), timed.write_us.size(),
                  timed.read_us.size());
      metrics = end_to_end_metrics(timed, setup_times, rss_mb);
    } else {
      link_parents(log.spans(), config->routed);
      const SpanCosts costs = span_costs(log.spans(), replayed, config->routed);
      const std::string spans_path =
          (std::filesystem::path(args.work) /
           (std::string("spans-") + config->name + "-" + std::to_string(args.seed) + ".tsv"))
              .string();
      if (!log.write(spans_path)) {
        throw std::runtime_error("cannot write " + spans_path);
      }
      std::printf("servebench: %zu spans written to %s\n", log.spans().size(), spans_path.c_str());
      metrics = layer_metrics(
          {*stack, timed, traced, before, after, costs, replayed, twin_build_s, gen_s});
    }
    stack.reset();
    std::filesystem::remove_all(wal_root);
    progress("stack stopped");
    print_result(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
}
