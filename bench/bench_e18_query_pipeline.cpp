// E18 — the batched lock-free query pipeline vs. one-at-a-time serving
// (google-benchmark; emits machine-readable JSON for the CI perf gate).
//
// Three serving strategies over identical fhg::workload fleets:
//
//   name-lookup — `Engine::is_happy(name, v, t)` per probe: registry hash +
//                 shard mutex on every query (the PR-1 serving path);
//   handle      — `Instance::is_happy` on pre-resolved shared_ptr handles:
//                 no lookup, but probes land in fleet-random order;
//   batch       — `Engine::query_batch` over a `QuerySnapshot`: one atomic
//                 snapshot load, probes answered in (instance, node)-sorted
//                 order against shared structure-of-arrays period tables.
//
// Swept across scenario families (ring / grid / power-law /
// random-geometric) and, for the acceptance configuration, a 10k-instance
// fleet at 64k probes per batch — where `batch` must beat `name-lookup` by
// >= 5x (tools/check_bench.py enforces this from the JSON output).
//
// The small-batch series run `QuerySnapshot::query_batch` on the same
// 10k-instance fleet with 1 and 16 probes per batch — the sizes a
// closed-loop client and the service's coalescing actually produce — and
// with 1250 and 1251: 1250 is the largest batch that still groups by
// comparison sort (1250 * 8 <= 10000), 1251 the smallest that takes the
// counting sort, so that pair compares the two grouping paths at the
// switch.  A batch must not pay for the fleet it does not touch: CI gates
// the 1- and 16-probe rates against `single-name` per probe.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fhg/engine/engine.hpp"
#include "fhg/workload/scenario.hpp"

namespace {

using namespace fhg;

constexpr std::uint64_t kStepDepth = 64;  ///< holidays each fleet is stepped before querying

/// One fully built serving setup, cached across benchmark registrations so a
/// 10k-instance fleet is constructed once, not once per strategy.
struct Fleet {
  explicit Fleet(const workload::ScenarioSpec& spec) : generator(spec) {
    engine = std::make_unique<engine::Engine>(engine::EngineOptions{.shards = 64, .threads = 0});
    generator.populate(*engine);
    (void)engine->step_all(kStepDepth);
    snapshot = engine->query_snapshot();
  }

  workload::ScenarioGenerator generator;
  std::unique_ptr<engine::Engine> engine;
  std::shared_ptr<const engine::QuerySnapshot> snapshot;
};

Fleet& fleet_for(const std::string& scenario) {
  static std::map<std::string, std::unique_ptr<Fleet>> cache;
  auto& slot = cache[scenario];
  if (!slot) {
    const auto spec = workload::parse_scenario(scenario);
    if (!spec) {
      throw std::invalid_argument("bench_e18: bad scenario '" + scenario + "'");
    }
    slot = std::make_unique<Fleet>(*spec);
  }
  return *slot;
}

/// The probe set of round 0, shared verbatim by all three strategies.
std::vector<engine::Probe> probe_set(Fleet& fleet, std::size_t count) {
  workload::ProbeRound round = fleet.generator.probes(*fleet.snapshot, count);
  std::vector<engine::Probe> probes = std::move(round.membership);
  probes.insert(probes.end(), round.next_gathering.begin(), round.next_gathering.end());
  return probes;
}

void BM_QueryBatch(benchmark::State& state, const std::string& scenario, std::size_t probes_n) {
  Fleet& fleet = fleet_for(scenario);
  const std::vector<engine::Probe> probes = probe_set(fleet, probes_n);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> out = fleet.engine->query_batch(probes);
    for (const std::uint8_t m : out) {
      hits += m;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * probes.size()));
  state.counters["probes"] = static_cast<double>(probes.size());
}

/// One snapshot batch of `probes_n` probes per iteration, straight on the
/// held snapshot (no engine telemetry), reusing the output buffer — the
/// per-batch cost the service pays for each coalesced run.
void BM_SmallBatch(benchmark::State& state, const std::string& scenario, std::size_t probes_n) {
  Fleet& fleet = fleet_for(scenario);
  const std::vector<engine::Probe> probes = probe_set(fleet, probes_n);
  std::vector<std::uint8_t> out(probes.size());
  std::uint64_t hits = 0;
  for (auto _ : state) {
    fleet.snapshot->query_batch(probes, out);
    hits += out[0];
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * probes.size()));
  state.counters["probes"] = static_cast<double>(probes.size());
}

void BM_QuerySingleHandle(benchmark::State& state, const std::string& scenario,
                          std::size_t probes_n) {
  Fleet& fleet = fleet_for(scenario);
  const std::vector<engine::Probe> probes = probe_set(fleet, probes_n);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (const engine::Probe& probe : probes) {
      hits += fleet.snapshot->instance(probe.instance)->is_happy(probe.node, probe.holiday) ? 1 : 0;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * probes.size()));
  state.counters["probes"] = static_cast<double>(probes.size());
}

void BM_QuerySingleName(benchmark::State& state, const std::string& scenario,
                        std::size_t probes_n) {
  Fleet& fleet = fleet_for(scenario);
  const std::vector<engine::Probe> probes = probe_set(fleet, probes_n);
  // Materialize the name strings once; the loop still pays lookup per probe.
  std::vector<std::string> names;
  names.reserve(fleet.snapshot->size());
  for (std::uint32_t id = 0; id < fleet.snapshot->size(); ++id) {
    names.push_back(fleet.snapshot->instance(id)->name());
  }
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (const engine::Probe& probe : probes) {
      hits += fleet.engine->is_happy(names[probe.instance], probe.node, probe.holiday) ? 1 : 0;
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * probes.size()));
  state.counters["probes"] = static_cast<double>(probes.size());
}

void BM_NextGatheringBatch(benchmark::State& state, const std::string& scenario,
                           std::size_t probes_n) {
  Fleet& fleet = fleet_for(scenario);
  workload::ProbeRound round = fleet.generator.probes(*fleet.snapshot, probes_n);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    const std::vector<std::uint64_t> out =
        fleet.engine->next_gathering_batch(round.next_gathering);
    for (const std::uint64_t t : out) {
      sum += t;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * round.next_gathering.size()));
}

/// Family sweep: a mid-size fleet per structured family.  Fully periodic
/// tenancies (aperiodic=0) keep the three strategies comparable — the
/// aperiodic replay path is covered by the engine tests and E17.
const char* kFamilySweep[] = {
    "ring:fleet=2000,nodes=48,aperiodic=0,horizon=1024",
    "grid:fleet=2000,nodes=48,aperiodic=0,horizon=1024",
    "power-law:fleet=2000,nodes=48,aperiodic=0,horizon=1024",
    "random-geometric:fleet=2000,nodes=48,aperiodic=0,horizon=1024",
};

/// Acceptance configuration: 10k instances, 64k probes per batch.
const char* kAcceptance = "power-law:fleet=10000,nodes=48,aperiodic=0,horizon=1024";
constexpr std::size_t kAcceptanceProbes = 65536;

void register_all() {
  for (const char* scenario : kFamilySweep) {
    const auto spec = workload::parse_scenario(scenario);
    const std::string family = workload::graph_family_name(spec->family);
    benchmark::RegisterBenchmark(("batch/" + family).c_str(),
                                 [scenario](benchmark::State& s) { BM_QueryBatch(s, scenario, 16384); });
    benchmark::RegisterBenchmark(("single-handle/" + family).c_str(), [scenario](benchmark::State& s) {
      BM_QuerySingleHandle(s, scenario, 16384);
    });
    benchmark::RegisterBenchmark(("single-name/" + family).c_str(), [scenario](benchmark::State& s) {
      BM_QuerySingleName(s, scenario, 16384);
    });
    benchmark::RegisterBenchmark(("next-batch/" + family).c_str(), [scenario](benchmark::State& s) {
      BM_NextGatheringBatch(s, scenario, 16384);
    });
  }
  benchmark::RegisterBenchmark("batch/acceptance-10k-64k", [](benchmark::State& s) {
    BM_QueryBatch(s, kAcceptance, kAcceptanceProbes);
  });
  benchmark::RegisterBenchmark("single-name/acceptance-10k-64k", [](benchmark::State& s) {
    BM_QuerySingleName(s, kAcceptance, kAcceptanceProbes);
  });
  for (const std::size_t probes : {1, 16, 1250, 1251}) {
    const std::string name = "small-batch-" + std::to_string(probes) + "/acceptance-10k";
    benchmark::RegisterBenchmark(name.c_str(), [probes](benchmark::State& s) {
      BM_SmallBatch(s, kAcceptance, probes);
    });
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
