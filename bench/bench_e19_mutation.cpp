// E19 — live topology mutations: in-place recolor vs erase-and-recreate
// (google-benchmark; emits machine-readable JSON for the CI perf gate).
//
// The §6 dynamic setting served two ways over identical fhg::workload
// fleets of dynamic-prefix-code tenants, with identical seeded
// marry/divorce/add-node command streams (`ScenarioGenerator::
// mutation_commands`):
//
//   inplace  — `Engine::apply_mutations`: the tenant recolors the affected
//              node(s) per §6, appends to its mutation log, and republishes
//              its period table at the next version.  Gap history, holiday
//              counter, and tenant identity all survive;
//   recreate — the whole-tenant-replacement fallback: apply
//              the same commands to an external graph mirror, then erase the
//              tenant and create a fresh one over the mutated topology —
//              paying a full greedy recoloring, scheduler construction,
//              table interning, and registry churn, and losing all history.
//
// The acceptance configuration (4k-tenant power-law fleet) requires
// `inplace` to beat `recreate` by >= 1.5x (tools/check_bench.py enforces
// this from the JSON output; the checked-in baseline gates regressions).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/graph/dynamic_graph.hpp"
#include "fhg/workload/scenario.hpp"

namespace {

using namespace fhg;

constexpr std::uint64_t kStepDepth = 64;  ///< holidays each fleet is stepped before mutating

/// One fully built all-dynamic fleet plus, for the recreate strategy, a
/// per-slot mutable mirror of each tenant's live topology.
struct Fleet {
  explicit Fleet(const workload::ScenarioSpec& spec) : generator(spec) {
    engine = std::make_unique<engine::Engine>(engine::EngineOptions{.shards = 64, .threads = 0});
    generator.populate(*engine);
    (void)engine->step_all(kStepDepth);
    mirrors.reserve(spec.fleet);
    recipe_nodes.reserve(spec.fleet);
    for (std::size_t i = 0; i < spec.fleet; ++i) {
      const graph::Graph& recipe = engine->find(generator.tenant_name(i))->graph();
      mirrors.emplace_back(recipe);
      recipe_nodes.push_back(recipe.num_nodes());
    }
  }

  workload::ScenarioGenerator generator;
  std::unique_ptr<engine::Engine> engine;
  std::vector<graph::DynamicGraph> mirrors;  ///< recreate strategy only
  /// Per-slot node count captured *before* any mutation: both strategies
  /// feed this to mutation_commands every round, so the command streams stay
  /// identical even after add_node grows a (recreated) tenant's recipe.
  std::vector<graph::NodeId> recipe_nodes;
  std::uint64_t round = 0;                   ///< advances across iterations
};

/// Separate cache per (strategy, scenario): the two strategies must not
/// share an engine, since each evolves its fleet's topology independently.
Fleet& fleet_for(const std::string& strategy, const std::string& scenario) {
  static std::map<std::string, std::unique_ptr<Fleet>> cache;
  auto& slot = cache[strategy + "|" + scenario];
  if (!slot) {
    const auto spec = workload::parse_scenario(scenario);
    if (!spec) {
      throw std::invalid_argument("bench_e19: bad scenario '" + scenario + "'");
    }
    slot = std::make_unique<Fleet>(*spec);
  }
  return *slot;
}

void BM_MutateInPlace(benchmark::State& state, const std::string& scenario) {
  Fleet& fleet = fleet_for("inplace", scenario);
  const std::size_t fleet_size = fleet.generator.spec().fleet;
  std::uint64_t commands = 0;
  for (auto _ : state) {
    for (std::size_t slot = 0; slot < fleet_size; ++slot) {
      const std::string name = fleet.generator.tenant_name(slot);
      const auto mix =
          fleet.generator.mutation_commands(slot, fleet.round, fleet.recipe_nodes[slot]);
      (void)fleet.engine->apply_mutations(name, mix);
      commands += mix.size();
    }
    ++fleet.round;
  }
  benchmark::DoNotOptimize(commands);
  state.SetItemsProcessed(static_cast<std::int64_t>(commands));
}

void BM_MutateRecreate(benchmark::State& state, const std::string& scenario) {
  Fleet& fleet = fleet_for("recreate", scenario);
  const std::size_t fleet_size = fleet.generator.spec().fleet;
  std::uint64_t commands = 0;
  for (auto _ : state) {
    for (std::size_t slot = 0; slot < fleet_size; ++slot) {
      const std::string name = fleet.generator.tenant_name(slot);
      graph::DynamicGraph& mirror = fleet.mirrors[slot];
      const auto mix =
          fleet.generator.mutation_commands(slot, fleet.round, fleet.recipe_nodes[slot]);
      for (const dynamic::MutationCommand& cmd : mix) {
        switch (cmd.op) {
          case dynamic::MutationOp::kInsertEdge:
            (void)mirror.insert_edge(cmd.u, cmd.v);
            break;
          case dynamic::MutationOp::kEraseEdge:
            (void)mirror.erase_edge(cmd.u, cmd.v);
            break;
          case dynamic::MutationOp::kAddNode:
            (void)mirror.add_node();
            break;
        }
      }
      commands += mix.size();
      engine::InstanceSpec spec;
      spec.kind = engine::SchedulerKind::kDynamicPrefixCode;
      (void)fleet.engine->erase_instance(name);
      (void)fleet.engine->create_instance(name, mirror.snapshot(), std::move(spec));
    }
    ++fleet.round;
  }
  benchmark::DoNotOptimize(commands);
  state.SetItemsProcessed(static_cast<std::int64_t>(commands));
}

/// All-dynamic fleets so every slot exercises the mutation path.
const char* kSweep[] = {
    "power-law:fleet=1000,nodes=48,aperiodic=0,dynamic=1,horizon=1024",
    "ring:fleet=1000,nodes=48,aperiodic=0,dynamic=1,horizon=1024",
};

/// Acceptance configuration: a 4k-tenant power-law fleet.
const char* kAcceptance = "power-law:fleet=4000,nodes=48,aperiodic=0,dynamic=1,horizon=1024";

void register_all() {
  for (const char* scenario : kSweep) {
    const auto spec = workload::parse_scenario(scenario);
    const std::string family = workload::graph_family_name(spec->family);
    benchmark::RegisterBenchmark(("inplace/" + family).c_str(), [scenario](benchmark::State& s) {
      BM_MutateInPlace(s, scenario);
    });
    benchmark::RegisterBenchmark(("recreate/" + family).c_str(), [scenario](benchmark::State& s) {
      BM_MutateRecreate(s, scenario);
    });
  }
  benchmark::RegisterBenchmark("inplace/acceptance-4k", [](benchmark::State& s) {
    BM_MutateInPlace(s, kAcceptance);
  });
  benchmark::RegisterBenchmark("recreate/acceptance-4k", [](benchmark::State& s) {
    BM_MutateRecreate(s, kAcceptance);
  });
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
