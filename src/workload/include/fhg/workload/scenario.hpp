#pragma once

/// \file scenario.hpp
/// Declarative workload scenarios for the serving layer.
///
/// A `ScenarioSpec` names a structured instance family (the graph topology
/// every tenant runs on), a fleet size, a query mix, and a mutation rate —
/// the knobs that fair-periodic-assignment evaluations sweep.  The
/// `ScenarioGenerator` expands a spec deterministically: tenant `i`'s graph,
/// scheduler recipe, every probe of every query round, and every mutation
/// decision are pure functions of `(spec, i)`, so the engine, the
/// `fhg_serve` example, and the benchmarks all consume *identical*
/// workloads for a given spec, regardless of thread count or call order.
/// `fingerprint()` serializes the whole expansion so determinism is
/// byte-checkable in tests.
///
/// Scenario strings give the spec a one-line form shared by CLI flags and
/// bench labels: `family:key=value,...`, e.g.
/// `power-law:fleet=1000,nodes=48,seed=7,mutation=0.05,next=0.125`.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fhg/api/protocol.hpp"
#include "fhg/dynamic/mutation.hpp"
#include "fhg/engine/engine.hpp"
#include "fhg/engine/query_batch.hpp"
#include "fhg/engine/spec.hpp"
#include "fhg/graph/graph.hpp"

namespace fhg::workload {

/// The structured conflict-graph families a scenario can run on.
enum class GraphFamily : std::uint8_t {
  kRing = 0,             ///< cycle C_n: bounded degree 2, long diameter
  kGrid = 1,             ///< 2-D grid: planar radio-interference topology
  kPowerLaw = 2,         ///< Barabási–Albert: heavy-tailed degrees
  kRandomGeometric = 3,  ///< unit-square disc graph: clustered interference
  kGnp = 4,              ///< Erdős–Rényi: the unstructured control
};

/// Human-readable family name ("ring", "grid", "power-law", …).
[[nodiscard]] std::string graph_family_name(GraphFamily family);

/// Parses a family name; nullopt for unknown names.
[[nodiscard]] std::optional<GraphFamily> parse_graph_family(std::string_view name);

/// All families, in enum order — for sweeps over the whole catalogue.
[[nodiscard]] const std::vector<GraphFamily>& all_graph_families();

/// How a query round splits between probe types.
struct QueryMix {
  /// Fraction of probes answered as `next_gathering` (the rest are
  /// membership probes).  Clamped to [0, 1].
  double next_gathering = 0.125;

  friend bool operator==(const QueryMix&, const QueryMix&) = default;
};

/// Everything needed to expand a workload deterministically.
struct ScenarioSpec {
  GraphFamily family = GraphFamily::kPowerLaw;
  std::size_t fleet = 1000;     ///< number of tenant instances
  graph::NodeId nodes = 48;     ///< requested nodes per tenant (families round)
  double aperiodic = 0.2;       ///< fraction of tenants running aperiodic schedulers
  /// Fraction of tenants running the §6 dynamic scheduler.  Takes precedence
  /// over `aperiodic` when the fractions overlap (`dynamic=1` is always a
  /// fully dynamic fleet).
  double dynamic_share = 0.0;
  double mutation = 0.0;        ///< fraction of the fleet mutated per mutation round
  QueryMix mix;
  std::uint64_t seed = 1;       ///< master seed; everything derives from it
  std::uint64_t horizon = 1024; ///< holiday depth that probes target
  /// Commands each mutated tenant receives per mutation round.  The default
  /// keeps batches on the per-command path; mutation-storm scenarios raise it
  /// past the engine's bulk threshold to exercise the bulk recolor.
  std::size_t commands_per_mutation = 4;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Named single-tenant large-graph presets for the parallel-coloring
/// benchmarks and stress runs: `powerlaw-1m` and `geometric-1m` expand to a
/// fleet of one fully dynamic 2^20-node tenant (mutation on).
/// Nullopt for unknown names.
[[nodiscard]] std::optional<ScenarioSpec> scenario_preset(std::string_view name);

/// The preset names `scenario_preset` knows, for usage text and sweeps.
[[nodiscard]] const std::vector<std::string>& scenario_preset_names();

/// Parses a scenario string `family[:key=value,...]` with keys `fleet`,
/// `nodes`, `seed`, `aperiodic`, `dynamic`, `mutation`, `next`,
/// `horizon`, `cmds`.  The leading token may also be a preset name
/// (`powerlaw-1m:mutation=0` starts from the preset, then applies the
/// overrides).  Nullopt on an unknown family/preset, unknown key, or
/// malformed value.
[[nodiscard]] std::optional<ScenarioSpec> parse_scenario(std::string_view text);

/// The canonical one-line form of `spec` (parses back to an equal spec).
[[nodiscard]] std::string scenario_name(const ScenarioSpec& spec);

/// One tenant's expansion: the arguments `Engine::create_instance` wants.
struct TenantSpec {
  std::string name;
  graph::Graph graph;
  engine::InstanceSpec spec;
};

/// A deterministic probe round, split by query type so each half can go to
/// the matching batch API.
struct ProbeRound {
  std::vector<engine::Probe> membership;      ///< for `query_batch`
  std::vector<engine::Probe> next_gathering;  ///< for `next_gathering_batch`
};

class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

  /// Tenant `i`'s name: "<family>-<i>".
  [[nodiscard]] std::string tenant_name(std::size_t i) const;

  /// Expands tenant `i`.  Pure function of `(spec, i)`.
  [[nodiscard]] TenantSpec tenant(std::size_t i) const;

  /// The scheduler recipe slot `i` runs — `tenant` without building the
  /// graph.  Cheap (a few hash mixes), so consumers can ask per request,
  /// e.g. whether a rolled slot is dynamic.
  [[nodiscard]] engine::InstanceSpec recipe(std::size_t i) const;

  /// Creates the whole fleet in `eng`.
  void populate(engine::Engine& eng) const;

  /// Deterministic probe round `round` with `count` probes total, split per
  /// the query mix.  Probe instance ids index `snapshot`; probes target only
  /// tenants present in it.  Throws `std::invalid_argument` on an empty
  /// snapshot.
  [[nodiscard]] ProbeRound probes(const engine::QuerySnapshot& snapshot, std::size_t count,
                                  std::uint64_t round = 0) const;

  /// Deterministic protocol request stream `round` with `count` requests —
  /// ready-to-send `api::Request` values addressed by tenant *name*, the
  /// shape every consumer of the unified protocol speaks (`api::Client`
  /// over either transport, `service::Service::handle`, load generators,
  /// benches, tests).  A `mutation` fraction of the rolls attempt an
  /// `ApplyMutations` batch (kept only when the rolled slot's recipe is
  /// dynamic — otherwise the roll degrades to a query; commands
  /// come from `mutation_commands` with the recipe node range), a
  /// `mix.next_gathering` fraction of the rest are next-gathering probes,
  /// the remainder membership probes.  Query nodes are drawn below
  /// `spec.nodes`, which every family's tenant graph meets or exceeds, so
  /// requests stay valid whatever the live topology.  Pure function of
  /// `(spec, count, round)` — identical streams everywhere, which is what
  /// the transport-equivalence tests byte-compare.
  [[nodiscard]] std::vector<api::Request> request_stream(std::size_t count,
                                                         std::uint64_t round = 0) const;

  /// The seeded marry/divorce/add-node command mix slot `i` receives at
  /// mutation round `round`, with edge endpoints drawn from `[0, nodes)` —
  /// a pure function of `(spec, i, round, nodes)`, so every consumer
  /// (fhg_serve, tests, benchmarks) derives identical event streams.
  [[nodiscard]] std::vector<dynamic::MutationCommand> mutation_commands(
      std::size_t i, std::uint64_t round, graph::NodeId nodes) const;

  /// Applies mutation round `round`: deterministically picks
  /// `mutation · fleet` slots and routes each slot's `mutation_commands`
  /// through `Engine::apply_mutations` — edge-level topology change served
  /// *in place* (recolor, republish table), no tenant replacement.  Slots
  /// whose tenant is missing or not dynamic are skipped.  Returns the number
  /// of commands that changed topology.
  std::size_t mutation_round(engine::Engine& eng, std::uint64_t round) const;

  /// Byte-serialization of the full expansion (spec, every
  /// tenant's edges and recipe).  Two generators with equal specs produce
  /// byte-identical fingerprints; any divergence in expansion shows up here.
  [[nodiscard]] std::vector<std::uint8_t> fingerprint() const;

 private:
  [[nodiscard]] graph::Graph tenant_graph(std::uint64_t tenant_seed) const;

  ScenarioSpec spec_;
};

}  // namespace fhg::workload
