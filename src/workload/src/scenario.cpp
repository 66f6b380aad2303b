#include "fhg/workload/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

#include "fhg/graph/generators.hpp"
#include "fhg/parallel/rng.hpp"

namespace fhg::workload {

using parallel::Rng;

std::string graph_family_name(GraphFamily family) {
  switch (family) {
    case GraphFamily::kRing:
      return "ring";
    case GraphFamily::kGrid:
      return "grid";
    case GraphFamily::kPowerLaw:
      return "power-law";
    case GraphFamily::kRandomGeometric:
      return "random-geometric";
    case GraphFamily::kGnp:
      return "gnp";
  }
  return "unknown";
}

std::optional<GraphFamily> parse_graph_family(std::string_view name) {
  for (const GraphFamily family : all_graph_families()) {
    if (name == graph_family_name(family)) {
      return family;
    }
  }
  return std::nullopt;
}

const std::vector<GraphFamily>& all_graph_families() {
  static const std::vector<GraphFamily> families{
      GraphFamily::kRing, GraphFamily::kGrid, GraphFamily::kPowerLaw,
      GraphFamily::kRandomGeometric, GraphFamily::kGnp};
  return families;
}

namespace {

std::optional<std::uint64_t> parse_uint(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// Shortest decimal form that parses back to exactly `v` (std::to_chars).
std::string format_double(double v) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  return ec == std::errc() ? std::string(buffer, ptr) : std::to_string(v);
}

std::optional<double> parse_double(std::string_view text) {
  const std::string owned(text);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size() || owned.empty()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<ScenarioSpec> scenario_preset(std::string_view name) {
  // One huge dynamic tenant, mutation rounds on: the shape the parallel
  // Jones–Plassmann benchmarks and stress smokes run against.
  ScenarioSpec spec;
  spec.fleet = 1;
  spec.nodes = 1u << 20;
  spec.aperiodic = 0.0;
  spec.dynamic_share = 1.0;
  spec.mutation = 1.0;
  if (name == "powerlaw-1m") {
    spec.family = GraphFamily::kPowerLaw;
    return spec;
  }
  if (name == "geometric-1m") {
    spec.family = GraphFamily::kRandomGeometric;
    return spec;
  }
  return std::nullopt;
}

const std::vector<std::string>& scenario_preset_names() {
  static const std::vector<std::string> names{"powerlaw-1m", "geometric-1m"};
  return names;
}

std::optional<ScenarioSpec> parse_scenario(std::string_view text) {
  const auto colon = text.find(':');
  const std::string_view head = text.substr(0, colon);
  ScenarioSpec spec;
  if (const auto preset = scenario_preset(head)) {
    spec = *preset;  // `key=value` overrides below still apply
  } else {
    const auto family = parse_graph_family(head);
    if (!family) {
      return std::nullopt;
    }
    spec.family = *family;
  }
  if (colon == std::string_view::npos) {
    return spec;
  }
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return std::nullopt;
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (key == "fleet") {
      const auto v = parse_uint(value);
      if (!v) {
        return std::nullopt;
      }
      spec.fleet = static_cast<std::size_t>(*v);
    } else if (key == "nodes") {
      const auto v = parse_uint(value);
      if (!v) {
        return std::nullopt;
      }
      spec.nodes = static_cast<graph::NodeId>(*v);
    } else if (key == "seed") {
      const auto v = parse_uint(value);
      if (!v) {
        return std::nullopt;
      }
      spec.seed = *v;
    } else if (key == "horizon") {
      const auto v = parse_uint(value);
      if (!v) {
        return std::nullopt;
      }
      spec.horizon = *v;
    } else if (key == "cmds") {
      const auto v = parse_uint(value);
      if (!v) {
        return std::nullopt;
      }
      spec.commands_per_mutation = static_cast<std::size_t>(*v);
    } else if (key == "aperiodic") {
      const auto v = parse_double(value);
      if (!v) {
        return std::nullopt;
      }
      spec.aperiodic = *v;
    } else if (key == "dynamic") {
      const auto v = parse_double(value);
      if (!v) {
        return std::nullopt;
      }
      spec.dynamic_share = *v;
    } else if (key == "mutation") {
      const auto v = parse_double(value);
      if (!v) {
        return std::nullopt;
      }
      spec.mutation = *v;
    } else if (key == "next") {
      const auto v = parse_double(value);
      if (!v) {
        return std::nullopt;
      }
      spec.mix.next_gathering = *v;
    } else {
      return std::nullopt;
    }
  }
  return spec;
}

std::string scenario_name(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << graph_family_name(spec.family) << ":fleet=" << spec.fleet << ",nodes=" << spec.nodes
      << ",seed=" << spec.seed << ",horizon=" << spec.horizon
      << ",cmds=" << spec.commands_per_mutation
      << ",aperiodic=" << format_double(spec.aperiodic)
      << ",dynamic=" << format_double(spec.dynamic_share)
      << ",mutation=" << format_double(spec.mutation)
      << ",next=" << format_double(spec.mix.next_gathering);
  return out.str();
}

ScenarioGenerator::ScenarioGenerator(ScenarioSpec spec) : spec_(spec) {
  if (spec_.fleet == 0) {
    throw std::invalid_argument("ScenarioGenerator: fleet must be positive");
  }
  if (spec_.nodes < 4) {
    throw std::invalid_argument("ScenarioGenerator: need at least 4 nodes per tenant");
  }
  spec_.aperiodic = std::clamp(spec_.aperiodic, 0.0, 1.0);
  spec_.dynamic_share = std::clamp(spec_.dynamic_share, 0.0, 1.0);
  spec_.mutation = std::clamp(spec_.mutation, 0.0, 1.0);
  spec_.mix.next_gathering = std::clamp(spec_.mix.next_gathering, 0.0, 1.0);
}

std::string ScenarioGenerator::tenant_name(std::size_t i) const {
  return graph_family_name(spec_.family) + "-" + std::to_string(i);
}

graph::Graph ScenarioGenerator::tenant_graph(std::uint64_t tenant_seed) const {
  const graph::NodeId n = spec_.nodes;
  switch (spec_.family) {
    case GraphFamily::kRing:
      return graph::cycle(n);
    case GraphFamily::kGrid: {
      const auto rows = static_cast<graph::NodeId>(
          std::max(2.0, std::floor(std::sqrt(static_cast<double>(n)))));
      const auto cols = static_cast<graph::NodeId>((n + rows - 1) / rows);
      return graph::grid2d(rows, std::max<graph::NodeId>(cols, 2));
    }
    case GraphFamily::kPowerLaw:
      return graph::barabasi_albert(n, 3, tenant_seed);
    case GraphFamily::kRandomGeometric: {
      // Radius for an expected degree of ~6: E[deg] ≈ n·π·r².
      const double radius = std::sqrt(6.0 / (3.14159265358979323846 * static_cast<double>(n)));
      return graph::random_geometric(n, radius, tenant_seed);
    }
    case GraphFamily::kGnp:
      return graph::gnp(n, std::min(1.0, 8.0 / static_cast<double>(n)), tenant_seed);
  }
  throw std::invalid_argument("ScenarioGenerator: unknown graph family");
}

engine::InstanceSpec ScenarioGenerator::recipe(std::size_t i) const {
  // The inner `mix_keys(i, 0)` is part of the derivation: it pins the fleet
  // every scenario string expands to.
  const std::uint64_t tenant_seed = parallel::mix_keys(spec_.seed, parallel::mix_keys(i, 0));
  engine::InstanceSpec recipe;
  recipe.seed = tenant_seed;
  // Deterministic kind choice: a `dynamic` fraction of slots run the §6
  // scheduler (mutable topology, recolor in place), an `aperiodic` fraction
  // the stateful schedulers (memoized replay), the rest rotate the periodic
  // catalogue (O(1) period-table path).  `dynamic` takes precedence when the
  // fractions overlap — `dynamic=1` always means a fully dynamic fleet —
  // and with `dynamic=0` the bands are exactly the pre-mutation expansion.
  const double roll = static_cast<double>(parallel::hash_draw(tenant_seed, 0xA9E2, 0) >> 11) *
                      0x1.0p-53;
  if (roll < spec_.dynamic_share) {
    recipe.kind = engine::SchedulerKind::kDynamicPrefixCode;
  } else if (roll < spec_.dynamic_share + spec_.aperiodic) {
    recipe.kind = (tenant_seed >> 8) % 2 == 0 ? engine::SchedulerKind::kPhasedGreedy
                                              : engine::SchedulerKind::kFirstComeFirstGrab;
  } else {
    constexpr engine::SchedulerKind kPeriodic[] = {engine::SchedulerKind::kDegreeBound,
                                                   engine::SchedulerKind::kPrefixCode,
                                                   engine::SchedulerKind::kRoundRobin};
    recipe.kind = kPeriodic[(tenant_seed >> 8) % std::size(kPeriodic)];
  }
  return recipe;
}

TenantSpec ScenarioGenerator::tenant(std::size_t i) const {
  engine::InstanceSpec spec = recipe(i);
  return TenantSpec{.name = tenant_name(i), .graph = tenant_graph(spec.seed),
                    .spec = std::move(spec)};
}

void ScenarioGenerator::populate(engine::Engine& eng) const {
  for (std::size_t i = 0; i < spec_.fleet; ++i) {
    TenantSpec t = tenant(i);
    (void)eng.create_instance(std::move(t.name), std::move(t.graph), std::move(t.spec));
  }
}

ProbeRound ScenarioGenerator::probes(const engine::QuerySnapshot& snapshot, std::size_t count,
                                     std::uint64_t round) const {
  if (snapshot.size() == 0) {
    throw std::invalid_argument("ScenarioGenerator::probes: empty snapshot");
  }
  Rng rng(spec_.seed, parallel::mix_keys(0x70726F62, round));
  const auto next_count =
      static_cast<std::size_t>(spec_.mix.next_gathering * static_cast<double>(count));
  ProbeRound out;
  out.membership.reserve(count - next_count);
  out.next_gathering.reserve(next_count);
  for (std::size_t q = 0; q < count; ++q) {
    engine::Probe probe;
    probe.instance = static_cast<std::uint32_t>(rng.uniform_below(snapshot.size()));
    probe.node = static_cast<graph::NodeId>(
        rng.uniform_below(snapshot.instance(probe.instance)->graph().num_nodes()));
    if (q < next_count) {
      probe.holiday = rng.uniform_below(spec_.horizon);  // `after` may be 0
      out.next_gathering.push_back(probe);
    } else {
      probe.holiday = 1 + rng.uniform_below(spec_.horizon);
      out.membership.push_back(probe);
    }
  }
  return out;
}

std::vector<api::Request> ScenarioGenerator::request_stream(std::size_t count,
                                                            std::uint64_t round) const {
  Rng rng(spec_.seed, parallel::mix_keys(0x73657276, round));  // "serv"
  std::vector<api::Request> out;
  out.reserve(count);
  for (std::size_t q = 0; q < count; ++q) {
    const auto slot = static_cast<std::size_t>(rng.uniform_below(spec_.fleet));
    if (spec_.mutation > 0.0 && rng.uniform_real() < spec_.mutation &&
        recipe(slot).kind == engine::SchedulerKind::kDynamicPrefixCode) {
      // A distinct command round per request keeps the marry/divorce mixes
      // from repeating within one stream.  Endpoints are drawn from the
      // recipe node range, which the live topology always covers.
      out.push_back(api::ApplyMutationsRequest{
          tenant_name(slot), mutation_commands(slot, parallel::mix_keys(round, q),
                                               spec_.nodes)});
      continue;
    }
    const auto node = static_cast<graph::NodeId>(rng.uniform_below(spec_.nodes));
    if (rng.uniform_real() < spec_.mix.next_gathering) {
      out.push_back(api::NextGatheringRequest{
          tenant_name(slot), node, rng.uniform_below(spec_.horizon)});  // `after` may be 0
    } else {
      out.push_back(api::IsHappyRequest{tenant_name(slot), node,
                                        1 + rng.uniform_below(spec_.horizon)});
    }
  }
  return out;
}

std::vector<dynamic::MutationCommand> ScenarioGenerator::mutation_commands(
    std::size_t i, std::uint64_t round, graph::NodeId nodes) const {
  // Per-round command count from the spec: the default (4) usually forces at
  // least one recolor without rewriting the whole topology; mutation-storm
  // scenarios raise `cmds` past the bulk threshold.
  const std::size_t per_tenant = spec_.commands_per_mutation;
  Rng rng(spec_.seed, parallel::mix_keys(0x6D757478, parallel::mix_keys(i, round)));
  std::vector<dynamic::MutationCommand> commands;
  commands.reserve(per_tenant);
  for (std::size_t c = 0; c < per_tenant && nodes >= 2; ++c) {
    const double roll = rng.uniform_real();
    if (roll < 0.1) {
      commands.push_back(dynamic::add_node_command());
      continue;
    }
    // Distinct endpoints within the recipe node range, so the stream stays a
    // pure function of the inputs whatever earlier rounds did.
    const auto u = static_cast<graph::NodeId>(rng.uniform_below(nodes));
    auto v = static_cast<graph::NodeId>(rng.uniform_below(nodes - 1));
    v = v >= u ? v + 1 : v;
    commands.push_back(roll < 0.55 ? dynamic::insert_edge_command(u, v)
                                   : dynamic::erase_edge_command(u, v));
  }
  return commands;
}

std::size_t ScenarioGenerator::mutation_round(engine::Engine& eng, std::uint64_t round) const {
  const auto mutated =
      static_cast<std::size_t>(spec_.mutation * static_cast<double>(spec_.fleet));
  Rng rng(spec_.seed, parallel::mix_keys(0x6D757461, round));
  std::set<std::size_t> slots;
  while (slots.size() < std::min(mutated, spec_.fleet)) {
    slots.insert(static_cast<std::size_t>(rng.uniform_below(spec_.fleet)));
  }
  std::size_t applied = 0;
  for (const std::size_t slot : slots) {
    const std::string name = tenant_name(slot);
    const auto instance = eng.find(name);
    if (!instance || !instance->dynamic()) {
      continue;  // erased, or replaced by a non-dynamic tenant
    }
    const auto commands = mutation_commands(slot, round, instance->graph().num_nodes());
    applied += eng.apply_mutations(name, commands).applied;
  }
  return applied;
}

namespace {

void put_u64(std::vector<std::uint8_t>& bytes, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    bytes.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_string(std::vector<std::uint8_t>& bytes, std::string_view s) {
  put_u64(bytes, s.size());
  bytes.insert(bytes.end(), s.begin(), s.end());
}

}  // namespace

std::vector<std::uint8_t> ScenarioGenerator::fingerprint() const {
  std::vector<std::uint8_t> bytes;
  put_string(bytes, scenario_name(spec_));
  for (std::size_t i = 0; i < spec_.fleet; ++i) {
    const TenantSpec t = tenant(i);
    put_string(bytes, t.name);
    put_u64(bytes, t.graph.num_nodes());
    for (const graph::Edge& e : t.graph.edges()) {
      put_u64(bytes, e.first);
      put_u64(bytes, e.second);
    }
    put_u64(bytes, static_cast<std::uint64_t>(t.spec.kind));
    put_u64(bytes, static_cast<std::uint64_t>(t.spec.code));
    put_u64(bytes, t.spec.seed);
    put_u64(bytes, t.spec.slack);
    put_u64(bytes, t.spec.parallel_crossover);
    put_u64(bytes, t.spec.bulk_threshold);
    put_u64(bytes, t.spec.periods.size());
    for (const std::uint64_t p : t.spec.periods) {
      put_u64(bytes, p);
    }
  }
  return bytes;
}

}  // namespace fhg::workload
