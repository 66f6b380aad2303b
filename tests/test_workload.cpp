// Tests for fhg::workload (deterministic scenario expansion) and the batched
// lock-free query pipeline it feeds: same seed ⇒ byte-identical scenarios,
// and query_batch / next_gathering_batch agree with the per-query paths
// across every scenario family.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fhg/engine/engine.hpp"
#include "fhg/engine/query_batch.hpp"
#include "fhg/graph/generators.hpp"
#include "fhg/workload/scenario.hpp"

namespace fg = fhg::graph;
namespace fe = fhg::engine;
namespace fw = fhg::workload;

namespace {

fw::ScenarioSpec small_spec(fw::GraphFamily family, std::uint64_t seed = 7) {
  fw::ScenarioSpec spec;
  spec.family = family;
  spec.fleet = 24;
  spec.nodes = 16;
  spec.seed = seed;
  spec.horizon = 128;
  return spec;
}

}  // namespace

// ---------------------------------------------------------- families -------

TEST(Workload, FamilyNamesRoundTrip) {
  for (const fw::GraphFamily family : fw::all_graph_families()) {
    const std::string name = fw::graph_family_name(family);
    const auto parsed = fw::parse_graph_family(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, family);
  }
  EXPECT_FALSE(fw::parse_graph_family("no-such-family").has_value());
}

TEST(Workload, ScenarioStringRoundTrip) {
  fw::ScenarioSpec spec = small_spec(fw::GraphFamily::kRandomGeometric, 42);
  spec.aperiodic = 0.25;
  spec.mix.next_gathering = 0.5;
  const auto parsed = fw::parse_scenario(fw::scenario_name(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
}

TEST(Workload, ParseScenarioRejectsMalformedInput) {
  EXPECT_FALSE(fw::parse_scenario("not-a-family:fleet=3").has_value());
  EXPECT_FALSE(fw::parse_scenario("ring:fleet").has_value());
  EXPECT_FALSE(fw::parse_scenario("ring:bogus=3").has_value());
  EXPECT_FALSE(fw::parse_scenario("ring:churn=0.5").has_value());
  EXPECT_FALSE(fw::parse_scenario("ring:fleet=abc").has_value());
  const auto defaults = fw::parse_scenario("grid");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->family, fw::GraphFamily::kGrid);
}

// ------------------------------------------------------- determinism -------

TEST(Workload, SameSeedGivesByteIdenticalScenario) {
  for (const fw::GraphFamily family : fw::all_graph_families()) {
    const fw::ScenarioGenerator a(small_spec(family));
    const fw::ScenarioGenerator b(small_spec(family));
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << fw::graph_family_name(family);
  }
}

TEST(Workload, DifferentSeedGivesDifferentScenario) {
  // Ring and grid topologies are seed-independent, but scheduler recipes are
  // seeded, so the fingerprint must still diverge.
  for (const fw::GraphFamily family : fw::all_graph_families()) {
    const fw::ScenarioGenerator a(small_spec(family, 7));
    const fw::ScenarioGenerator b(small_spec(family, 8));
    EXPECT_NE(a.fingerprint(), b.fingerprint()) << fw::graph_family_name(family);
  }
}

TEST(Workload, ProbeRoundsAreDeterministicAndMixed) {
  const fw::ScenarioGenerator gen(small_spec(fw::GraphFamily::kPowerLaw));
  fe::Engine eng;
  gen.populate(eng);
  const auto snapshot = eng.query_snapshot();
  const fw::ProbeRound r1 = gen.probes(*snapshot, 1000, /*round=*/3);
  const fw::ProbeRound r2 = gen.probes(*snapshot, 1000, /*round=*/3);
  EXPECT_EQ(r1.membership, r2.membership);
  EXPECT_EQ(r1.next_gathering, r2.next_gathering);
  EXPECT_EQ(r1.membership.size() + r1.next_gathering.size(), 1000U);
  EXPECT_EQ(r1.next_gathering.size(), 125U);  // default mix: 0.125
  const fw::ProbeRound other = gen.probes(*snapshot, 1000, /*round=*/4);
  EXPECT_NE(r1.membership, other.membership);
}

// ------------------------------------------- batch vs per-query stress -----

TEST(Workload, QueryBatchAgreesWithPerQueryAcrossAllFamilies) {
  for (const fw::GraphFamily family : fw::all_graph_families()) {
    fw::ScenarioSpec spec = small_spec(family);
    spec.aperiodic = 0.3;  // force both the table and the replay path
    const fw::ScenarioGenerator gen(spec);
    fe::Engine eng;
    gen.populate(eng);
    (void)eng.step_all(64);
    const auto snapshot = eng.query_snapshot();
    const fw::ProbeRound round = gen.probes(*snapshot, 2000);

    const std::vector<std::uint8_t> members = eng.query_batch(round.membership);
    ASSERT_EQ(members.size(), round.membership.size());
    for (std::size_t i = 0; i < round.membership.size(); ++i) {
      const fe::Probe& probe = round.membership[i];
      const bool single =
          snapshot->instance(probe.instance)->is_happy(probe.node, probe.holiday);
      ASSERT_EQ(members[i] != 0, single)
          << fw::graph_family_name(family) << " probe " << i << " instance " << probe.instance
          << " node " << probe.node << " holiday " << probe.holiday;
    }

    const std::vector<std::uint64_t> nexts = eng.next_gathering_batch(round.next_gathering);
    ASSERT_EQ(nexts.size(), round.next_gathering.size());
    for (std::size_t i = 0; i < round.next_gathering.size(); ++i) {
      const fe::Probe& probe = round.next_gathering[i];
      const auto single =
          snapshot->instance(probe.instance)->next_gathering(probe.node, probe.holiday);
      ASSERT_EQ(nexts[i], single.value_or(fe::kNoGathering))
          << fw::graph_family_name(family) << " probe " << i;
    }
  }
}

TEST(Workload, QueryBatchMatchesEngineNamePath) {
  const fw::ScenarioGenerator gen(small_spec(fw::GraphFamily::kRing));
  fe::Engine eng;
  gen.populate(eng);
  const auto snapshot = eng.query_snapshot();
  const fw::ProbeRound round = gen.probes(*snapshot, 500);
  const std::vector<std::uint8_t> members = eng.query_batch(round.membership);
  for (std::size_t i = 0; i < round.membership.size(); ++i) {
    const fe::Probe& probe = round.membership[i];
    const std::string& name = snapshot->instance(probe.instance)->name();
    EXPECT_EQ(members[i] != 0, eng.is_happy(name, probe.node, probe.holiday));
  }
}

// --------------------------------------------------- snapshot semantics ----

TEST(QuerySnapshot, RebuildsOnlyWhenRegistryChanges) {
  fe::Engine eng;
  (void)eng.create_instance("a", fg::cycle(5), fe::InstanceSpec{});
  const auto first = eng.query_snapshot();
  const auto second = eng.query_snapshot();
  EXPECT_EQ(first.get(), second.get());  // warm path: same snapshot object

  (void)eng.create_instance("b", fg::cycle(7), fe::InstanceSpec{});
  const auto third = eng.query_snapshot();
  EXPECT_NE(second.get(), third.get());
  EXPECT_GT(third->epoch(), second->epoch());
  EXPECT_EQ(third->size(), 2U);
}

TEST(QuerySnapshot, OldSnapshotSurvivesErase) {
  fe::Engine eng;
  (void)eng.create_instance("victim", fg::cycle(5), fe::InstanceSpec{});
  const auto snapshot = eng.query_snapshot();
  const auto id = snapshot->id_of("victim");
  ASSERT_TRUE(id.has_value());
  ASSERT_TRUE(eng.erase_instance("victim").ok());
  // The old snapshot still answers: shared ownership keeps the instance (and
  // its interned period table) alive for in-flight batches.
  std::vector<fe::Probe> probes(4);
  for (std::uint32_t i = 0; i < probes.size(); ++i) {
    probes[i] = fe::Probe{.instance = *id, .node = static_cast<fg::NodeId>(i), .holiday = i + 1};
  }
  std::vector<std::uint8_t> out(probes.size());
  EXPECT_NO_THROW(snapshot->query_batch(probes, out));
  EXPECT_EQ(eng.query_snapshot()->size(), 0U);
}

TEST(QuerySnapshot, IdOfResolvesSortedNames) {
  fe::Engine eng;
  (void)eng.create_instance("zeta", fg::cycle(4), fe::InstanceSpec{});
  (void)eng.create_instance("alpha", fg::cycle(4), fe::InstanceSpec{});
  const auto snapshot = eng.query_snapshot();
  ASSERT_EQ(snapshot->size(), 2U);
  EXPECT_EQ(snapshot->id_of("alpha"), std::optional<std::uint32_t>(0U));
  EXPECT_EQ(snapshot->id_of("zeta"), std::optional<std::uint32_t>(1U));
  EXPECT_FALSE(snapshot->id_of("missing").has_value());
}

TEST(QuerySnapshot, RejectsOutOfRangeProbes) {
  fe::Engine eng;
  (void)eng.create_instance("only", fg::cycle(4), fe::InstanceSpec{});
  const auto snapshot = eng.query_snapshot();
  std::vector<std::uint8_t> out(1);
  const std::vector<fe::Probe> bad_instance{fe::Probe{.instance = 9, .node = 0, .holiday = 1}};
  EXPECT_THROW(snapshot->query_batch(bad_instance, out), std::out_of_range);
  const std::vector<fe::Probe> bad_node{fe::Probe{.instance = 0, .node = 99, .holiday = 1}};
  EXPECT_THROW(snapshot->query_batch(bad_node, out), std::out_of_range);
}

// ------------------------------------------------- shared period tables ----

TEST(PeriodTableIntern, IdenticalSchedulesShareOneTable) {
  fe::Engine eng;
  const fg::Graph g = fg::cycle(12);
  fe::InstanceSpec spec;
  spec.kind = fe::SchedulerKind::kDegreeBound;
  const auto a = eng.create_instance("a", g, spec);
  const auto b = eng.create_instance("b", g, spec);
  ASSERT_TRUE(a->periodic());
  ASSERT_TRUE(b->periodic());
  EXPECT_EQ(a->period_table_shared(), b->period_table_shared());  // same interned object

  fe::InstanceSpec other;
  other.kind = fe::SchedulerKind::kRoundRobin;
  const auto c = eng.create_instance("c", g, other);
  ASSERT_TRUE(c->periodic());
  EXPECT_NE(a->period_table_shared(), c->period_table_shared());
}

TEST(WorkloadGraph, RandomGeometricIsDeterministicAndSimple) {
  const fg::Graph a = fg::random_geometric(200, 0.12, 5);
  const fg::Graph b = fg::random_geometric(200, 0.12, 5);
  EXPECT_EQ(a.edges(), b.edges());
  const fg::Graph c = fg::random_geometric(200, 0.12, 6);
  EXPECT_NE(a.edges(), c.edges());
  // radius 0 ⇒ no edges; radius sqrt(2) ⇒ complete.
  EXPECT_EQ(fg::random_geometric(50, 0.0, 1).num_edges(), 0U);
  EXPECT_EQ(fg::random_geometric(20, 1.5, 1).num_edges(), 190U);
}

// ------------------------------------------------- mutation rounds (§6) ----

TEST(WorkloadMutation, ScenarioStringRoundTripsDynamicKeys) {
  fw::ScenarioSpec spec = small_spec(fw::GraphFamily::kPowerLaw, 5);
  spec.dynamic_share = 0.375;
  spec.mutation = 0.25;
  const auto parsed = fw::parse_scenario(fw::scenario_name(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
  const auto explicit_keys = fw::parse_scenario("ring:dynamic=0.5,mutation=0.1");
  ASSERT_TRUE(explicit_keys.has_value());
  EXPECT_DOUBLE_EQ(explicit_keys->dynamic_share, 0.5);
  EXPECT_DOUBLE_EQ(explicit_keys->mutation, 0.1);
}

TEST(WorkloadMutation, DynamicShareProducesDynamicTenants) {
  fw::ScenarioSpec spec = small_spec(fw::GraphFamily::kPowerLaw);
  spec.fleet = 48;
  spec.dynamic_share = 0.5;
  const fw::ScenarioGenerator gen(spec);
  std::size_t dynamic_count = 0;
  for (std::size_t i = 0; i < spec.fleet; ++i) {
    dynamic_count += gen.tenant(i).spec.kind == fe::SchedulerKind::kDynamicPrefixCode ? 1 : 0;
  }
  EXPECT_GT(dynamic_count, 0U);
  EXPECT_LT(dynamic_count, spec.fleet);

  // dynamic=0 leaves the catalogue exactly as before — no accidental drift
  // in existing scenario expansions.
  fw::ScenarioSpec plain = spec;
  plain.dynamic_share = 0.0;
  const fw::ScenarioGenerator plain_gen(plain);
  for (std::size_t i = 0; i < spec.fleet; ++i) {
    EXPECT_NE(plain_gen.tenant(i).spec.kind, fe::SchedulerKind::kDynamicPrefixCode);
  }
}

TEST(WorkloadMutation, MutationCommandsArePureFunctions) {
  fw::ScenarioSpec spec = small_spec(fw::GraphFamily::kGrid, 11);
  spec.dynamic_share = 1.0;
  spec.mutation = 0.5;
  const fw::ScenarioGenerator a(spec);
  const fw::ScenarioGenerator b(spec);
  for (std::size_t slot = 0; slot < spec.fleet; ++slot) {
    for (std::uint64_t round = 0; round < 4; ++round) {
      EXPECT_EQ(a.mutation_commands(slot, round, 16), b.mutation_commands(slot, round, 16));
    }
  }
  // Different rounds decide differently (the streams are not frozen).
  bool diverged = false;
  for (std::size_t slot = 0; slot < spec.fleet && !diverged; ++slot) {
    diverged = a.mutation_commands(slot, 0, 16) != a.mutation_commands(slot, 1, 16);
  }
  EXPECT_TRUE(diverged);
}

TEST(WorkloadMutation, MutationRoundsAreDeterministicAcrossEngines) {
  fw::ScenarioSpec spec = small_spec(fw::GraphFamily::kPowerLaw, 19);
  spec.dynamic_share = 0.75;
  spec.mutation = 0.5;
  const fw::ScenarioGenerator gen(spec);
  fe::Engine a({.shards = 2, .threads = 2});
  fe::Engine b({.shards = 8, .threads = 1});
  gen.populate(a);
  gen.populate(b);
  (void)a.step_all(32);
  (void)b.step_all(32);
  for (std::uint64_t round = 0; round < 3; ++round) {
    const std::size_t applied_a = gen.mutation_round(a, round);
    const std::size_t applied_b = gen.mutation_round(b, round);
    EXPECT_EQ(applied_a, applied_b) << "round " << round;
    EXPECT_GT(applied_a, 0U) << "round " << round;
  }
  // Identical mutation histories ⇒ byte-identical snapshots, shard layout
  // and thread count notwithstanding.
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(WorkloadMutation, MutationRoundSkipsNonDynamicFleets) {
  fw::ScenarioSpec spec = small_spec(fw::GraphFamily::kRing);
  spec.dynamic_share = 0.0;
  spec.mutation = 1.0;
  const fw::ScenarioGenerator gen(spec);
  fe::Engine eng;
  gen.populate(eng);
  EXPECT_EQ(gen.mutation_round(eng, 0), 0U);  // nothing dynamic to mutate
}

TEST(WorkloadMutation, InPlaceMutationPreservesTenantIdentity) {
  // The point of the mutation path vs replacing the tenant: the tenant
  // object (and its stepped history) survives topology change.
  fw::ScenarioSpec spec = small_spec(fw::GraphFamily::kPowerLaw, 3);
  spec.dynamic_share = 1.0;
  spec.mutation = 1.0;
  const fw::ScenarioGenerator gen(spec);
  fe::Engine eng;
  gen.populate(eng);
  (void)eng.step_all(16);
  std::vector<std::shared_ptr<fe::Instance>> handles;
  for (std::size_t i = 0; i < spec.fleet; ++i) {
    handles.push_back(eng.find(gen.tenant_name(i)));
  }
  (void)gen.mutation_round(eng, 0);
  for (std::size_t i = 0; i < spec.fleet; ++i) {
    EXPECT_EQ(eng.find(gen.tenant_name(i)), handles[i]) << "slot " << i;
    EXPECT_EQ(handles[i]->current_holiday(), 16U) << "slot " << i;
  }
}
