#include "fhg/engine/query_batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fhg/engine/registry.hpp"

namespace fhg::engine {

std::shared_ptr<const QuerySnapshot> QuerySnapshot::build(const InstanceRegistry& registry,
                                                          std::uint64_t epoch) {
  auto snapshot = std::shared_ptr<QuerySnapshot>(new QuerySnapshot());
  snapshot->epoch_ = epoch;
  snapshot->instances_ = registry.all_sorted();
  snapshot->names_.reserve(snapshot->instances_.size());
  snapshot->tables_.reserve(snapshot->instances_.size());
  snapshot->num_nodes_.reserve(snapshot->instances_.size());
  snapshot->ids_.reserve(snapshot->instances_.size());
  for (const auto& instance : snapshot->instances_) {
    snapshot->names_.push_back(instance->name());
    snapshot->ids_.emplace(snapshot->names_.back(),
                           static_cast<std::uint32_t>(snapshot->names_.size() - 1));
    snapshot->tables_.push_back(instance->period_table_shared());
    // Derive the probe-validation bound from the captured table itself, so a
    // mutation batch racing this build cannot let a probe index past the
    // version we actually hold.  Aperiodic tenants are never dynamic; their
    // recipe graph is immutable.
    const auto& table = snapshot->tables_.back();
    snapshot->num_nodes_.push_back(table ? table->num_nodes() : instance->graph().num_nodes());
  }
  return snapshot;
}

std::optional<std::uint32_t> QuerySnapshot::id_of(std::string_view name) const {
  const auto it = ids_.find(name);  // transparent: no temporary string
  if (it == ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::span<const std::uint32_t> QuerySnapshot::sorted_order(
    std::span<const Probe> probes, std::vector<std::uint32_t>& order) const {
  const auto n = static_cast<std::uint32_t>(instances_.size());
  // Validate first, in probe order, so both grouping paths throw the same
  // error for the same batch and the kernels can index unchecked.
  for (const Probe& probe : probes) {
    if (probe.instance >= n) {
      throw std::out_of_range("QuerySnapshot: probe instance " + std::to_string(probe.instance) +
                              " out of range (snapshot holds " + std::to_string(n) + ")");
    }
    if (probe.node >= num_nodes_[probe.instance]) {
      throw std::out_of_range("QuerySnapshot: probe node " + std::to_string(probe.node) +
                              " out of range for instance '" + std::string(names_[probe.instance]) +
                              "'");
    }
  }
  if (probes.size() <= 1) {
    // Nothing to group: a lone probe is its own run.
    static constexpr std::uint32_t kFirst[1] = {0};
    return std::span<const std::uint32_t>(kFirst, probes.size());
  }
  order.resize(probes.size());
  if (probes.size() * kCountingSortFleetRatio <= n) {
    // Small batch: sort (instance, index) keys.  The index in the low bits
    // keeps equal instances in probe order, the same order the counting
    // sort below produces.
    std::vector<std::uint64_t> keys(probes.size());
    for (std::uint32_t i = 0; i < probes.size(); ++i) {
      keys[i] = (std::uint64_t{probes[i].instance} << 32) | i;
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t k = 0; k < keys.size(); ++k) {
      order[k] = static_cast<std::uint32_t>(keys[k]);
    }
    return order;
  }
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(n) + 1, 0);
  for (const Probe& probe : probes) {
    ++counts[probe.instance + 1];
  }
  for (std::uint32_t id = 1; id <= n; ++id) {
    counts[id] += counts[id - 1];
  }
  for (std::uint32_t i = 0; i < probes.size(); ++i) {
    order[counts[probes[i].instance]++] = i;
  }
  return order;
}

void QuerySnapshot::query_batch(std::span<const Probe> probes, std::span<std::uint8_t> out) const {
  if (out.size() < probes.size()) {
    throw std::invalid_argument("QuerySnapshot::query_batch: output span too small");
  }
  std::vector<std::uint32_t> storage;
  const std::span<const std::uint32_t> order = sorted_order(probes, storage);
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint32_t id = probes[order[i]].instance;
    // One run per instance: all its probes answered back-to-back.
    std::size_t end = i;
    while (end < order.size() && probes[order[end]].instance == id) {
      ++end;
    }
    if (const PeriodTable* table = tables_[id].get()) {
      for (std::size_t k = i; k < end; ++k) {
        const Probe& probe = probes[order[k]];
        out[order[k]] = table->is_happy(probe.node, probe.holiday) ? 1 : 0;
      }
    } else {
      Instance& instance = *instances_[id];
      for (std::size_t k = i; k < end; ++k) {
        const Probe& probe = probes[order[k]];
        out[order[k]] = instance.is_happy(probe.node, probe.holiday) ? 1 : 0;
      }
    }
    i = end;
  }
}

void QuerySnapshot::next_gathering_batch(std::span<const Probe> probes,
                                         std::span<std::uint64_t> out) const {
  if (out.size() < probes.size()) {
    throw std::invalid_argument("QuerySnapshot::next_gathering_batch: output span too small");
  }
  std::vector<std::uint32_t> storage;
  const std::span<const std::uint32_t> order = sorted_order(probes, storage);
  std::size_t i = 0;
  while (i < order.size()) {
    const std::uint32_t id = probes[order[i]].instance;
    std::size_t end = i;
    while (end < order.size() && probes[order[end]].instance == id) {
      ++end;
    }
    if (const PeriodTable* table = tables_[id].get()) {
      for (std::size_t k = i; k < end; ++k) {
        const Probe& probe = probes[order[k]];
        out[order[k]] = table->next_gathering(probe.node, probe.holiday);
      }
    } else {
      Instance& instance = *instances_[id];
      for (std::size_t k = i; k < end; ++k) {
        const Probe& probe = probes[order[k]];
        out[order[k]] = instance.next_gathering(probe.node, probe.holiday).value_or(kNoGathering);
      }
    }
    i = end;
  }
}

}  // namespace fhg::engine
