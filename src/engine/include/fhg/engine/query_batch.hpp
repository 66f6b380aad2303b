#pragma once

/// \file query_batch.hpp
/// The lock-free batched read path of the engine.
///
/// `QuerySnapshot` is an immutable, flat view of the registry at one epoch:
/// instances sorted by name, with each periodic tenant's `PeriodTable`
/// pointer pulled into a parallel array.  The engine publishes the current
/// snapshot through an atomic `shared_ptr` and rebuilds it only when the
/// registry's epoch has moved — so after warm-up (fleet built, first batch
/// served) every `query_batch` call is: one atomic load, one relaxed epoch
/// check, then pure table arithmetic.  No shard mutex, no name hashing, no
/// per-probe allocation.
///
/// Probes address instances by their snapshot index (resolve names once via
/// `id_of`, amortized over thousands of probes).  The batch kernel groups
/// probe *indices* by instance id, so all probes against one table run
/// back-to-back over its structure-of-arrays storage — the sorted-access
/// locality that makes batching ~an order of magnitude faster than calling
/// `Engine::is_happy` per probe.  Grouping costs O(probes · log probes) for
/// a batch small against the fleet (a comparison sort) and
/// O(probes + fleet) otherwise (a counting sort), so a one-probe batch
/// costs O(1) however large the fleet is.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fhg/engine/instance.hpp"
#include "fhg/graph/graph.hpp"

namespace fhg::engine {

class InstanceRegistry;

/// One (instance, family, holiday) probe.  `holiday` is the queried holiday
/// `t` for membership batches and the exclusive lower bound `after` for
/// next-gathering batches.
struct Probe {
  std::uint32_t instance = 0;  ///< index into the snapshot (see `QuerySnapshot::id_of`)
  graph::NodeId node = 0;      ///< the family asking
  std::uint64_t holiday = 0;

  friend constexpr bool operator==(const Probe&, const Probe&) noexcept = default;
};

/// Sentinel for "no gathering found within the search limit" in
/// `next_gathering_batch` results (holidays are 1-based, so 0 is free).
inline constexpr std::uint64_t kNoGathering = 0;

class QuerySnapshot {
 public:
  /// A batch of `p` probes over a fleet of `n` takes the counting sort once
  /// `p * kCountingSortFleetRatio > n`.  The comparison sort costs
  /// O(p log p), the counting sort O(p + n); the ratio is E18's break-even
  /// on its 10k-instance fleet (4-vCPU x86 VM, Release): the whole
  /// membership kernel ran 2.3–2.5e7 probes/s at p = 1251 (counting) against
  /// 2.9–3.4e7 at p = 1250 (comparison), and 1.6e7 against 3.1–3.8e7 at
  /// p = n/16, while a stand-alone grouping test put the crossing at
  /// p ≈ n/7 for n = 10000 and nearer n/16 for n = 65536.
  /// E18's `small-batch-1250`/`-1251` pair tracks the switch.
  static constexpr std::size_t kCountingSortFleetRatio = 8;

  /// Flattens the registry's current membership (sorted by name) and stamps
  /// it with `epoch`.
  [[nodiscard]] static std::shared_ptr<const QuerySnapshot> build(const InstanceRegistry& registry,
                                                                  std::uint64_t epoch);

  /// Registry epoch this snapshot was built at.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Number of instances captured.
  [[nodiscard]] std::size_t size() const noexcept { return instances_.size(); }

  /// Snapshot index of `name`; nullopt if the instance was not present when
  /// the snapshot was taken.  O(1): the build indexes every name in a hash
  /// map, so per-request name resolution (the `fhg::service` front-end
  /// resolves each queued request exactly once) costs one hash, not a
  /// binary search.
  [[nodiscard]] std::optional<std::uint32_t> id_of(std::string_view name) const;

  /// The instance at snapshot index `id` (shared ownership: stays valid even
  /// if the registry has since erased it).
  [[nodiscard]] const std::shared_ptr<Instance>& instance(std::uint32_t id) const {
    return instances_[id];
  }

  /// Name of the instance at snapshot index `id`.
  [[nodiscard]] std::string_view name(std::uint32_t id) const { return names_[id]; }

  /// Node count of instance `id` as captured at build time — the bound the
  /// batch kernels validate probes against.  Batch-entry hook: callers that
  /// coalesce independent requests (the service layer) pre-validate each
  /// probe against this bound so one malformed request is rejected alone
  /// instead of poisoning the whole batch with an exception.
  [[nodiscard]] graph::NodeId num_nodes(std::uint32_t id) const { return num_nodes_[id]; }

  /// Answers `out[i] = is_happy(probes[i])` for every probe.  Periodic
  /// instances are answered lock-free from their period tables in sorted
  /// order; aperiodic instances fall back to the per-instance replay path.
  /// Throws `std::out_of_range` on an invalid instance index or node.
  void query_batch(std::span<const Probe> probes, std::span<std::uint8_t> out) const;

  /// Answers `out[i] = next_gathering(probes[i])` (first happy holiday
  /// strictly after `probes[i].holiday`), or `kNoGathering` when an
  /// aperiodic search gives up.  Same ordering and error contract as
  /// `query_batch`.
  void next_gathering_batch(std::span<const Probe> probes, std::span<std::uint64_t> out) const;

 private:
  QuerySnapshot() = default;

  /// Probe indices grouped by instance id, equal instances in probe order —
  /// the shared iteration order of both batch kernels, kept in `order`
  /// (a one-probe batch needs neither grouping nor storage).  Comparison
  /// sort for a batch small against the fleet, counting sort otherwise (see
  /// `kCountingSortFleetRatio`).  Also validates every probe so the kernels
  /// can index unchecked.
  [[nodiscard]] std::span<const std::uint32_t> sorted_order(
      std::span<const Probe> probes, std::vector<std::uint32_t>& order) const;

  /// Transparent hashing so `id_of` takes a string_view without allocating.
  struct NameHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::uint64_t epoch_ = 0;
  std::vector<std::shared_ptr<Instance>> instances_;  ///< sorted by name
  std::vector<std::string_view> names_;               ///< views into instances_' names
  /// name → snapshot index; keys view into instances_' names (stable: the
  /// shared_ptrs above keep every instance alive for the snapshot's life).
  std::unordered_map<std::string_view, std::uint32_t, NameHash, std::equal_to<>> ids_;
  /// Table *version* captured at build time, nullptr for aperiodic tenants.
  /// Shared ownership, not raw pointers: a dynamic tenant republishes its
  /// table on mutation, and this snapshot must keep serving the version it
  /// captured — consistently and without dangling — until readers drop it.
  std::vector<std::shared_ptr<const PeriodTable>> tables_;
  std::vector<graph::NodeId> num_nodes_;              ///< per-instance node counts at build time
};

}  // namespace fhg::engine
