#pragma once
// Memoization of built layouts.  Deriving a layout (catalog search, flow
// balancing, stairway assembly, metrics) is orders of magnitude more
// expensive than looking one up, and simulation / benchmark sweeps rebuild
// the same (v, k) points over and over.  The cache keys on the full
// (spec, options) tuple and hands out shared_ptr<const BuiltLayout> so
// concurrent users share one immutable instance.
//
// All lookups report failure through the typed pdl::Status model:
// kInvalidArgument for malformed specs (never cached) and kUnsupported
// when no construction fits the options (cached, so the planner is not
// re-consulted).

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/status.hpp"
#include "engine/planner.hpp"
#include "layout/sparing.hpp"

namespace pdl::engine {

/// Thread-safe memo of ConstructionPlanner::build_best results.  Negative
/// results (no construction fits) are cached too.
class LayoutCache {
 public:
  /// Caches builds from the given planner, which must outlive the cache.
  explicit LayoutCache(
      const ConstructionPlanner& planner =
          ConstructionPlanner::default_planner())
      : planner_(planner) {}

  LayoutCache(const LayoutCache&) = delete;
  LayoutCache& operator=(const LayoutCache&) = delete;

  /// The cached layout for (spec, options), building it on first use.
  /// kInvalidArgument for invalid specs (never cached); kUnsupported when
  /// no construction fits the options.
  [[nodiscard]] Result<std::shared_ptr<const core::BuiltLayout>> get(
      const core::ArraySpec& spec, const core::BuildOptions& options = {});

  /// The cached distributed-sparing overlay of get(spec, options):
  /// layout::add_distributed_sparing runs a network flow per call, and
  /// scenario sweeps replay the same spared layout across many
  /// (timeline, scheduler) combinations.  Shares the underlying Layout
  /// derivation with get() through the same planner.  Same error
  /// contract as get().
  [[nodiscard]] Result<std::shared_ptr<const layout::SparedLayout>>
  get_spared(const core::ArraySpec& spec,
             const core::BuildOptions& options = {});

  /// Each public get*/get_spared call counts as exactly one hit or miss
  /// against its own cache; entries spans both maps.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

  void clear();

 private:
  [[nodiscard]] std::shared_ptr<const core::BuiltLayout> get_impl(
      const core::ArraySpec& spec, const core::BuildOptions& options,
      bool count_stats);
  [[nodiscard]] std::shared_ptr<const layout::SparedLayout> get_spared_impl(
      const core::ArraySpec& spec, const core::BuildOptions& options);

  struct Key {
    std::uint32_t v;
    std::uint32_t k;
    std::uint64_t unit_budget;
    bool require_perfect_parity;
    bool allow_approximate;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t h = key.v;
      h = h * 0x9e3779b97f4a7c15ull + key.k;
      h = h * 0x9e3779b97f4a7c15ull + key.unit_budget;
      h = h * 0x9e3779b97f4a7c15ull +
          (static_cast<std::uint64_t>(key.require_perfect_parity) << 1 |
           static_cast<std::uint64_t>(key.allow_approximate));
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  const ConstructionPlanner& planner_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const core::BuiltLayout>, KeyHash>
      cache_;
  std::unordered_map<Key, std::shared_ptr<const layout::SparedLayout>,
                     KeyHash>
      spared_cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pdl::engine
