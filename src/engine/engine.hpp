#pragma once
// The engine facade: planner registry + layout cache behind one object.
// Applications should normally go one level higher still -- pdl::api::Array
// (src/api/array.hpp) wraps an engine build together with a compiled
// mapper and the online failure/rebuild state machine.  Reach for the
// engine directly when you need plans or raw BuiltLayouts:
//
//   auto& engine = pdl::engine::Engine::global();
//   auto built = engine.build({.num_disks = 33, .stripe_size = 5});
//   if (built.ok()) { ... (*built)->layout ... }
//
// Engine::build/build_spared return pdl::Result.

#include <memory>

#include "core/status.hpp"
#include "engine/layout_cache.hpp"
#include "engine/planner.hpp"

namespace pdl::engine {

/// Facade combining a ConstructionPlanner with a LayoutCache.
class Engine {
 public:
  /// An engine over the given planner, which must outlive the engine.
  explicit Engine(const ConstructionPlanner& planner =
                      ConstructionPlanner::default_planner())
      : planner_(planner), cache_(planner) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const ConstructionPlanner& planner() const noexcept {
    return planner_;
  }
  [[nodiscard]] LayoutCache& cache() noexcept { return cache_; }

  /// The (cached) best layout for the spec.  kInvalidArgument for
  /// malformed specs, kUnsupported when no construction fits the options.
  [[nodiscard]] Result<std::shared_ptr<const core::BuiltLayout>> build(
      const core::ArraySpec& spec, const core::BuildOptions& options = {}) {
    return cache_.get(spec, options);
  }

  /// The (cached) best layout for the spec with a balanced distributed-
  /// sparing overlay (layout::add_distributed_sparing).  The base layout
  /// derivation is shared with build(); fault-scenario sweeps reuse one
  /// immutable SparedLayout across runs.  Same error contract as build().
  [[nodiscard]] Result<std::shared_ptr<const layout::SparedLayout>>
  build_spared(const core::ArraySpec& spec,
               const core::BuildOptions& options = {}) {
    return cache_.get_spared(spec, options);
  }

  /// Candidate plans for a spec, ranked best-first (uncached; planning is
  /// closed-form and cheap).
  [[nodiscard]] std::vector<LayoutPlan> rank_plans(
      const core::ArraySpec& spec,
      const core::BuildOptions& options = {}) const {
    return planner_.rank_plans(spec, options);
  }

  /// The process-wide engine over the default planner.
  [[nodiscard]] static Engine& global();

 private:
  const ConstructionPlanner& planner_;
  LayoutCache cache_;
};

}  // namespace pdl::engine
