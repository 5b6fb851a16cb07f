#pragma once
// The pluggable layout-construction engine: the selection machinery behind
// engine::Engine and api::Array::create.
//
// Each construction this library knows (RAID5, ring, the BIBD routes, disk
// removal, stairway) is wrapped in a self-describing LayoutBuilder with two
// halves: a cheap, closed-form plan() that predicts the layout it would
// produce for a spec (size, balance class, provenance) without
// materializing anything, and a build() that materializes a plan into a
// BuiltLayout.  The ConstructionPlanner keeps a registry of builders, ranks
// every applicable plan by (balance class, predicted size, registration
// order), builds the best one, and falls back down the ranking if a build
// fails.  Adding a construction means writing one LayoutBuilder and
// registering it in register_default_builders() -- the selection loop never
// changes.

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/declustered_array.hpp"

namespace pdl::engine {

/// Balance guarantees a plan offers, strongest first.  Ranked before size:
/// a perfectly balanced route beats a smaller approximate one, matching the
/// paper's preference for exact constructions when they fit Condition 4.
enum class BalanceClass : std::uint8_t {
  kPerfect = 0,      ///< parity and reconstruction load perfectly even
  kNearPerfect = 1,  ///< parity within one unit per disk (Corollary 16)
  kApproximate = 2,  ///< Section 3 interval bounds only
};

[[nodiscard]] std::string_view balance_class_name(BalanceClass balance);

/// What a builder predicts it would produce for a spec, before building.
/// The predictions are exact closed forms; tests hold every builder to
/// plan().units_per_disk == metrics of the built layout.
struct LayoutPlan {
  core::ArraySpec spec;
  core::Construction construction{};
  std::uint64_t units_per_disk = 0;  ///< predicted layout size s
  bool perfect_parity = false;       ///< predicted Condition 2 exactness
  BalanceClass balance = BalanceClass::kApproximate;
  std::uint32_t base_q = 0;  ///< base prime power (removal/stairway), else 0
  std::string description;   ///< human-readable provenance

  /// Condition 4 cost: lookup-table rows = v * s.
  [[nodiscard]] std::uint64_t table_entries() const noexcept {
    return static_cast<std::uint64_t>(spec.num_disks) * units_per_disk;
  }
};

/// One construction, self-describing.  plan() must be cheap (closed-form,
/// no layout materialized); build() may be expensive and may throw, in
/// which case the planner falls back to the next-ranked plan.
class LayoutBuilder {
 public:
  virtual ~LayoutBuilder() = default;

  [[nodiscard]] virtual core::Construction construction() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// The plan for this spec, or nullopt when the construction does not
  /// apply at (v, k).  Budget and policy filtering is the planner's job;
  /// builders only describe what they can build.
  [[nodiscard]] virtual std::optional<LayoutPlan> plan(
      const core::ArraySpec& spec,
      const core::BuildOptions& options) const = 0;

  /// Materializes a plan previously produced by this builder's plan().
  [[nodiscard]] virtual core::BuiltLayout build(
      const LayoutPlan& plan) const = 0;
};

/// The registry + selection loop.  Builders are ranked generically; no
/// construction-specific branching lives here.
class ConstructionPlanner {
 public:
  ConstructionPlanner() = default;
  ConstructionPlanner(const ConstructionPlanner&) = delete;
  ConstructionPlanner& operator=(const ConstructionPlanner&) = delete;

  /// Registers a builder.  Registration order is the final tie-breaker in
  /// ranking, so register stronger defaults first.
  void register_builder(std::unique_ptr<LayoutBuilder> builder);

  [[nodiscard]] std::size_t num_builders() const noexcept {
    return builders_.size();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<LayoutBuilder>>& builders()
      const noexcept {
    return builders_;
  }

  /// The registered builder for a construction, or nullptr.
  [[nodiscard]] const LayoutBuilder* find(
      core::Construction construction) const noexcept;

  /// Plans of every applicable registered builder that survives the
  /// options' policy filters (unit budget, perfect-parity requirement,
  /// approximate permission), ranked best-first.  Throws
  /// std::invalid_argument unless 2 <= k <= v.
  [[nodiscard]] std::vector<LayoutPlan> rank_plans(
      const core::ArraySpec& spec, const core::BuildOptions& options) const;

  /// Ranks plans and builds the best; if a build throws, falls back to the
  /// next-ranked plan.  nullopt when no plan survives (or all builds fail).
  [[nodiscard]] std::optional<core::BuiltLayout> build_best(
      const core::ArraySpec& spec,
      const core::BuildOptions& options = {}) const;

  /// Builds through one specific construction, bypassing ranking (the
  /// policy filters still apply).  nullopt when it does not apply.
  [[nodiscard]] std::optional<core::BuiltLayout> build_with(
      core::Construction construction, const core::ArraySpec& spec,
      const core::BuildOptions& options = {}) const;

  /// The process-wide planner preloaded with the six built-in
  /// constructions.  Built once, never mutated afterwards.
  [[nodiscard]] static const ConstructionPlanner& default_planner();

 private:
  std::vector<std::unique_ptr<LayoutBuilder>> builders_;
};

/// Registers the six built-in constructions (kRaid5, kRingLayout,
/// kBibdPerfect, kBibdFlow, kRemoval, kStairway) in ranking-friendly
/// order.  New constructions join the engine here.
void register_default_builders(ConstructionPlanner& planner);

}  // namespace pdl::engine
