#pragma once
// The vocabulary of layout selection: what the user asks for
// (ArraySpec), the selection policy (BuildOptions), and what comes back
// (BuiltLayout with its Construction provenance).  Selection itself --
// exact BIBD-based constructions when they exist and fit the unit budget
// (Condition 4), approximately-balanced constructions (Section 3)
// otherwise -- lives in the construction-engine registry in src/engine/
// (engine::ConstructionPlanner, memoized by engine::Engine).
// Applications should start at pdl::api::Array, which wraps an engine
// build with layout::CompiledMapper serving tables.

#include <string>

#include "layout/feasibility.hpp"
#include "layout/layout.hpp"
#include "layout/metrics.hpp"

namespace pdl::core {

/// What the user wants to build.
struct ArraySpec {
  std::uint32_t num_disks = 0;    ///< v
  std::uint32_t stripe_size = 0;  ///< k (2 <= k <= v); k == v means RAID5
};

/// Selection policy.
struct BuildOptions {
  /// Condition 4 budget: maximum units per disk (lookup-table rows).
  std::uint64_t unit_budget = layout::kDefaultUnitBudget;
  /// Require perfectly balanced parity (rejects Theorem 9/12 layouts and
  /// single-copy BIBD layouts whose b is not a multiple of v).
  bool require_perfect_parity = false;
  /// Permit the approximately-balanced constructions of Section 3.
  bool allow_approximate = true;
};

/// How a layout was obtained, for reporting.
enum class Construction {
  kRaid5,
  kRingLayout,        ///< Section 3.1 single-copy ring layout
  kBibdFlow,          ///< catalog BIBD + Section 4 flow-balanced parity
  kBibdPerfect,       ///< catalog BIBD + lcm(b,v)/b copies (perfect parity)
  kRemoval,           ///< Theorems 8/9
  kStairway,          ///< Theorems 10-12
  kExternal,          ///< adopted/deserialized; provenance unknown
};

[[nodiscard]] std::string construction_name(Construction construction);

/// A built layout together with its provenance and measured quality.
struct BuiltLayout {
  layout::Layout layout;
  Construction construction;
  std::string description;        ///< e.g. "stairway q=81 c=5 w=5"
  layout::LayoutMetrics metrics;  ///< measured, not predicted
};

}  // namespace pdl::core
