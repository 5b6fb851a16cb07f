#include "core/declustered_array.hpp"

namespace pdl::core {

std::string construction_name(Construction construction) {
  switch (construction) {
    case Construction::kRaid5: return "RAID5";
    case Construction::kRingLayout: return "ring layout";
    case Construction::kBibdFlow: return "BIBD + flow-balanced parity";
    case Construction::kBibdPerfect: return "BIBD + perfect parity";
    case Construction::kRemoval: return "disk removal (Thm 8/9)";
    case Construction::kStairway: return "stairway (Thm 10-12)";
    case Construction::kExternal: return "external";
  }
  return "unknown";
}

}  // namespace pdl::core
