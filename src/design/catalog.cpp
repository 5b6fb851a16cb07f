#include "design/catalog.hpp"

#include <limits>
#include <stdexcept>

#include "algebra/numtheory.hpp"
#include "design/complete_design.hpp"
#include "design/reduced_design.hpp"
#include "design/ring_design.hpp"
#include "design/subfield_design.hpp"

namespace pdl::design {

std::string method_name(Method method) {
  switch (method) {
    case Method::kComplete: return "complete";
    case Method::kRing: return "ring (Thm 1)";
    case Method::kTheorem4: return "symmetric (Thm 4)";
    case Method::kTheorem5: return "symmetric (Thm 5)";
    case Method::kSubfield: return "subfield (Thm 6)";
  }
  return "unknown";
}

std::optional<DesignParams> predicted_params(Method method, std::uint32_t v,
                                             std::uint32_t k) {
  if (v < 2 || k < 2 || k > v) return std::nullopt;
  switch (method) {
    case Method::kComplete: {
      // A saturated binomial (b or r at UINT64_MAX) is no design size:
      // every count derived from it would wrap, so the complete design
      // does not apply -- as summarize_feasibility's complete_hg rules.
      const DesignParams params = complete_design_params(v, k);
      constexpr std::uint64_t kSaturated =
          std::numeric_limits<std::uint64_t>::max();
      if (params.b == kSaturated || params.r == kSaturated)
        return std::nullopt;
      return params;
    }
    case Method::kRing:
      if (!ring_design_exists(v, k)) return std::nullopt;
      return ring_design_params(v, k);
    case Method::kTheorem4:
      if (!algebra::is_prime_power(v)) return std::nullopt;
      return theorem4_params(v, k);
    case Method::kTheorem5:
      if (!algebra::is_prime_power(v) || k == v) return std::nullopt;
      return theorem5_params(v, k);
    case Method::kSubfield:
      if (!subfield_design_exists(v, k)) return std::nullopt;
      return subfield_design_params(v, k);
  }
  return std::nullopt;
}

std::vector<Method> applicable_methods(std::uint32_t v, std::uint32_t k) {
  std::vector<Method> out;
  for (Method m : {Method::kComplete, Method::kRing, Method::kTheorem4,
                   Method::kTheorem5, Method::kSubfield}) {
    if (predicted_params(m, v, k)) out.push_back(m);
  }
  return out;
}

BlockDesign build_design(Method method, std::uint32_t v, std::uint32_t k) {
  if (!predicted_params(method, v, k))
    throw std::invalid_argument("build_design: " + method_name(method) +
                                " does not apply at v=" + std::to_string(v) +
                                ", k=" + std::to_string(k));
  switch (method) {
    case Method::kComplete: return make_complete_design(v, k);
    case Method::kRing: return make_ring_design(v, k).design;
    case Method::kTheorem4: return make_theorem4_design(v, k);
    case Method::kTheorem5: return make_theorem5_design(v, k);
    case Method::kSubfield: return make_subfield_design(v, k);
  }
  throw std::logic_error("build_design: unreachable");
}

std::optional<CatalogChoice> best_method(std::uint32_t v, std::uint32_t k) {
  std::optional<CatalogChoice> best;
  for (Method m : applicable_methods(v, k)) {
    const auto params = predicted_params(m, v, k);
    if (!best || params->b < best->params.b) best = CatalogChoice{m, *params};
  }
  return best;
}

BlockDesign build_best_design(std::uint32_t v, std::uint32_t k) {
  const auto choice = best_method(v, k);
  if (!choice)
    throw std::invalid_argument("build_best_design: no construction for v=" +
                                std::to_string(v) + ", k=" + std::to_string(k));
  return build_design(choice->method, v, k);
}

}  // namespace pdl::design
