#include "engine/layout_cache.hpp"

#include <stdexcept>
#include <string>

namespace pdl::engine {

namespace {

[[nodiscard]] Status validate_spec(const core::ArraySpec& spec) {
  return layout::validate_vk(spec.num_disks, spec.stripe_size);
}

[[nodiscard]] Status no_fit(const core::ArraySpec& spec) {
  return Status::unsupported(
      "no construction fits v=" + std::to_string(spec.num_disks) +
      " k=" + std::to_string(spec.stripe_size) + " under the options");
}

}  // namespace

Result<std::shared_ptr<const core::BuiltLayout>> LayoutCache::get(
    const core::ArraySpec& spec, const core::BuildOptions& options) {
  if (Status domain = validate_spec(spec); !domain.ok()) return domain;
  auto entry = get_impl(spec, options, /*count_stats=*/true);
  if (!entry) return no_fit(spec);
  return entry;
}

std::shared_ptr<const core::BuiltLayout> LayoutCache::get_impl(
    const core::ArraySpec& spec, const core::BuildOptions& options,
    bool count_stats) {
  const Key key{spec.num_disks, spec.stripe_size, options.unit_budget,
                options.require_perfect_parity, options.allow_approximate};
  {
    std::lock_guard lock(mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      if (count_stats) ++hits_;
      return it->second;
    }
  }
  // Build outside the lock: derivations can take milliseconds and callers
  // on other keys should not serialize behind them.  A racing duplicate
  // build is harmless -- first insert wins and both callers share it.
  auto built = planner_.build_best(spec, options);
  std::shared_ptr<const core::BuiltLayout> entry;
  if (built)
    entry = std::make_shared<const core::BuiltLayout>(std::move(*built));

  std::lock_guard lock(mutex_);
  if (count_stats) ++misses_;
  const auto [it, inserted] = cache_.emplace(key, std::move(entry));
  return it->second;
}

Result<std::shared_ptr<const layout::SparedLayout>> LayoutCache::get_spared(
    const core::ArraySpec& spec, const core::BuildOptions& options) {
  if (Status domain = validate_spec(spec); !domain.ok()) return domain;
  auto entry = get_spared_impl(spec, options);
  if (!entry) return no_fit(spec);
  return entry;
}

std::shared_ptr<const layout::SparedLayout> LayoutCache::get_spared_impl(
    const core::ArraySpec& spec, const core::BuildOptions& options) {
  const Key key{spec.num_disks, spec.stripe_size, options.unit_budget,
                options.require_perfect_parity, options.allow_approximate};
  {
    std::lock_guard lock(mutex_);
    if (const auto it = spared_cache_.find(key); it != spared_cache_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // The base layout comes through the same memo, so the derivation is
  // shared; the inner lookup is not counted (each public call records
  // exactly one hit or miss, against its own cache).
  const auto built = get_impl(spec, options, /*count_stats=*/false);
  std::shared_ptr<const layout::SparedLayout> entry;
  if (built)
    entry = std::make_shared<const layout::SparedLayout>(
        layout::add_distributed_sparing(built->layout));

  std::lock_guard lock(mutex_);
  ++misses_;
  const auto [it, inserted] = spared_cache_.emplace(key, std::move(entry));
  return it->second;
}

LayoutCache::Stats LayoutCache::stats() const {
  std::lock_guard lock(mutex_);
  return {hits_, misses_, cache_.size() + spared_cache_.size()};
}

void LayoutCache::clear() {
  std::lock_guard lock(mutex_);
  cache_.clear();
  spared_cache_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace pdl::engine
