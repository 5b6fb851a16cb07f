#include "io/stripe_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace pdl::io {

namespace {

/// splitmix64 finalizer -- the repo's canonical cheap mixer (same shape
/// as workload_driver's content generator), here keyed per sketch row.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

[[nodiscard]] std::uint32_t pow2_at_least(std::uint64_t n) noexcept {
  std::uint32_t p = 1;
  while (p < n && p < (1u << 30)) p <<= 1;
  return p;
}

[[nodiscard]] std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StripeCache::StripeCache(const StripeCacheOptions& options,
                         std::uint32_t unit_bytes, std::uint64_t num_instances)
    : options_(options), unit_bytes_(unit_bytes) {
  // A column per instance, but none beyond one per note between decays.
  const std::uint64_t columns =
      options_.decay_interval > 0
          ? std::min(num_instances, options_.decay_interval)
          : num_instances;
  const std::uint32_t width =
      std::clamp<std::uint32_t>(pow2_at_least(columns), 16, kMaxSketchWidth);
  sketch_mask_ = width - 1;
  sketch_ = std::vector<std::atomic<std::uint32_t>>(
      static_cast<std::size_t>(kSketchRows) * width);
  for (auto& counter : sketch_) counter.store(0, relaxed);

  const std::uint32_t num_shards =
      pow2_at_least(std::max<std::uint32_t>(options_.cache_shards, 1));
  shard_mask_ = num_shards - 1;
  shard_budget_ = options_.read_cache_bytes / num_shards;
  shards_ = std::vector<CacheShard>(num_shards);

  decay_at_.store(options_.decay_interval, relaxed);
  last_flush_ns_.store(now_ns(), relaxed);
}

// ------------------------------------------------------------- hotness

std::size_t StripeCache::sketch_slot(std::uint32_t row,
                                     std::uint64_t instance) const noexcept {
  // Row-keyed mixing gives kSketchRows independent hash functions.
  const std::uint64_t h = mix64(instance ^ (0xA24BAED4963EE407ull * (row + 1)));
  return static_cast<std::size_t>(row) * (sketch_mask_ + 1) +
         static_cast<std::size_t>(h & sketch_mask_);
}

std::uint32_t StripeCache::note(std::uint64_t instance) noexcept {
  std::uint32_t est = UINT32_MAX;
  for (std::uint32_t row = 0; row < kSketchRows; ++row) {
    // Saturating: a counter pinned at max keeps the estimate an upper
    // bound without wrapping to a tiny value.
    auto& counter = sketch_[sketch_slot(row, instance)];
    std::uint32_t current = counter.load(relaxed);
    while (current != UINT32_MAX &&
           !counter.compare_exchange_weak(current, current + 1, relaxed))
      ;
    est = std::min(est, current == UINT32_MAX ? current : current + 1);
  }

  const std::uint64_t n = notes_.fetch_add(1, relaxed) + 1;
  if (options_.decay_interval > 0) {
    std::uint64_t due = decay_at_.load(relaxed);
    // One caller crosses the threshold, wins the CAS, and sweeps; the
    // rest see the re-armed threshold and move on.
    if (n >= due &&
        decay_at_.compare_exchange_strong(due, n + options_.decay_interval,
                                          relaxed))
      decay();
  }
  return est;
}

std::uint32_t StripeCache::estimate(std::uint64_t instance) const noexcept {
  std::uint32_t est = UINT32_MAX;
  for (std::uint32_t row = 0; row < kSketchRows; ++row)
    est = std::min(est, sketch_[sketch_slot(row, instance)].load(relaxed));
  return est;
}

void StripeCache::decay() noexcept {
  for (auto& counter : sketch_) {
    std::uint32_t current = counter.load(relaxed);
    // CAS so a decay never erases increments that landed after the
    // load; losing the race just retries on the fresher value.
    while (!counter.compare_exchange_weak(current, current / 2, relaxed))
      ;
  }
  decays_.fetch_add(1, relaxed);
}

// --------------------------------------------------------- read cache

bool StripeCache::lookup(std::uint64_t logical, std::span<std::uint8_t> out) {
  CacheShard& shard = shards_[mix64(logical) & shard_mask_];
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(logical);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, relaxed);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  std::memcpy(out.data(), it->second->second.data(),
              std::min(out.size(), it->second->second.size()));
  hits_.fetch_add(1, relaxed);
  return true;
}

void StripeCache::fill(std::uint64_t logical,
                       std::span<const std::uint8_t> bytes) {
  if (bytes.size() > shard_budget_) return;  // budget can't ever hold it
  CacheShard& shard = shards_[mix64(logical) & shard_mask_];
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.index.find(logical); it != shard.index.end()) {
    it->second->second.assign(bytes.begin(), bytes.end());
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  while (shard.bytes + bytes.size() > shard_budget_ && !shard.lru.empty()) {
    shard.bytes -= shard.lru.back().second.size();
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, relaxed);
  }
  shard.lru.emplace_front(logical,
                          std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  shard.index.emplace(logical, shard.lru.begin());
  shard.bytes += bytes.size();
  fills_.fetch_add(1, relaxed);
}

void StripeCache::invalidate(std::uint64_t logical) {
  CacheShard& shard = shards_[mix64(logical) & shard_mask_];
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(logical);
  if (it == shard.index.end()) return;
  shard.bytes -= it->second->second.size();
  shard.lru.erase(it->second);
  shard.index.erase(it);
  invalidations_.fetch_add(1, relaxed);
}

// --------------------------------------------- dirty-delta table

StripeCache::DirtyUnit* StripeCache::DirtyEntry::find(
    std::uint64_t logical) noexcept {
  for (DirtyUnit& unit : units)
    if (unit.logical == logical) return &unit;
  return nullptr;
}

void StripeCache::DirtyEntry::pin(std::uint64_t logical, api::Physical home,
                                  std::uint32_t data_index,
                                  std::span<const std::uint8_t> bytes) {
  if (DirtyUnit* unit = find(logical)) {
    unit->bytes.assign(bytes.begin(), bytes.end());
    return;
  }
  units.push_back({logical, home, data_index,
                   std::vector<std::uint8_t>(bytes.begin(), bytes.end())});
}

StripeCache::DirtyEntry* StripeCache::dirty_find(std::uint64_t instance) {
  std::lock_guard lock(dirty_mutex_);
  const auto it = dirty_.find(instance);
  return it == dirty_.end() ? nullptr : it->second.get();
}

StripeCache::DirtyEntry* StripeCache::dirty_ensure(std::uint64_t instance,
                                                   std::uint32_t num_parity,
                                                   bool* created) {
  if (created) *created = false;
  std::lock_guard lock(dirty_mutex_);
  if (const auto it = dirty_.find(instance); it != dirty_.end())
    return it->second.get();
  if (dirty_.size() >= options_.max_dirty_instances) return nullptr;
  auto entry = std::make_unique<DirtyEntry>();
  entry->num_parity = num_parity;
  for (std::uint32_t j = 0; j < num_parity; ++j)
    entry->delta[j].assign(unit_bytes_, 0);
  DirtyEntry* raw = entry.get();
  dirty_.emplace(instance, std::move(entry));
  dirty_count_.store(dirty_.size(), std::memory_order_release);
  if (created) *created = true;
  return raw;
}

void StripeCache::dirty_erase(std::uint64_t instance) {
  std::lock_guard lock(dirty_mutex_);
  dirty_.erase(instance);
  dirty_count_.store(dirty_.size(), std::memory_order_release);
}

std::vector<std::uint64_t> StripeCache::dirty_instances() const {
  std::lock_guard lock(dirty_mutex_);
  std::vector<std::uint64_t> keys;
  keys.reserve(dirty_.size());
  for (const auto& [instance, entry] : dirty_) keys.push_back(instance);
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool StripeCache::flush_due() noexcept {
  if (options_.flush_interval_us == 0) return false;
  const std::int64_t interval_ns =
      static_cast<std::int64_t>(options_.flush_interval_us) * 1000;
  std::int64_t last = last_flush_ns_.load(relaxed);
  const std::int64_t now = now_ns();
  return now - last >= interval_ns &&
         last_flush_ns_.compare_exchange_strong(last, now, relaxed);
}

// --------------------------------------------------------------- stats

HotnessStats StripeCache::stats() const noexcept {
  HotnessStats s;
  s.tracked = notes_.load(relaxed);
  s.decays = decays_.load(relaxed);
  s.hits = hits_.load(relaxed);
  s.misses = misses_.load(relaxed);
  s.fills = fills_.load(relaxed);
  s.invalidations = invalidations_.load(relaxed);
  s.evictions = evictions_.load(relaxed);
  s.absorbed_writes = absorbed_.load(relaxed);
  s.folds = folds_.load(relaxed);
  s.folded_units = folded_units_.load(relaxed);
  s.dirty_instances = dirty_count_.load(std::memory_order_acquire);
  return s;
}

}  // namespace pdl::io
