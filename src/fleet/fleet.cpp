#include "fleet/fleet.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>

namespace pdl::fleet {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h,
                                  std::span<const std::uint8_t> bytes)
    noexcept {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Byte-accurate reader over serialize() text: line-oriented headers
/// with length-framed array payloads in between (getline would eat the
/// framing).
struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  [[nodiscard]] bool line(std::string& out) {
    if (pos >= text.size()) return false;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      out = text.substr(pos);
      pos = text.size();
    } else {
      out = text.substr(pos, nl - pos);
      pos = nl + 1;
    }
    return true;
  }

  [[nodiscard]] bool bytes(std::size_t n, std::string& out) {
    if (pos + n > text.size()) return false;
    out = text.substr(pos, n);
    pos += n;
    if (pos < text.size() && text[pos] == '\n') ++pos;  // frame separator
    return true;
  }
};

}  // namespace

Result<Fleet> Fleet::create(std::vector<ShardSpec> shards,
                            FleetOptions options) {
  if (shards.empty())
    return Status::invalid_argument("a fleet needs at least one shard");
  if (options.block_bytes == 0)
    return Status::invalid_argument("block_bytes must be > 0");
  if (options.migration_chunk_blocks == 0)
    return Status::invalid_argument("migration_chunk_blocks must be > 0");
  auto governor = RebuildGovernor::create(options.governor);
  if (!governor.ok()) return governor.status();

  Fleet fleet;
  fleet.block_bytes_ = options.block_bytes;
  fleet.chunk_blocks_ = options.migration_chunk_blocks;
  fleet.governor_ =
      std::make_unique<RebuildGovernor>(std::move(governor).value());
  fleet.sync_ = std::make_unique<Sync>();

  std::uint64_t next_block = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardSpec& spec = shards[i];
    auto store = io::StripeStore::create(
        std::move(spec.array),
        io::StripeStoreOptions{.unit_bytes = options.block_bytes,
                               .iterations = spec.iterations},
        std::move(spec.backend));
    if (!store.ok()) return store.status();
    const std::uint64_t capacity = store.value().num_logical_units();
    if (capacity == 0)
      return Status::invalid_argument("shard " + std::to_string(i) +
                                      " has zero capacity");
    fleet.stores_.push_back(
        std::make_unique<io::StripeStore>(std::move(store).value()));
    fleet.shard_alloc_.push_back(capacity);
    fleet.extents_.push_back(Extent{.first = next_block,
                                    .count = capacity,
                                    .shard = static_cast<std::uint32_t>(i),
                                    .base = 0});
    next_block += capacity;
  }
  fleet.num_blocks_ = next_block;
  fleet.compile_router();
  return fleet;
}

void Fleet::compile_router() {
  // Size the bucket table so block >> shift_ lands in <= 4096 entries;
  // each bucket names the extent containing its first block and lookup
  // walks forward across at most the extents sharing the bucket.
  shift_ = 0;
  while (((num_blocks_ - 1) >> shift_) >= 4096) ++shift_;
  const std::uint64_t buckets = ((num_blocks_ - 1) >> shift_) + 1;
  bucket_.assign(static_cast<std::size_t>(buckets), 0);
  std::uint32_t e = 0;
  for (std::uint64_t i = 0; i < buckets; ++i) {
    const std::uint64_t block = i << shift_;
    while (extents_[e].first + extents_[e].count <= block) ++e;
    bucket_[static_cast<std::size_t>(i)] = e;
  }
}

Route Fleet::route_locked(std::uint64_t block) const noexcept {
  std::uint32_t e = bucket_[static_cast<std::size_t>(block >> shift_)];
  while (block >= extents_[e].first + extents_[e].count) ++e;
  const Extent& ext = extents_[e];
  return Route{.shard = ext.shard, .unit = ext.base + (block - ext.first)};
}

Result<Route> Fleet::route_of(std::uint64_t block) const {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  if (block >= num_blocks_)
    return Status::out_of_range("block " + std::to_string(block) +
                                " >= " + std::to_string(num_blocks_));
  return route_locked(block);
}

std::vector<Extent> Fleet::extents() const {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  return extents_;
}

bool Fleet::async() const {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  for (const auto& store : stores_)
    if (store->backend().async()) return true;
  return false;
}

Status Fleet::read(std::uint64_t block, std::span<std::uint8_t> out,
                   io::ReadReceipt* receipt) {
  if (out.size() != block_bytes_)
    return Status::invalid_argument("read buffer must be block_bytes wide");
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  if (block >= num_blocks_)
    return Status::out_of_range("block " + std::to_string(block) +
                                " >= " + std::to_string(num_blocks_));
  governor_->note_foreground(block_bytes_);
  const Route r = route_locked(block);
  return stores_[r.shard]->read(r.unit, out, receipt);
}

Status Fleet::read_batch(std::span<const std::uint64_t> blocks,
                         std::span<std::uint8_t> out,
                         std::span<Status> statuses,
                         std::span<io::ReadReceipt> receipts) {
  if (out.size() != blocks.size() * static_cast<std::size_t>(block_bytes_))
    return Status::invalid_argument(
        "read_batch buffer must be blocks.size() x block_bytes wide");
  if (statuses.size() != blocks.size())
    return Status::invalid_argument("statuses must match blocks.size()");
  if (!receipts.empty() && receipts.size() != blocks.size())
    return Status::invalid_argument(
        "receipts must be empty or match blocks.size()");
  if (blocks.empty()) return OkStatus();

  std::shared_lock<std::shared_mutex> lock(sync_->map);
  governor_->note_foreground(blocks.size() *
                             static_cast<std::uint64_t>(block_bytes_));

  // Group the batch per shard so each shard store sees ONE batched
  // submission (async backends get their full fan-out at once), then
  // scatter the staged slices back into the caller's order.
  struct ShardBatch {
    std::vector<std::uint64_t> units;
    std::vector<std::size_t> origin;  ///< caller index of each unit
  };
  std::vector<ShardBatch> per_shard(stores_.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i] >= num_blocks_) {
      statuses[i] = Status::out_of_range(
          "block " + std::to_string(blocks[i]) + " >= " +
          std::to_string(num_blocks_));
      continue;
    }
    const Route r = route_locked(blocks[i]);
    per_shard[r.shard].units.push_back(r.unit);
    per_shard[r.shard].origin.push_back(i);
  }

  std::vector<std::uint8_t> staging;
  std::vector<Status> shard_statuses;
  std::vector<io::ReadReceipt> shard_receipts;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    ShardBatch& batch = per_shard[s];
    if (batch.units.empty()) continue;
    staging.resize(batch.units.size() * block_bytes_);
    shard_statuses.assign(batch.units.size(), OkStatus());
    std::span<io::ReadReceipt> receipt_span = {};
    if (!receipts.empty()) {
      shard_receipts.assign(batch.units.size(), io::ReadReceipt{});
      receipt_span = shard_receipts;
    }
    // The overall status is recomputed from per-block statuses below.
    (void)stores_[s]->read_batch(batch.units, staging, shard_statuses,
                                 receipt_span);
    for (std::size_t j = 0; j < batch.units.size(); ++j) {
      const std::size_t i = batch.origin[j];
      statuses[i] = shard_statuses[j];
      if (shard_statuses[j].ok())
        std::memcpy(out.data() + i * block_bytes_,
                    staging.data() + j * block_bytes_, block_bytes_);
      if (!receipts.empty()) receipts[i] = shard_receipts[j];
    }
  }

  for (const Status& s : statuses)
    if (!s.ok()) return s;
  return OkStatus();
}

Status Fleet::write(std::uint64_t block, std::span<const std::uint8_t> data,
                    io::WriteReceipt* receipt) {
  if (data.size() != block_bytes_)
    return Status::invalid_argument("write buffer must be block_bytes wide");
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  if (block >= num_blocks_)
    return Status::out_of_range("block " + std::to_string(block) +
                                " >= " + std::to_string(num_blocks_));
  governor_->note_foreground(block_bytes_);
  const Route r = route_locked(block);
  const Status status = stores_[r.shard]->write(r.unit, data, receipt);
  // Writes inside a migrating range land on the authoritative source
  // (routing is untouched until cutover) and invalidate their chunk so
  // the migrator re-copies it.  Marked even on failure: a torn write
  // may still have moved bytes, and a spurious re-copy is harmless.
  if (migration_ && block >= migration_->first &&
      block < migration_->first + migration_->count) {
    Migration& m = *migration_;
    auto& state = m.chunk_state[(block - m.first) / m.chunk_blocks];
    std::uint8_t observed = state.load(std::memory_order_acquire);
    while ((observed == kClean || observed == kCopying) &&
           !state.compare_exchange_weak(observed, kDirty,
                                        std::memory_order_acq_rel)) {
    }
  }
  return status;
}

Status Fleet::sync() {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  for (auto& store : stores_) {
    const Status s = store->sync();
    if (!s.ok()) return s;
  }
  return OkStatus();
}

Status Fleet::fail_disk(std::uint32_t shard, DiskId disk) {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  if (shard >= stores_.size())
    return Status::invalid_argument("no shard " + std::to_string(shard));
  return stores_[shard]->fail_disk(disk);
}

Status Fleet::replace_disk(std::uint32_t shard, DiskId disk) {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  if (shard >= stores_.size())
    return Status::invalid_argument("no shard " + std::to_string(shard));
  return stores_[shard]->replace_disk(disk);
}

Result<std::uint64_t> Fleet::rebuild_some(std::uint32_t shard,
                                          std::uint64_t max_steps,
                                          std::uint64_t* blocked) {
  std::uint64_t estimate = 0;
  {
    std::shared_lock<std::shared_mutex> lock(sync_->map);
    if (shard >= stores_.size())
      return Status::invalid_argument("no shard " + std::to_string(shard));
    // One repaired stripe rewrites ~one unit per layout iteration; the
    // reservation is an upper-bound estimate in rebuilt bytes and the
    // unused remainder is refunded after the pass.
    estimate = max_steps * stores_[shard]->iterations() * block_bytes_;
  }
  // Reserve OUTSIDE the map lock: acquire() may block for a long time
  // under a throttling policy, and the data path must keep flowing.
  governor_->acquire(shard, estimate);

  std::shared_lock<std::shared_mutex> lock(sync_->map);
  if (shard >= stores_.size()) {
    governor_->refund(shard, estimate);
    return Status::invalid_argument("no shard " + std::to_string(shard));
  }
  auto repaired = stores_[shard]->rebuild_some(max_steps, blocked);
  const std::uint64_t used =
      repaired.ok()
          ? repaired.value() * stores_[shard]->iterations() * block_bytes_
          : 0;
  if (used < estimate) governor_->refund(shard, estimate - used);
  return repaired;
}

Result<api::RebuildOutcome> Fleet::rebuild(std::uint32_t shard) {
  // Small governed passes so the governor's pacing decisions are
  // fine-grained (one huge reservation would defeat the policy).
  constexpr std::uint64_t kPassSteps = 16;
  api::RebuildOutcome outcome;
  for (;;) {
    std::uint64_t blocked = 0;
    auto repaired = rebuild_some(shard, kPassSteps, &blocked);
    if (!repaired.ok()) return repaired.status();
    outcome.applied += repaired.value();
    outcome.blocked = blocked;
    if (repaired.value() == 0) return outcome;
  }
}

Result<api::RebuildOutcome> Fleet::rebuild_all() {
  api::RebuildOutcome total;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    auto outcome = rebuild(s);
    if (!outcome.ok()) return outcome.status();
    total.applied += outcome.value().applied;
    total.blocked += outcome.value().blocked;
  }
  return total;
}

Result<io::ScrubReport> Fleet::scrub_some(std::uint32_t shard,
                                          std::uint64_t max_instances,
                                          std::uint64_t* blocked) {
  std::uint64_t estimate = 0;
  {
    std::shared_lock<std::shared_mutex> lock(sync_->map);
    if (shard >= stores_.size())
      return Status::invalid_argument("no shard " + std::to_string(shard));
    if (!stores_[shard]->integrity()) return io::ScrubReport{};
    // A scrub instance reads every unit of one stripe; the reservation
    // is that read footprint (heal writes are the rare case), with the
    // unused remainder refunded after the pass.
    estimate = max_instances * stores_[shard]->array().max_stripe_size() *
               block_bytes_;
  }
  // Reserve OUTSIDE the map lock, like rebuild_some: acquire() may
  // block a long time under a throttling policy.
  const std::uint64_t waited =
      governor_->acquire(shard, estimate, io::IoClass::kScrub);
  if (blocked) *blocked = waited;

  std::shared_lock<std::shared_mutex> lock(sync_->map);
  if (shard >= stores_.size()) {
    governor_->refund(shard, estimate);
    return Status::invalid_argument("no shard " + std::to_string(shard));
  }
  auto report = stores_[shard]->scrub_some(max_instances);
  const std::uint64_t used =
      report.ok() ? report.value().instances *
                        stores_[shard]->array().max_stripe_size() *
                        block_bytes_
                  : 0;
  if (used < estimate) governor_->refund(shard, estimate - used);
  return report;
}

Result<io::ScrubReport> Fleet::scrub_all() {
  // Small governed passes, like rebuild(): one huge reservation would
  // defeat the pacing policy.
  constexpr std::uint64_t kPassInstances = 16;
  io::ScrubReport total;
  for (std::uint32_t s = 0; s < num_shards(); ++s) {
    std::uint64_t remaining = 0;
    {
      std::shared_lock<std::shared_mutex> lock(sync_->map);
      if (stores_[s]->integrity())
        remaining =
            static_cast<std::uint64_t>(stores_[s]->array().num_stripes()) *
            stores_[s]->iterations();
    }
    while (remaining > 0) {
      const std::uint64_t batch = std::min(remaining, kPassInstances);
      auto report = scrub_some(s, batch);
      if (!report.ok()) return report.status();
      total.instances += report.value().instances;
      total.mismatches += report.value().mismatches;
      total.healed += report.value().healed;
      total.unhealable += report.value().unhealable;
      total.skipped += report.value().skipped;
      remaining -= batch;
    }
  }
  return total;
}

bool Fleet::healthy() const {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  for (const auto& store : stores_)
    if (!store->array().healthy()) return false;
  return true;
}

Result<std::uint32_t> Fleet::attach_shard(ShardSpec spec) {
  auto store = io::StripeStore::create(
      std::move(spec.array),
      io::StripeStoreOptions{.unit_bytes = block_bytes_,
                             .iterations = spec.iterations},
      std::move(spec.backend));
  if (!store.ok()) return store.status();
  if (store.value().num_logical_units() == 0)
    return Status::invalid_argument("attached shard has zero capacity");

  std::unique_lock<std::shared_mutex> lock(sync_->map);
  stores_.push_back(
      std::make_unique<io::StripeStore>(std::move(store).value()));
  shard_alloc_.push_back(0);  // no routed blocks yet: pure headroom
  return static_cast<std::uint32_t>(stores_.size() - 1);
}

Status Fleet::start_migration(std::uint64_t first_block,
                              std::uint64_t num_blocks,
                              std::uint32_t target_shard) {
  std::unique_lock<std::shared_mutex> lock(sync_->map);
  if (migration_)
    return Status::failed_precondition("a migration is already active");
  if (target_shard >= stores_.size())
    return Status::invalid_argument("no shard " +
                                    std::to_string(target_shard));
  if (num_blocks == 0)
    return Status::invalid_argument("cannot migrate zero blocks");
  if (first_block + num_blocks > num_blocks_ ||
      first_block + num_blocks < first_block)
    return Status::out_of_range("migration range exceeds the block space");
  const std::uint64_t free =
      stores_[target_shard]->num_logical_units() - shard_alloc_[target_shard];
  if (free < num_blocks)
    return Status::failed_precondition(
        "target shard has " + std::to_string(free) +
        " free blocks, needs " + std::to_string(num_blocks));
  for (const Extent& e : extents_) {
    const bool overlaps = e.first < first_block + num_blocks &&
                          first_block < e.first + e.count;
    if (overlaps && e.shard == target_shard)
      return Status::failed_precondition(
          "migration range already routes to the target shard");
  }

  auto m = std::make_unique<Migration>();
  m->first = first_block;
  m->count = num_blocks;
  m->target = target_shard;
  m->target_base = shard_alloc_[target_shard];
  m->chunk_blocks = std::min<std::uint64_t>(chunk_blocks_, num_blocks);
  m->num_chunks = (num_blocks + m->chunk_blocks - 1) / m->chunk_blocks;
  m->chunk_state = std::make_unique<std::atomic<std::uint8_t>[]>(
      static_cast<std::size_t>(m->num_chunks));
  for (std::uint64_t c = 0; c < m->num_chunks; ++c)
    m->chunk_state[static_cast<std::size_t>(c)].store(
        kPending, std::memory_order_relaxed);
  shard_alloc_[target_shard] += num_blocks;  // reserve the landing zone
  migration_ = std::move(m);
  return OkStatus();
}

Result<std::uint32_t> Fleet::add_shard(ShardSpec spec) {
  auto shard = attach_shard(std::move(spec));
  if (!shard.ok()) return shard.status();

  std::uint64_t move = 0;
  std::uint64_t first = 0;
  {
    std::shared_lock<std::shared_mutex> lock(sync_->map);
    std::unordered_set<std::uint32_t> routed;
    for (const Extent& e : extents_) routed.insert(e.shard);
    const std::uint64_t fair =
        num_blocks_ / (static_cast<std::uint64_t>(routed.size()) + 1);
    move = std::min(stores_[shard.value()]->num_logical_units(), fair);
    first = num_blocks_ - move;
  }
  if (move == 0) return shard;  // attached as pure headroom
  const Status planned = start_migration(first, move, shard.value());
  if (!planned.ok()) return planned;
  return shard;
}

Status Fleet::copy_chunk_locked(Migration& m, std::uint64_t chunk) {
  const std::uint64_t begin = m.first + chunk * m.chunk_blocks;
  const std::uint64_t end =
      std::min(begin + m.chunk_blocks, m.first + m.count);
  std::vector<std::uint8_t> buf(block_bytes_);
  for (std::uint64_t block = begin; block < end; ++block) {
    const Route src = route_locked(block);
    Status s = stores_[src.shard]->read(src.unit, buf);
    if (!s.ok()) return s;
    s = stores_[m.target]->write(m.target_base + (block - m.first), buf);
    if (!s.ok()) return s;
  }
  return OkStatus();
}

Result<std::uint64_t> Fleet::migrate_some(std::uint64_t max_blocks) {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  if (!migration_) return Status::failed_precondition("no active migration");
  Migration& m = *migration_;
  std::uint64_t copied = 0;
  for (std::uint64_t c = 0; c < m.num_chunks && copied < max_blocks; ++c) {
    auto& state = m.chunk_state[static_cast<std::size_t>(c)];
    std::uint8_t observed = state.load(std::memory_order_acquire);
    if (observed != kPending && observed != kDirty) continue;
    // Claim the chunk (several migrator threads may race here).
    if (!state.compare_exchange_strong(observed, kCopying,
                                       std::memory_order_acq_rel))
      continue;
    const bool recopy = observed == kDirty;
    const Status s = copy_chunk_locked(m, c);
    if (!s.ok()) {
      state.store(kPending, std::memory_order_release);  // retry later
      return s;
    }
    const std::uint64_t begin = m.first + c * m.chunk_blocks;
    const std::uint64_t chunk_len =
        std::min(begin + m.chunk_blocks, m.first + m.count) - begin;
    copied += chunk_len;
    if (recopy)
      m.recopied_chunks.fetch_add(1, std::memory_order_relaxed);
    else
      m.copied_blocks.fetch_add(chunk_len, std::memory_order_relaxed);
    // A write that landed mid-copy already knocked the state to kDirty;
    // only a still-kCopying chunk graduates to clean.
    std::uint8_t copying = kCopying;
    state.compare_exchange_strong(copying, kClean,
                                  std::memory_order_acq_rel);
  }
  return copied;
}

Result<std::uint64_t> Fleet::checksum_range_locked(const Migration& m,
                                                   bool use_target) {
  std::vector<std::uint8_t> buf(block_bytes_);
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t block = m.first; block < m.first + m.count; ++block) {
    Status s = OkStatus();
    if (use_target) {
      s = stores_[m.target]->read(m.target_base + (block - m.first), buf);
    } else {
      const Route src = route_locked(block);
      s = stores_[src.shard]->read(src.unit, buf);
    }
    if (!s.ok()) return s;
    h = fnv1a(h, buf);
  }
  return h;
}

void Fleet::splice_extent_locked(std::uint64_t first, std::uint64_t count,
                                 std::uint32_t target,
                                 std::uint64_t target_base) {
  const std::uint64_t end = first + count;
  std::vector<Extent> next;
  next.reserve(extents_.size() + 2);
  for (const Extent& e : extents_) {
    const std::uint64_t e_end = e.first + e.count;
    if (e_end <= first || e.first >= end) {
      next.push_back(e);
      continue;
    }
    if (e.first < first)  // surviving left remainder
      next.push_back(Extent{.first = e.first,
                            .count = first - e.first,
                            .shard = e.shard,
                            .base = e.base});
    if (e_end > end)  // surviving right remainder
      next.push_back(Extent{.first = end,
                            .count = e_end - end,
                            .shard = e.shard,
                            .base = e.base + (end - e.first)});
  }
  next.push_back(Extent{
      .first = first, .count = count, .shard = target, .base = target_base});
  std::sort(next.begin(), next.end(),
            [](const Extent& a, const Extent& b) { return a.first < b.first; });
  // Coalesce neighbours that stayed physically contiguous.
  extents_.clear();
  for (const Extent& e : next) {
    if (!extents_.empty()) {
      Extent& prev = extents_.back();
      if (prev.shard == e.shard && prev.first + prev.count == e.first &&
          prev.base + prev.count == e.base) {
        prev.count += e.count;
        continue;
      }
    }
    extents_.push_back(e);
  }
  compile_router();
}

Result<MigrationReport> Fleet::complete_migration() {
  std::unique_lock<std::shared_mutex> lock(sync_->map);
  if (!migration_) return Status::failed_precondition("no active migration");
  Migration& m = *migration_;

  // Exclusive commit: no foreground write can land now, so one final
  // sweep over pending/dirty chunks makes the target side complete.
  for (std::uint64_t c = 0; c < m.num_chunks; ++c) {
    auto& state = m.chunk_state[static_cast<std::size_t>(c)];
    const std::uint8_t observed = state.load(std::memory_order_acquire);
    if (observed == kClean) continue;
    const Status s = copy_chunk_locked(m, c);
    if (!s.ok()) return s;
    if (observed == kDirty)
      m.recopied_chunks.fetch_add(1, std::memory_order_relaxed);
    state.store(kClean, std::memory_order_release);
  }

  // Cutover verification: a map flip that could serve different bytes
  // is refused outright.
  auto source_sum = checksum_range_locked(m, /*use_target=*/false);
  if (!source_sum.ok()) return source_sum.status();
  auto target_sum = checksum_range_locked(m, /*use_target=*/true);
  if (!target_sum.ok()) return target_sum.status();
  if (source_sum.value() != target_sum.value())
    return Status::data_loss(
        "migration cutover checksum mismatch: source " +
        std::to_string(source_sum.value()) + " vs target " +
        std::to_string(target_sum.value()) +
        " -- the shard map was left unchanged");

  MigrationReport report{.first_block = m.first,
                         .num_blocks = m.count,
                         .target_shard = m.target,
                         .blocks_moved = m.count,
                         .chunks_recopied =
                             m.recopied_chunks.load(std::memory_order_relaxed),
                         .source_checksum = source_sum.value(),
                         .target_checksum = target_sum.value()};
  splice_extent_locked(m.first, m.count, m.target, m.target_base);
  migration_.reset();
  return report;
}

Status Fleet::cancel_migration() {
  std::unique_lock<std::shared_mutex> lock(sync_->map);
  if (!migration_) return Status::failed_precondition("no active migration");
  // The migration was the only allocator since start_migration, so the
  // bump pointer rolls straight back; copied target bytes are orphaned.
  shard_alloc_[migration_->target] = migration_->target_base;
  migration_.reset();
  return OkStatus();
}

Status Fleet::expand(ShardSpec spec) {
  auto shard = add_shard(std::move(spec));
  if (!shard.ok()) return shard.status();
  if (!migration_progress().active) return OkStatus();  // nothing to move
  for (;;) {
    auto copied = migrate_some(1 << 16);
    if (!copied.ok()) return copied.status();
    if (copied.value() == 0) break;
  }
  return complete_migration().status();
}

MigrationProgress Fleet::migration_progress() const {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  MigrationProgress progress;
  if (!migration_) return progress;
  const Migration& m = *migration_;
  progress.active = true;
  progress.first_block = m.first;
  progress.num_blocks = m.count;
  progress.target_shard = m.target;
  progress.copied_blocks = m.copied_blocks.load(std::memory_order_relaxed);
  for (std::uint64_t c = 0; c < m.num_chunks; ++c)
    if (m.chunk_state[static_cast<std::size_t>(c)].load(
            std::memory_order_relaxed) == kDirty)
      ++progress.dirty_chunks;
  return progress;
}

std::string Fleet::serialize() const {
  std::shared_lock<std::shared_mutex> lock(sync_->map);
  std::ostringstream out;
  out << "pdl-fleet v1\n";
  out << "block-bytes " << block_bytes_ << "\n";
  out << "chunk-blocks " << chunk_blocks_ << "\n";
  out << "shards " << stores_.size() << "\n";
  for (std::size_t s = 0; s < stores_.size(); ++s) {
    const std::string array_text = stores_[s]->array().serialize();
    out << "shard " << s << "\n";
    out << "iterations " << stores_[s]->iterations() << "\n";
    out << "alloc " << shard_alloc_[s] << "\n";
    out << "array-bytes " << array_text.size() << "\n";
    out << array_text << "\n";
  }
  out << "extents " << extents_.size() << "\n";
  for (const Extent& e : extents_)
    out << "extent " << e.first << " " << e.count << " " << e.shard << " "
        << e.base << "\n";
  out << "end pdl-fleet\n";
  return out.str();
}

Result<Fleet> Fleet::deserialize(const std::string& text,
                                 const BackendFactory& factory,
                                 const GovernorOptions& governor) {
  Cursor cursor{text};
  std::string line;
  auto expect = [&](const std::string& keyword,
                    std::uint64_t* value) -> Status {
    if (!cursor.line(line))
      return Status::parse_error("fleet text truncated before " + keyword);
    std::istringstream in(line);
    std::string word;
    in >> word;
    if (word != keyword)
      return Status::parse_error("expected '" + keyword + "', got '" + line +
                                 "'");
    if (value && !(in >> *value))
      return Status::parse_error("bad value in '" + line + "'");
    return OkStatus();
  };

  if (!cursor.line(line) || line != "pdl-fleet v1")
    return Status::parse_error("not a pdl-fleet v1 header");
  std::uint64_t block_bytes = 0, chunk_blocks = 0, num_shards = 0;
  if (Status s = expect("block-bytes", &block_bytes); !s.ok()) return s;
  if (Status s = expect("chunk-blocks", &chunk_blocks); !s.ok()) return s;
  if (Status s = expect("shards", &num_shards); !s.ok()) return s;
  if (block_bytes == 0 || chunk_blocks == 0 || num_shards == 0)
    return Status::parse_error("fleet header has zero geometry");

  FleetOptions options;
  options.block_bytes = static_cast<std::uint32_t>(block_bytes);
  options.migration_chunk_blocks = chunk_blocks;
  options.governor = governor;
  auto gov = RebuildGovernor::create(options.governor);
  if (!gov.ok()) return gov.status();

  Fleet fleet;
  fleet.block_bytes_ = options.block_bytes;
  fleet.chunk_blocks_ = options.migration_chunk_blocks;
  fleet.governor_ = std::make_unique<RebuildGovernor>(std::move(gov).value());
  fleet.sync_ = std::make_unique<Sync>();

  for (std::uint64_t s = 0; s < num_shards; ++s) {
    std::uint64_t index = 0, iterations = 0, alloc = 0, array_bytes = 0;
    if (Status st = expect("shard", &index); !st.ok()) return st;
    if (index != s) return Status::parse_error("shard index out of order");
    if (Status st = expect("iterations", &iterations); !st.ok()) return st;
    if (Status st = expect("alloc", &alloc); !st.ok()) return st;
    if (Status st = expect("array-bytes", &array_bytes); !st.ok()) return st;
    std::string array_text;
    if (!cursor.bytes(static_cast<std::size_t>(array_bytes), array_text))
      return Status::parse_error("fleet text truncated inside array header");
    auto array = api::Array::deserialize(array_text);
    if (!array.ok()) return array.status();
    auto store = io::StripeStore::create(
        std::move(array).value(),
        io::StripeStoreOptions{
            .unit_bytes = fleet.block_bytes_,
            .iterations = static_cast<std::uint32_t>(iterations)},
        factory ? factory(static_cast<std::uint32_t>(s)) : nullptr);
    if (!store.ok()) return store.status();
    if (alloc > store.value().num_logical_units())
      return Status::parse_error("shard alloc exceeds shard capacity");
    fleet.stores_.push_back(
        std::make_unique<io::StripeStore>(std::move(store).value()));
    fleet.shard_alloc_.push_back(alloc);
  }

  std::uint64_t num_extents = 0;
  if (Status s = expect("extents", &num_extents); !s.ok()) return s;
  if (num_extents == 0) return Status::parse_error("fleet has no extents");
  std::uint64_t next_block = 0;
  for (std::uint64_t i = 0; i < num_extents; ++i) {
    if (!cursor.line(line))
      return Status::parse_error("fleet text truncated inside extents");
    std::istringstream in(line);
    std::string word;
    Extent e;
    if (!(in >> word >> e.first >> e.count >> e.shard >> e.base) ||
        word != "extent")
      return Status::parse_error("bad extent line '" + line + "'");
    if (e.count == 0)
      return Status::parse_error("extent covers zero blocks");
    if (e.first != next_block)
      return Status::parse_error(
          "extents leave a gap or overlap in the block space (extent " +
          std::to_string(i) + " starts at " + std::to_string(e.first) +
          ", expected " + std::to_string(next_block) + ")");
    if (e.shard >= fleet.stores_.size())
      return Status::parse_error("extent names an unknown shard");
    if (e.base + e.count > fleet.stores_[e.shard]->num_logical_units())
      return Status::parse_error("extent exceeds its shard's capacity");
    if (e.base + e.count > fleet.shard_alloc_[e.shard])
      return Status::parse_error("extent exceeds its shard's allocation");
    // Distinct block ranges must not alias the same shard-local units:
    // an overlapping pair would serve two fleet blocks from one unit
    // (and one write would clobber the other block).
    for (const Extent& prior : fleet.extents_)
      if (prior.shard == e.shard && e.base < prior.base + prior.count &&
          prior.base < e.base + e.count)
        return Status::parse_error(
            "extents overlap on shard " + std::to_string(e.shard) +
            ": units [" + std::to_string(e.base) + ", " +
            std::to_string(e.base + e.count) + ") collide with [" +
            std::to_string(prior.base) + ", " +
            std::to_string(prior.base + prior.count) + ")");
    next_block += e.count;
    fleet.extents_.push_back(e);
  }
  if (Status s = expect("end", nullptr); !s.ok()) return s;
  fleet.num_blocks_ = next_block;
  fleet.compile_router();
  return fleet;
}

Status Fleet::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::io_error("cannot open " + path + " for writing");
  const std::string text = serialize();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) return Status::io_error("short write to " + path);
  return OkStatus();
}

Result<Fleet> Fleet::load(const std::string& path,
                          const BackendFactory& factory,
                          const GovernorOptions& governor) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::io_error("cannot open " + path + " for reading");
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) return Status::io_error("read failure on " + path);
  return deserialize(text.str(), factory, governor);
}

}  // namespace pdl::fleet
