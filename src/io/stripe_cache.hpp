#pragma once
/// @file
/// pdl::io::StripeCache -- workload-aware hot-stripe caching state.
///
/// The paper's declustered layouts spread REBUILD load evenly, but real
/// traffic is skewed: a zipfian write stream pays a full read-modify-write
/// (data read + parity read + data write + parity write, journaled) per
/// op on the same few hot stripes.  StripeCache is the state that lets
/// io::StripeStore stop paying that tax on the hot set.  It bundles three
/// structures, all sized at construction and allocation-stable after:
///
///   1. A count-min hotness sketch fed by every foreground read and
///      write (`note`), with periodic CAS-gated halving decay so the hot
///      set tracks the CURRENT workload, not history.  `estimate` is a
///      classic count-min upper bound: never an undercount, overcounts
///      only on (bounded-probability) row collisions.  Its width comes
///      from the store's stripe-instance count, capped at the decay
///      interval, so a counter carries about one instance's notes and
///      "hot" is a rate (see hot_threshold), not a crowded counter:
///      uniform traffic reads cold and only a skewed head reads hot.
///   2. A sharded, bounded, LRU read cache of unit payloads keyed by
///      logical address (`lookup` / `fill` / `invalidate`).  The store
///      fills it only for hot units, invalidates on every write, and
///      bypasses it entirely for scrub/rebuild traffic, so the cache can
///      never mask media rot from the integrity layer.
///   3. A dirty-delta table for parity-delta batching: RMW writes to a
///      hot stripe instance pin their new data bytes here and accumulate
///      the codec delta (sum of c_j * (old ^ new)) per surviving parity,
///      deferring ALL media traffic until the instance is folded -- one
///      journaled batch writing every dirty data unit plus each parity's
///      old bytes XOR its accumulated delta.  Linearity over GF(2^8)
///      (and trivially over GF(2)) makes the folded parity byte-identical
///      to what per-op RMW would have produced.
///
/// Concurrency contract (the store's lock discipline, restated here
/// because this class is where the shared state lives): the sketch is
/// lock-free (relaxed atomics -- it is statistics, approximate by
/// design); each read-cache shard has its own mutex; the dirty-table MAP
/// is guarded by its own mutex, but an ENTRY's contents are only touched
/// while the store holds that instance's stripe-shard lock exclusively
/// (entries are heap-allocated, so map rehash never moves them).  A
/// reader probing pinned bytes holds the instance's shard lock shared;
/// the folder that would free those bytes holds it exclusively -- same
/// exclusion that already orders readers against RMW.
///
/// StripeCache knows nothing about disks, codecs, or journals; the store
/// drives it.  See stripe_store.cpp for the absorb/fold state machine
/// and docs/ARCHITECTURE.md "Caching and write batching".

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "api/array.hpp"

namespace pdl::io {

/// Construction knobs for the cache layer (StripeStoreOptions::cache).
struct StripeCacheOptions {
  /// Master switch: when false the store never constructs a StripeCache
  /// and every path behaves exactly as before (zero overhead).
  bool enabled = false;
  /// Total read-cache payload budget, split evenly across shards.
  std::uint64_t read_cache_bytes = 4ull << 20;
  /// Read-cache shard count (rounded up to a power of two).
  std::uint32_t cache_shards = 16;
  /// Count-min estimate at which a stripe instance counts as hot --
  /// hot instances get read-cache fills and write absorption.  Halving
  /// every decay_interval notes holds a steady stream near twice its
  /// per-interval count, so the default 8 marks an instance drawing
  /// roughly 4-8 or more of every 16,384 notes.  Uniform traffic over
  /// the store's instances stays below it (see StripeCache).
  std::uint32_t hot_threshold = 8;
  /// Sketch notes between halving decays (0 disables decay).  Also caps
  /// the sketch width, rounded up to a power of two.
  std::uint64_t decay_interval = 1 << 14;
  /// Dirty-delta table capacity in stripe instances; an absorb that
  /// would exceed it falls back to immediate RMW.
  std::uint32_t max_dirty_instances = 64;
  /// Dirty data units per instance at which the store folds inline
  /// (the size trigger; also bounds the fold's journal record).
  std::uint32_t max_dirty_units = 8;
  /// Microseconds between write-path flush sweeps of the whole dirty
  /// table (the time trigger; 0 disables it -- folds then happen only
  /// on size triggers and explicit flush points).
  std::uint64_t flush_interval_us = 20000;
};

/// Monotonic counters of the cache layer (all zero when disabled).
struct HotnessStats {
  std::uint64_t tracked = 0;        ///< sketch notes (reads + writes)
  std::uint64_t decays = 0;         ///< halving decay sweeps applied
  std::uint64_t hits = 0;           ///< read-cache hits
  std::uint64_t misses = 0;         ///< read-cache misses
  std::uint64_t fills = 0;          ///< read-cache insertions
  std::uint64_t invalidations = 0;  ///< entries dropped by writes
  std::uint64_t evictions = 0;      ///< entries dropped by LRU pressure
  std::uint64_t absorbed_writes = 0;  ///< RMWs absorbed into the table
  std::uint64_t folds = 0;            ///< dirty instances folded to media
  std::uint64_t folded_units = 0;     ///< data units written by folds
  std::uint64_t dirty_instances = 0;  ///< instances dirty RIGHT NOW

  /// Fraction of read-cache probes served from memory.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t probes = hits + misses;
    return probes > 0 ? static_cast<double>(hits) /
                            static_cast<double>(probes)
                      : 0.0;
  }
};

/// The cache state bundle.  Thread-safety per structure as described in
/// the file comment; geometry (unit_bytes, sketch width) is fixed at
/// construction.
class StripeCache {
 public:
  /// `num_instances` is the store's stripe-instance count (stripes x
  /// iterations).  The sketch gets that many columns per row, rounded
  /// up to a power of two and capped at decay_interval rounded up
  /// (2^20 with decay off, and never more), but at least 16.
  /// Past the cap uniform traffic already leaves under one note per
  /// counter per decay, and a wider row would only lengthen each
  /// halving sweep.
  StripeCache(const StripeCacheOptions& options, std::uint32_t unit_bytes,
              std::uint64_t num_instances);

  [[nodiscard]] const StripeCacheOptions& options() const noexcept {
    return options_;
  }

  /// Counter columns per sketch row, as derived at construction.
  [[nodiscard]] std::uint32_t sketch_width() const noexcept {
    return sketch_mask_ + 1;
  }

  // ----------------------------------------------------------- hotness

  /// Counts one access to the instance and returns its new count-min
  /// estimate.  Lock-free; triggers a halving decay sweep every
  /// decay_interval notes (one caller wins the CAS and pays the sweep).
  std::uint32_t note(std::uint64_t instance) noexcept;

  /// Current count-min estimate (min over rows) without counting.
  [[nodiscard]] std::uint32_t estimate(std::uint64_t instance) const noexcept;

  /// Whether the instance's estimate has reached hot_threshold.
  [[nodiscard]] bool hot(std::uint64_t instance) const noexcept {
    return estimate(instance) >= options_.hot_threshold;
  }

  // -------------------------------------------------------- read cache

  /// Copies the cached payload for `logical` into `out` and returns
  /// true, or counts a miss and returns false.  A hit refreshes LRU.
  [[nodiscard]] bool lookup(std::uint64_t logical,
                            std::span<std::uint8_t> out);

  /// Inserts (or refreshes) the payload for `logical`, evicting LRU
  /// entries from its shard as needed to stay within budget.
  void fill(std::uint64_t logical, std::span<const std::uint8_t> bytes);

  /// Drops `logical`'s entry if present (every write path calls this --
  /// the cache's only coherence rule).
  void invalidate(std::uint64_t logical);

  // -------------------------------------------- dirty-delta table

  /// One absorbed (not yet on media) data-unit write.
  struct DirtyUnit {
    std::uint64_t logical = 0;   ///< logical address (read-your-writes key)
    api::Physical home;          ///< where the fold will store it
    std::uint32_t data_index = 0;  ///< codec data index within the stripe
    std::vector<std::uint8_t> bytes;  ///< pinned NEW payload
  };

  /// Per-instance accumulation state.  Contents are only touched while
  /// the owner holds the instance's stripe-shard lock exclusively (or
  /// shared, for read-only probes racing no folder -- see file comment).
  struct DirtyEntry {
    std::uint32_t num_parity = 0;  ///< surviving parities at first absorb
    std::array<api::Physical, api::kMaxParityUnits> parity_home;
    std::array<std::uint32_t, api::kMaxParityUnits> parity_index;
    /// delta[j] = sum over absorbed writes of c_j * (old ^ new); the
    /// fold stores parity_old ^ delta[j].  Zeroed at entry creation.
    std::array<std::vector<std::uint8_t>, api::kMaxParityUnits> delta;
    std::vector<DirtyUnit> units;  ///< absorbed writes, oldest first

    /// The absorbed write for `logical`, or nullptr.
    [[nodiscard]] DirtyUnit* find(std::uint64_t logical) noexcept;
    /// Pins `bytes` as `logical`'s current value: overwrites its
    /// absorbed write, or appends a new one.
    void pin(std::uint64_t logical, api::Physical home,
             std::uint32_t data_index, std::span<const std::uint8_t> bytes);
  };

  /// The instance's entry, or nullptr when it is clean.  Entries are
  /// pointer-stable until dirty_erase.
  [[nodiscard]] DirtyEntry* dirty_find(std::uint64_t instance);

  /// The instance's entry, creating a zero-delta one (num_parity
  /// parities, unit_bytes-wide deltas) if absent -- unless the table is
  /// at max_dirty_instances, then nullptr (caller falls back to
  /// immediate RMW).  `created` reports whether this call created it.
  [[nodiscard]] DirtyEntry* dirty_ensure(std::uint64_t instance,
                                         std::uint32_t num_parity,
                                         bool* created);

  /// Frees the instance's entry (after a successful fold, or when a
  /// fold-superseding path re-encoded the stripe wholesale).
  void dirty_erase(std::uint64_t instance);

  /// Whether ANY instance is dirty (cheap gate for flush points).
  [[nodiscard]] bool any_dirty() const noexcept {
    return dirty_count_.load(std::memory_order_acquire) > 0;
  }

  /// Snapshot of the dirty instance keys (for a flush sweep; entries
  /// may be folded by others between snapshot and visit).
  [[nodiscard]] std::vector<std::uint64_t> dirty_instances() const;

  /// Nanosecond-free time trigger: returns true (and re-arms) when at
  /// least flush_interval_us elapsed since the last true return.
  [[nodiscard]] bool flush_due() noexcept;

  // ------------------------------------------------------------- stats

  [[nodiscard]] HotnessStats stats() const noexcept;

  // Counter hooks for the store (relaxed -- statistics only).
  void count_hit() noexcept { hits_.fetch_add(1, relaxed); }
  void count_absorb() noexcept { absorbed_.fetch_add(1, relaxed); }
  void count_fold(std::uint64_t units) noexcept {
    folds_.fetch_add(1, relaxed);
    folded_units_.fetch_add(units, relaxed);
  }

 private:
  static constexpr auto relaxed = std::memory_order_relaxed;
  static constexpr std::uint32_t kSketchRows = 4;
  /// Ceiling on the sketch width: 16 MiB of counters over the 4 rows.
  static constexpr std::uint32_t kMaxSketchWidth = 1u << 20;

  /// Column of `instance` in sketch row `row`.
  [[nodiscard]] std::size_t sketch_slot(std::uint32_t row,
                                        std::uint64_t instance) const noexcept;
  void decay() noexcept;

  struct CacheShard {
    std::mutex mutex;
    /// LRU list, most recent first; payloads live in the nodes.
    std::list<std::pair<std::uint64_t, std::vector<std::uint8_t>>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
    std::uint64_t bytes = 0;  ///< payload bytes currently held
  };

  StripeCacheOptions options_;
  std::uint32_t unit_bytes_ = 0;
  std::uint32_t sketch_mask_ = 0;   ///< width - 1 (power of two)
  std::uint32_t shard_mask_ = 0;    ///< cache_shards - 1 (power of two)
  std::uint64_t shard_budget_ = 0;  ///< read_cache_bytes / cache_shards

  /// kSketchRows x width relaxed counters, row-major.
  std::vector<std::atomic<std::uint32_t>> sketch_;
  std::vector<CacheShard> shards_;

  /// Dirty-table map guard (entry CONTENTS are shard-lock territory).
  mutable std::mutex dirty_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<DirtyEntry>> dirty_;
  std::atomic<std::uint64_t> dirty_count_{0};

  std::atomic<std::uint64_t> notes_{0};
  std::atomic<std::uint64_t> decay_at_{0};  ///< note count of next decay
  std::atomic<std::int64_t> last_flush_ns_{0};

  std::atomic<std::uint64_t> decays_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> fills_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> absorbed_{0};
  std::atomic<std::uint64_t> folds_{0};
  std::atomic<std::uint64_t> folded_units_{0};
};

}  // namespace pdl::io
