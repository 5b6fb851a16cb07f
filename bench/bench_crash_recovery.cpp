// Kill-9-during-RMW crash recovery: the two-process harness behind the
// FileBackend parity journal's acceptance claim.  A child process
// (--workload) builds a file-backed, integrity-enabled store and hammers
// it with single-unit writes -- each one a read-modify-write whose
// 1 data + m parity (+ checksum) in-place writes ride one write-ahead
// journal record -- until the driver script SIGKILLs it at an arbitrary
// instant.  A second invocation (--recover) reopens the same directory:
// FileBackend::open replays complete journal records and discards torn
// ones, StripeStore::create re-adopts the checksum region, and the
// parity re-encode audit (verify_stripes) plus a full scrub sweep must
// find ZERO inconsistent stripe instances -- no half-applied RMW may
// survive a crash.
//
//   $ ./bench_crash_recovery --workload --dir DIR [--seed N] [--cache]
//   $ ./bench_crash_recovery --recover  --dir DIR [--seed N] [--cache]
//
// --cache runs the workload leg through the StripeCache's parity-delta
// batching path with deliberately aggressive fold knobs (tiny dirty
// budget, zero flush interval, writes skewed onto a hot span), so the
// SIGKILL routinely lands inside a multi-unit fold batch rather than a
// single RMW.  Folds ride the same journaled batch protocol, so the
// recovery leg is unchanged: replay must still leave zero inconsistent
// instances.
//
// --recover emits one crash_recovery JSON record; its
// "recovered_consistent" field is what scripts/crash-recovery-smoke.sh
// (and CI) greps for.  Exit status mirrors the field.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/array.hpp"
#include "bench_util.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"

namespace {

using namespace pdl;

constexpr std::uint32_t kV = 17;
constexpr std::uint32_t kK = 5;
constexpr std::uint32_t kUnitBytes = 512;
constexpr std::uint32_t kIterations = 2;

/// The store shape both modes agree on: Reed-Solomon P+Q (the widest
/// shipped RMW -- three in-place writes per update, the largest torn
/// window) with per-unit checksums on.
Result<io::StripeStore> open_store(const std::string& dir,
                                   io::FileBackend** backend_out,
                                   bool cache) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // backend would, but the
  const std::string array_path = dir + "/array.pdl";  // array saves first
  auto loaded = api::Array::load(array_path);
  Result<api::Array> array =
      loaded.ok() ? std::move(loaded)
                  : api::Array::create({kV, kK}, {},
                                       {.codec = core::CodecKind::kReedSolomonPQ,
                                        .integrity = true});
  if (!array.ok()) return array.status();
  if (!loaded.ok())
    if (Status saved = array->save(array_path); !saved.ok()) return saved;

  auto backend = std::make_unique<io::FileBackend>(
      io::FileBackendOptions{.directory = dir});
  if (backend_out) *backend_out = backend.get();
  io::StripeStoreOptions options{.unit_bytes = kUnitBytes,
                                 .iterations = kIterations};
  if (cache) {
    // Everything is hot immediately and the dirty budget is tiny, so
    // nearly every write absorbs into a delta and folds land every few
    // ops -- the SIGKILL has a fold batch in flight most of the time.
    options.cache.enabled = true;
    options.cache.hot_threshold = 1;
    options.cache.max_dirty_instances = 8;
    options.cache.max_dirty_units = 2;
    options.cache.flush_interval_us = 0;
  }
  return io::StripeStore::create(std::move(array).value(), options,
                                 std::move(backend));
}

int run_workload(const std::string& dir, std::uint64_t seed, bool cache) {
  auto store = open_store(dir, nullptr, cache);
  if (!store.ok()) {
    std::fprintf(stderr, "workload store creation failed: %s\n",
                 store.status().to_string().c_str());
    return 1;
  }
  if (Status filled =
          io::fill_canonical(*store, 0, store->num_logical_units(), seed);
      !filled.ok()) {
    std::fprintf(stderr, "fill failed: %s\n", filled.to_string().c_str());
    return 1;
  }
  // The driver script waits for this marker before pulling the plug, so
  // the SIGKILL always lands inside the RMW loop below, not the fill.
  std::printf("workload ready\n");
  std::fflush(stdout);

  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> unit(kUnitBytes);
  // With the cache on, 3 of 4 writes land in a small hot span so the
  // same stripe instances keep re-absorbing and folding.
  const std::uint64_t total = store->num_logical_units();
  const std::uint64_t hot_span = std::max<std::uint64_t>(total / 16, 1);
  for (std::uint64_t op = 0;; ++op) {
    std::uint64_t logical = rng() % total;
    if (cache && (rng() & 3u) != 0) logical %= hot_span;
    io::canonical_fill(logical, seed ^ (op * 0x9E3779B97F4A7C15ull), unit);
    if (Status written = store->write(logical, unit); !written.ok()) {
      std::fprintf(stderr, "write failed at op %llu: %s\n",
                   static_cast<unsigned long long>(op),
                   written.to_string().c_str());
      return 1;
    }
  }
}

int run_recover(const std::string& dir, std::uint64_t /*seed*/, bool cache) {
  io::FileBackend* backend = nullptr;
  // Recovery always reopens with the cache OFF: the gate must judge the
  // replayed media alone, with no write-path batching in front of it.
  auto store = open_store(dir, &backend, /*cache=*/false);
  if (!store.ok()) {
    std::fprintf(stderr, "recovery reopen failed: %s\n",
                 store.status().to_string().c_str());
    return 1;
  }
  // open() already replayed/discarded whatever the crash left behind.
  const io::FileJournalStats journal = backend->journal_stats();

  // The acceptance gate: every stripe instance's parity must re-encode
  // byte-identically from its data, before any healing runs.
  const auto inconsistent = store->verify_stripes();
  // Then a full scrub pass (verifies every checksum, adopts/heals), and
  // a second audit to prove the store is stable, not just patched.
  const auto sweep = store->scrub();
  const auto after_scrub = store->verify_stripes();

  const bool consistent = inconsistent.ok() && inconsistent.value() == 0 &&
                          sweep.ok() && sweep.value().unhealable == 0 &&
                          after_scrub.ok() && after_scrub.value() == 0;
  const io::IntegrityStats stats = store->integrity_stats();

  std::printf("crash recovery: replayed %llu discarded %llu | inconsistent "
              "%llu -> %llu | scrub mismatches %llu unhealable %llu | %s\n",
              static_cast<unsigned long long>(journal.replayed),
              static_cast<unsigned long long>(journal.discarded),
              static_cast<unsigned long long>(
                  inconsistent.ok() ? inconsistent.value() : ~0ull),
              static_cast<unsigned long long>(
                  after_scrub.ok() ? after_scrub.value() : ~0ull),
              static_cast<unsigned long long>(
                  sweep.ok() ? sweep.value().mismatches : ~0ull),
              static_cast<unsigned long long>(
                  sweep.ok() ? sweep.value().unhealable : ~0ull),
              bench::okbad(consistent));

  bench::json_result("crash_recovery", 2)  // v2: added "cache"
      .field("journal_replayed", journal.replayed)
      .field("journal_discarded", journal.discarded)
      .field("inconsistent_instances",
             std::uint64_t{inconsistent.ok() ? inconsistent.value() : ~0ull})
      .field("inconsistent_after_scrub",
             std::uint64_t{after_scrub.ok() ? after_scrub.value() : ~0ull})
      .field("scrub_mismatches",
             std::uint64_t{sweep.ok() ? sweep.value().mismatches : ~0ull})
      .field("scrub_unhealable",
             std::uint64_t{sweep.ok() ? sweep.value().unhealable : ~0ull})
      .field("crc_verified", stats.verified)
      .field("crc_healed", stats.healed)
      .field("cache", cache)
      .field("recovered_consistent", consistent)
      .emit();
  return consistent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool workload = false;
  bool recover = false;
  bool cache = false;
  std::string dir;
  std::uint64_t seed = 42;
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--workload") == 0) {
      workload = true;
    } else if (std::strcmp(argv[arg], "--recover") == 0) {
      recover = true;
    } else if (std::strcmp(argv[arg], "--cache") == 0) {
      cache = true;
    } else if (std::strcmp(argv[arg], "--dir") == 0 && arg + 1 < argc) {
      dir = argv[++arg];
    } else if (std::strcmp(argv[arg], "--seed") == 0 && arg + 1 < argc) {
      seed = std::strtoull(argv[++arg], nullptr, 10);
    } else {
      std::fprintf(
          stderr,
          "usage: %s (--workload|--recover) --dir DIR [--seed N] [--cache]\n",
          argv[0]);
      return 1;
    }
  }
  if (workload == recover || dir.empty()) {
    std::fprintf(
        stderr,
        "usage: %s (--workload|--recover) --dir DIR [--seed N] [--cache]\n",
        argv[0]);
    return 1;
  }
  return workload ? run_workload(dir, seed, cache)
                  : run_recover(dir, seed, cache);
}
