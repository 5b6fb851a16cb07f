// pdl::io::DiskBackend contract tests: range/geometry checks,
// zero-on-open, view and discard semantics, and the huge-page mapping
// (alignment, residency, advice, poisoned gaps) on MemoryBackend;
// persistence (write -> close -> reopen -> byte-identical),
// geometry-mismatch refusal, and degraded-read/rebuild round-trips across
// reopen on FileBackend; a failure cycle over huge-page-sized disks on
// both; determinism, typed-kIoError surfacing through StripeStore, and
// bit-rot accounting on FaultInjectionBackend.

#include "io/disk_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "api/array.hpp"
#include "io/stripe_store.hpp"
#include "io/workload_driver.hpp"
#include "scratch_dir.hpp"

namespace pdl::io {
namespace {

std::vector<std::uint8_t> pattern(std::size_t size, std::uint8_t base) {
  std::vector<std::uint8_t> bytes(size);
  std::iota(bytes.begin(), bytes.end(), base);
  return bytes;
}

// ----------------------------------------------------------------- memory

TEST(MemoryBackend, RoundTripAndViews) {
  MemoryBackend backend;
  ASSERT_TRUE(backend.open({.num_disks = 3, .disk_bytes = 256}).ok());
  EXPECT_EQ(backend.name(), "memory");

  const auto data = pattern(64, 1);
  ASSERT_TRUE(backend.write(1, 100, data).ok());
  std::vector<std::uint8_t> out(64);
  ASSERT_TRUE(backend.read(1, 100, out).ok());
  EXPECT_EQ(out, data);

  // The zero-copy view sees the same bytes and the same edits.
  const auto view = backend.memory_view(1);
  ASSERT_EQ(view.size(), 256u);
  EXPECT_EQ(0, std::memcmp(view.data() + 100, data.data(), data.size()));
  view[100] ^= 0xFF;
  ASSERT_TRUE(backend.read(1, 100, out).ok());
  EXPECT_EQ(out[0], static_cast<std::uint8_t>(data[0] ^ 0xFF));

  ASSERT_TRUE(backend.sync(1).ok());
  ASSERT_TRUE(backend.discard(1, 0xAB).ok());
  ASSERT_TRUE(backend.read(1, 0, out).ok());
  for (const auto b : out) EXPECT_EQ(b, 0xAB);
  // Other disks untouched by the discard.
  ASSERT_TRUE(backend.read(0, 0, out).ok());
  for (const auto b : out) EXPECT_EQ(b, 0);
}

TEST(MemoryBackend, RangeChecksAreTyped) {
  MemoryBackend backend;
  ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 128}).ok());
  std::vector<std::uint8_t> buf(64);

  EXPECT_EQ(backend.read(2, 0, buf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.write(0, 65, buf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.read(0, 128, buf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.sync(9).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(backend.discard(9, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(backend.read(0, 64, buf).ok());  // exactly at the end is fine
  EXPECT_TRUE(backend.memory_view(5).empty());

  // A geometry past the address space is refused before anything is
  // mapped, and the disks already open stay as they were.
  const BackendGeometry too_big{.num_disks = 4,
                                .disk_bytes = std::uint64_t{1} << 62};
  EXPECT_EQ(backend.open(too_big).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(backend.read(0, 64, buf).ok());
}

/// Disk sizes the memory backend lays out differently: under a page, a
/// whole number of pages, a whole number of huge pages, and a size
/// between two huge pages.
constexpr std::uint64_t kDiskSizes[] = {
    1000, 3 * 4096, 2 * MemoryBackend::kHugePageBytes,
    MemoryBackend::kHugePageBytes + 4096 + 24};

/// True when every byte of `disk` (`disk_bytes` long) reads as `value`.
bool reads_all(DiskBackend& backend, DiskId disk, std::uint64_t disk_bytes,
               std::uint8_t value) {
  std::vector<std::uint8_t> bytes(disk_bytes,
                                  static_cast<std::uint8_t>(~value));
  return backend.read(disk, 0, bytes).ok() &&
         std::all_of(bytes.begin(), bytes.end(),
                     [value](std::uint8_t b) { return b == value; });
}

TEST(MemoryBackend, FreshAndReopenedDisksReadZero) {
  // Each size opens a new backend where the previous one was just
  // released, so a recycled mapping must read zero too.
  for (const std::uint64_t disk_bytes : kDiskSizes) {
    const BackendGeometry geometry{.num_disks = 3, .disk_bytes = disk_bytes};
    MemoryBackend backend;
    ASSERT_TRUE(backend.open(geometry).ok());
    for (DiskId disk = 0; disk < 3; ++disk) {
      EXPECT_TRUE(reads_all(backend, disk, disk_bytes, 0))
          << disk_bytes << " bytes, disk " << disk;
      ASSERT_TRUE(
          backend.write(disk, 0, std::vector<std::uint8_t>(disk_bytes, 0x5A))
              .ok());
    }
    // A second open() drops everything written before it.
    ASSERT_TRUE(backend.open(geometry).ok());
    for (DiskId disk = 0; disk < 3; ++disk)
      EXPECT_TRUE(reads_all(backend, disk, disk_bytes, 0))
          << disk_bytes << " bytes, disk " << disk << ", reopened";
  }
}

TEST(MemoryBackend, ViewsAreExactAndDisjoint) {
  const auto first = [](std::span<std::uint8_t> view) {
    return reinterpret_cast<std::uintptr_t>(view.data());
  };
  for (const std::uint64_t disk_bytes : kDiskSizes) {
    MemoryBackend backend;
    ASSERT_TRUE(backend.open({.num_disks = 4, .disk_bytes = disk_bytes}).ok());
    for (DiskId a = 0; a < 4; ++a) {
      const auto view = backend.memory_view(a);
      EXPECT_EQ(view.size(), disk_bytes) << "disk " << a;
      for (DiskId b = a + 1; b < 4; ++b) {
        const auto other = backend.memory_view(b);
        EXPECT_TRUE(first(view) + view.size() <= first(other) ||
                    first(other) + other.size() <= first(view))
            << disk_bytes << " bytes: disks " << a << " and " << b
            << " overlap";
      }
    }
    EXPECT_TRUE(backend.memory_view(4).empty());
  }
}

TEST(MemoryBackend, DiscardFillsOnlyItsDisk) {
  for (const std::uint64_t disk_bytes : kDiskSizes) {
    MemoryBackend backend;
    ASSERT_TRUE(backend.open({.num_disks = 3, .disk_bytes = disk_bytes}).ok());
    for (DiskId disk = 0; disk < 3; ++disk)
      ASSERT_TRUE(backend
                      .write(disk, 0,
                             std::vector<std::uint8_t>(
                                 disk_bytes,
                                 static_cast<std::uint8_t>(0x10 + disk)))
                      .ok());
    ASSERT_TRUE(backend.discard(1, 0xAB).ok());
    EXPECT_TRUE(reads_all(backend, 0, disk_bytes, 0x10)) << disk_bytes;
    EXPECT_TRUE(reads_all(backend, 1, disk_bytes, 0xAB)) << disk_bytes;
    EXPECT_TRUE(reads_all(backend, 2, disk_bytes, 0x12)) << disk_bytes;
  }
}

// The disks live in one mapping, which has no allocator redzones; the
// poisoned gap after each disk is what lets ASan report a write just
// past a view.
TEST(MemoryBackendDeathTest, WritePastAViewIsReported) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  for (const std::uint64_t disk_bytes : kDiskSizes)
    EXPECT_DEATH(
        {
          MemoryBackend backend;
          if (backend.open({.num_disks = 2, .disk_bytes = disk_bytes}).ok()) {
            volatile std::uint8_t* past =
                backend.memory_view(0).data() + disk_bytes;
            *past = 1;
          }
        },
        "AddressSanitizer")
        << disk_bytes << " bytes";
#endif
}

#if defined(__linux__)
/// One /proc/self/smaps entry: the mapping's size, its resident bytes
/// and its VmFlags.
struct SmapsEntry {
  std::uint64_t bytes = 0;
  std::uint64_t rss_bytes = 0;
  std::string vm_flags;
};

/// The smaps entry of the mapping that begins at `start`, if one does.
std::optional<SmapsEntry> smaps_entry_at(const void* start) {
  const auto wanted = reinterpret_cast<std::uintptr_t>(start);
  std::ifstream smaps("/proc/self/smaps");
  std::optional<SmapsEntry> found;
  std::string line;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      if (found) break;  // the next mapping's header
      if (lo == wanted) {
        found.emplace();
        found->bytes = hi - lo;
      }
    } else if (found && line.rfind("Rss:", 0) == 0) {
      found->rss_bytes = std::stoull(line.substr(4)) * 1024;
    } else if (found && line.rfind("VmFlags:", 0) == 0) {
      found->vm_flags = line.substr(8) + " ";
    }
  }
  return found;
}

/// The kernel's transparent-huge-page mode ("always", "madvise",
/// "never"), or empty where the kernel has none.
std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string text;
  std::getline(in, text);
  const auto open = text.find('[');
  const auto close = text.find(']');
  if (open == std::string::npos || close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}
#endif

// A disk that can hold a huge page starts on a huge-page boundary and is
// a mapping of its own that holds exactly its bytes, so the huge-page
// advice and the pre-fault cover disk bytes only.  It is resident as
// soon as open() returns -- where the kernel refuses MADV_POPULATE_WRITE,
// open() has touched every page itself -- and it carries the huge-page
// advice (VmFlag "hg").
TEST(MemoryBackend, HugePageDisksAreAlignedResidentAndAdvised) {
#if !defined(__linux__)
  GTEST_SKIP() << "reads /proc/self/smaps";
#else
  constexpr std::uint64_t kDiskBytes = 2 * MemoryBackend::kHugePageBytes + 4096;
  constexpr DiskId kDisks = 3;
  MemoryBackend backend;
  ASSERT_TRUE(
      backend.open({.num_disks = kDisks, .disk_bytes = kDiskBytes}).ok());
  for (DiskId disk = 0; disk < kDisks; ++disk) {
    const auto first =
        reinterpret_cast<std::uintptr_t>(backend.memory_view(disk).data());
    EXPECT_EQ(first % MemoryBackend::kHugePageBytes, 0u) << "disk " << disk;
  }

  // Without huge-page support the advice fails, and the disks' mappings
  // merge with the gaps between them.
  const std::string thp = thp_mode();
  if (thp.empty()) GTEST_SKIP() << "kernel without transparent huge pages";
  for (DiskId disk = 0; disk < kDisks; ++disk) {
    const auto entry = smaps_entry_at(backend.memory_view(disk).data());
    ASSERT_TRUE(entry.has_value())
        << "disk " << disk << ": no mapping begins at its first byte";
    EXPECT_EQ(entry->bytes, kDiskBytes) << "disk " << disk;
    EXPECT_GE(entry->rss_bytes, kDiskBytes)
        << "disk " << disk << " is not resident after open()";
    if (thp != "never") {
      EXPECT_NE(entry->vm_flags.find(" hg "), std::string::npos)
          << "disk " << disk << " VmFlags:" << entry->vm_flags;
    }
  }
#endif
}

// ------------------------------------------------------------------- file

TEST(FileBackend, PersistsAcrossCloseAndReopen) {
  const tests::ScratchDir dir("pdl_backend_test_persist");
  const auto data = pattern(128, 7);
  {
    FileBackend backend({.directory = dir.path().string()});
    ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 512}).ok());
    EXPECT_EQ(backend.name(), "file");
    EXPECT_TRUE(backend.memory_view(0).empty());  // no zero-copy for files
    ASSERT_TRUE(backend.write(1, 300, data).ok());
    ASSERT_TRUE(backend.sync(1).ok());
  }  // closed
  {
    FileBackend backend({.directory = dir.path().string()});
    ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 512}).ok());
    std::vector<std::uint8_t> out(128);
    ASSERT_TRUE(backend.read(1, 300, out).ok());
    EXPECT_EQ(out, data);
    // Fresh regions of a reopened image still read as zeros.
    ASSERT_TRUE(backend.read(0, 0, out).ok());
    for (const auto b : out) EXPECT_EQ(b, 0);
  }
}

TEST(FileBackend, RefusesGeometryMismatchOnReopen) {
  const tests::ScratchDir dir("pdl_backend_test_mismatch");
  {
    FileBackend backend({.directory = dir.path().string()});
    ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 512}).ok());
  }
  {
    // Different disk_bytes: refused.
    FileBackend backend({.directory = dir.path().string()});
    const Status opened = backend.open({.num_disks = 2, .disk_bytes = 1024});
    EXPECT_EQ(opened.code(), StatusCode::kFailedPrecondition);
  }
  {
    // Same disk_bytes but different disk count: image sizes alone could
    // not catch this (O_CREAT would add fresh zero disks); the geometry
    // manifest must.
    FileBackend backend({.directory = dir.path().string()});
    const Status opened = backend.open({.num_disks = 3, .disk_bytes = 512});
    EXPECT_EQ(opened.code(), StatusCode::kFailedPrecondition);
  }
  {
    // The matching geometry still reopens fine.
    FileBackend backend({.directory = dir.path().string()});
    EXPECT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 512}).ok());
  }
}

TEST(FileBackend, DiscardFillsWholeImage) {
  const tests::ScratchDir dir("pdl_backend_test_discard");
  FileBackend backend({.directory = dir.path().string()});
  ASSERT_TRUE(backend.open({.num_disks = 1, .disk_bytes = 3000}).ok());
  ASSERT_TRUE(backend.write(0, 0, pattern(256, 3)).ok());
  ASSERT_TRUE(backend.discard(0, 0xDD).ok());
  std::vector<std::uint8_t> out(3000);
  ASSERT_TRUE(backend.read(0, 0, out).ok());
  for (const auto b : out) ASSERT_EQ(b, 0xDD);
}

/// The satellite acceptance scenario: write through a file-backed store,
/// tear the store down, re-create it over the same directory, then fail a
/// disk -- degraded reads and a rebuild must reproduce the first
/// process's bytes exactly.
TEST(FileBackend, StoreReopenDegradedReadAndRebuildRoundTrip) {
  const tests::ScratchDir dir("pdl_backend_test_store_roundtrip");
  constexpr std::uint64_t kSeed = 0xFADE;
  constexpr DiskId kVictim = 4;
  const StripeStoreOptions store_options{.unit_bytes = 96, .iterations = 2};

  auto make_array = [] {
    return api::Array::create({.num_disks = 17, .stripe_size = 5});
  };

  std::uint64_t victim_checksum = 0;
  std::uint64_t num_units = 0;
  {
    auto array = make_array();
    ASSERT_TRUE(array.ok());
    auto store = StripeStore::create(
        std::move(array).value(), store_options,
        make_file_backend({.directory = dir.path().string()}));
    ASSERT_TRUE(store.ok()) << store.status().to_string();
    num_units = store->num_logical_units();
    ASSERT_TRUE(fill_canonical(*store, 0, num_units, kSeed).ok());
    ASSERT_TRUE(store->sync().ok());
    const auto sum = store->checksum_disk(kVictim);
    ASSERT_TRUE(sum.ok());
    victim_checksum = *sum;
  }  // first store (and its descriptors) gone

  auto array = make_array();
  ASSERT_TRUE(array.ok());
  auto store = StripeStore::create(
      std::move(array).value(), store_options,
      make_file_backend({.directory = dir.path().string()}));
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  ASSERT_EQ(store->num_logical_units(), num_units);

  // The reopened image serves the first process's bytes.
  std::vector<std::uint8_t> unit(store->unit_bytes());
  std::vector<std::uint8_t> expected(store->unit_bytes());
  for (std::uint64_t logical = 0; logical < num_units; ++logical) {
    ASSERT_TRUE(store->read(logical, unit).ok()) << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << logical;
  }

  // Degraded reads across the reopen: parity persisted with the data.
  ASSERT_TRUE(store->fail_disk(kVictim).ok());
  std::uint64_t degraded = 0;
  for (std::uint64_t logical = 0; logical < num_units; ++logical) {
    ReadReceipt receipt;
    ASSERT_TRUE(store->read(logical, unit, &receipt).ok()) << logical;
    canonical_fill(logical, kSeed, expected);
    ASSERT_EQ(unit, expected) << logical;
    if (receipt.kind == api::ReadPlan::Kind::kDegraded) ++degraded;
  }
  EXPECT_GT(degraded, 0u);

  // Rebuild restores the victim image checksum-identically.
  ASSERT_TRUE(store->replace_disk(kVictim).ok());
  const auto outcome = store->rebuild();
  ASSERT_TRUE(outcome.ok());
  const auto rebuilt = store->checksum_disk(kVictim);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, victim_checksum);
  EXPECT_TRUE(store->array().healthy());

}

// -------------------------------------------------------- fault injection

TEST(FaultInjectionBackend, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    FaultInjectionBackend backend(make_memory_backend(),
                                  {.seed = seed,
                                   .read_error_probability = 0.3,
                                   .bit_rot_probability = 0.2});
    EXPECT_TRUE(backend.open({.num_disks = 1, .disk_bytes = 4096}).ok());
    std::vector<std::uint8_t> buf(64);
    std::vector<StatusCode> codes;
    for (int i = 0; i < 200; ++i)
      codes.push_back(backend.read(0, 0, buf).code());
    const auto stats = backend.stats();
    EXPECT_EQ(stats.reads, 200u);
    EXPECT_GT(stats.injected_read_errors, 0u);
    EXPECT_GT(stats.injected_bit_flips, 0u);
    return std::make_pair(codes, stats.injected_read_errors);
  };
  const auto a = run(11);
  const auto b = run(11);
  const auto c = run(12);
  EXPECT_EQ(a.first, b.first);    // same seed, same fault sequence
  EXPECT_EQ(a.second, b.second);
  EXPECT_NE(a.first, c.first);    // different seed, different sequence
}

TEST(FaultInjectionBackend, BitRotCorruptsPayloadNotSubstrate) {
  FaultInjectionBackend backend(make_memory_backend(),
                                {.seed = 5, .bit_rot_probability = 1.0});
  ASSERT_TRUE(backend.open({.num_disks = 1, .disk_bytes = 256}).ok());
  const auto data = pattern(32, 9);
  ASSERT_TRUE(backend.write(0, 0, data).ok());

  std::vector<std::uint8_t> out(32);
  ASSERT_TRUE(backend.read(0, 0, out).ok());
  // Exactly one bit differs per read...
  int diff_bits = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    diff_bits += __builtin_popcount(out[i] ^ data[i]);
  EXPECT_EQ(diff_bits, 1);
  EXPECT_EQ(backend.stats().injected_bit_flips, 1u);
}

TEST(FaultInjectionBackend, InjectedEioSurfacesAsTypedStatusFromStore) {
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  auto flaky = std::make_unique<FaultInjectionBackend>(
      make_memory_backend(),
      FaultInjectionOptions{.seed = 3, .read_error_probability = 1.0});
  FaultInjectionBackend* flaky_raw = flaky.get();
  auto store = StripeStore::create(std::move(array).value(),
                                   {.unit_bytes = 64, .iterations = 1},
                                   std::move(flaky));
  ASSERT_TRUE(store.ok()) << store.status().to_string();

  // Every read fails with kIoError -- the typed code, not a crash, not
  // garbage bytes.
  std::vector<std::uint8_t> unit(store->unit_bytes());
  const Status read = store->read(0, unit);
  EXPECT_EQ(read.code(), StatusCode::kIoError);
  EXPECT_GT(flaky_raw->stats().injected_read_errors, 0u);

  // Writes read old data/parity first (RMW), so they fail typed too.
  const Status written = store->write(0, unit);
  EXPECT_EQ(written.code(), StatusCode::kIoError);
}

/// Decorator failing exactly the Nth write() after arm(): lets a test
/// target one specific physical write inside a store operation.
class FailNthWriteBackend final : public DiskBackend {
 public:
  explicit FailNthWriteBackend(std::unique_ptr<DiskBackend> inner)
      : inner_(std::move(inner)) {}

  void arm(int fail_on) { fail_on_ = fail_on; count_ = 0; }

  Status open(const BackendGeometry& g) override { return inner_->open(g); }
  Status read(DiskId d, std::uint64_t off,
              std::span<std::uint8_t> out) override {
    return inner_->read(d, off, out);
  }
  Status write(DiskId d, std::uint64_t off,
               std::span<const std::uint8_t> data) override {
    if (fail_on_ > 0 && ++count_ == fail_on_) {
      fail_on_ = 0;
      return Status::io_error("scripted write failure");
    }
    return inner_->write(d, off, data);
  }
  Status sync(DiskId d) override { return inner_->sync(d); }
  Status discard(DiskId d, std::uint8_t fill) override {
    return inner_->discard(d, fill);
  }
  std::string_view name() const noexcept override { return "fail-nth"; }
  // memory_view stays empty (base default), so the store's gather
  // copies old bytes into staging and a failed commit can restore them.

 private:
  std::unique_ptr<DiskBackend> inner_;
  int fail_on_ = 0;
  int count_ = 0;
};

/// One single-fault RMW case: the codec, whether the CRC layer is on,
/// and which write of the RMW's one commit batch fails.  The batch
/// writes the data unit, then every parity, then (under integrity) one
/// CRC word per unit, so every ordinal from 1 to (1 + m) * (integrity ?
/// 2 : 1) is a distinct partial-landing interleaving.
struct TornRmwCase {
  core::CodecKind codec = core::CodecKind::kXorParity;
  bool integrity = false;
  int failing_write = 1;
};

std::vector<TornRmwCase> torn_rmw_cases() {
  std::vector<TornRmwCase> cases;
  for (const core::CodecKind codec :
       {core::CodecKind::kXorParity, core::CodecKind::kReedSolomonPQ})
    for (const bool integrity : {false, true}) {
      const int units = 1 + static_cast<int>(
                                core::codec_for(codec).num_parity());
      for (int n = 1; n <= units * (integrity ? 2 : 1); ++n)
        cases.push_back({codec, integrity, n});
    }
  return cases;
}

std::string torn_rmw_name(const testing::TestParamInfo<TornRmwCase>& info) {
  return std::string(core::codec_kind_name(info.param.codec)) +
         (info.param.integrity ? "_crc" : "") + "_write" +
         std::to_string(info.param.failing_write);
}

class DiskBackendStoreTornRmw : public testing::TestWithParam<TornRmwCase> {
 protected:
  /// A v=17 k=5 store over a FailNthWriteBackend, with `old_data`
  /// written to `logical` (so the next write of it is an RMW).
  void SetUp() override {
    const TornRmwCase& c = GetParam();
    auto array = api::Array::create({.num_disks = 17, .stripe_size = 5}, {},
                                    {.codec = c.codec,
                                     .integrity = c.integrity});
    ASSERT_TRUE(array.ok()) << array.status().to_string();
    auto failer =
        std::make_unique<FailNthWriteBackend>(make_memory_backend());
    failer_ = failer.get();
    auto store = StripeStore::create(std::move(array).value(),
                                     {.unit_bytes = 64, .iterations = 1},
                                     std::move(failer));
    ASSERT_TRUE(store.ok()) << store.status().to_string();
    store_ = std::make_unique<StripeStore>(std::move(store).value());

    WriteReceipt receipt;
    ASSERT_TRUE(store_->write(kLogical, old_data_, &receipt).ok());
    ASSERT_EQ(receipt.kind, api::WritePlan::Kind::kReadModifyWrite);
    data_disk_ = receipt.writes[0].disk;
  }

  /// Fails the data disk and checks that a degraded read of the unit --
  /// a decode through the stripe's parity -- serves `expected`.
  void expect_degraded(const std::vector<std::uint8_t>& expected) {
    ASSERT_TRUE(store_->fail_disk(data_disk_).ok());
    std::vector<std::uint8_t> got(store_->unit_bytes());
    ReadReceipt degraded;
    ASSERT_TRUE(store_->read(kLogical, got, &degraded).ok());
    EXPECT_EQ(degraded.kind, api::ReadPlan::Kind::kDegraded);
    EXPECT_EQ(got, expected);
  }

  static constexpr std::uint64_t kLogical = 3;
  std::vector<std::uint8_t> old_data_ = std::vector<std::uint8_t>(64, 0x33);
  std::vector<std::uint8_t> new_data_ = std::vector<std::uint8_t>(64, 0x44);
  FailNthWriteBackend* failer_ = nullptr;  ///< owned by the store
  std::unique_ptr<StripeStore> store_;
  DiskId data_disk_ = 0;
};

// A torn read-modify-write (any one write of the commit batch failed)
// must roll every landed write back: the stripe stays consistent with
// the OLD data, and a degraded read after a subsequent disk failure
// serves the old bytes -- not garbage.
TEST_P(DiskBackendStoreTornRmw, TornRmwRollsBackParity) {
  failer_->arm(GetParam().failing_write);
  const Status torn = store_->write(kLogical, new_data_);
  EXPECT_EQ(torn.code(), StatusCode::kIoError) << torn.to_string();
  EXPECT_EQ(store_->torn_parity_instances(), 0u);

  // The unit still reads back as the old bytes...
  std::vector<std::uint8_t> got(store_->unit_bytes());
  ASSERT_TRUE(store_->read(kLogical, got).ok());
  EXPECT_EQ(got, old_data_);

  // ...every parity (and, under integrity, every checksum) agrees with
  // them...
  const auto inconsistent = store_->verify_stripes();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(*inconsistent, 0u);

  // ...and -- the actual rollback guarantee -- losing the data disk
  // reconstructs the OLD bytes from survivors.
  expect_degraded(old_data_);
}

// After the rollback, retrying the same write must succeed and leave
// parity consistent with the NEW bytes.
TEST_P(DiskBackendStoreTornRmw, RetryAfterTornRmwIsSafe) {
  failer_->arm(GetParam().failing_write);
  ASSERT_EQ(store_->write(kLogical, new_data_).code(), StatusCode::kIoError);
  ASSERT_TRUE(store_->write(kLogical, new_data_).ok());  // the documented retry

  const auto inconsistent = store_->verify_stripes();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(*inconsistent, 0u);
  expect_degraded(new_data_);
}

INSTANTIATE_TEST_SUITE_P(EveryBatchWrite, DiskBackendStoreTornRmw,
                         testing::ValuesIn(torn_rmw_cases()), torn_rmw_name);

TEST(FaultInjectionBackend, DecoratorHidesMemoryViews) {
  // If the decorator leaked the inner backend's views, the store would
  // bypass injection entirely.
  FaultInjectionBackend backend(make_memory_backend(), {.seed = 1});
  ASSERT_TRUE(backend.open({.num_disks = 2, .disk_bytes = 64}).ok());
  EXPECT_TRUE(backend.memory_view(0).empty());
}

/// Runs one failure cycle on an RS P+Q store with integrity and the
/// stripe cache over `backend`, with disks of at least 4 MiB in 4 KiB
/// units: canonical writes of every unit, then rewrites of a hot set
/// until the cache absorbs them; fail a disk and read every unit
/// degraded; replace and rebuild.  `checksums` receives the final
/// per-disk checksums.
void run_huge_disk_cycle(std::unique_ptr<DiskBackend> backend,
                         std::vector<std::uint64_t>& checksums) {
  constexpr std::uint32_t kUnitBytes = 4096;
  constexpr std::uint64_t kMinDiskBytes = std::uint64_t{4} << 20;
  constexpr DiskId kVictim = 2;
  constexpr std::uint64_t kSeed = 0x4A11;
  constexpr std::uint64_t kHotUnits = 32;
  constexpr std::uint64_t kRounds = 12;

  auto array = api::Array::create(
      {.num_disks = 7, .stripe_size = 4}, {},
      {.codec = core::CodecKind::kReedSolomonPQ, .integrity = true});
  ASSERT_TRUE(array.ok()) << array.status().to_string();
  const std::uint64_t iteration_bytes =
      std::uint64_t{array->units_per_disk()} * kUnitBytes;
  const auto iterations = static_cast<std::uint32_t>(
      (kMinDiskBytes + iteration_bytes - 1) / iteration_bytes);
  auto store = StripeStore::create(
      std::move(array).value(),
      {.unit_bytes = kUnitBytes, .iterations = iterations,
       .cache = {.enabled = true}},
      std::move(backend));
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  ASSERT_GE(iteration_bytes * iterations, kMinDiskBytes);

  const std::uint64_t n = store->num_logical_units();
  ASSERT_TRUE(fill_canonical(*store, 0, n, kSeed).ok());
  std::vector<std::uint8_t> unit(kUnitBytes);
  for (std::uint64_t round = 1; round <= kRounds; ++round)
    for (std::uint64_t logical = 0; logical < kHotUnits; ++logical) {
      canonical_fill(logical, kSeed + round, unit);
      ASSERT_TRUE(store->write(logical, unit).ok()) << logical;
    }
  EXPECT_GT(store->hotness_stats().absorbed_writes, 0u);

  ASSERT_TRUE(store->fail_disk(kVictim).ok());
  std::vector<std::uint8_t> expected(kUnitBytes);
  std::uint64_t degraded = 0;
  for (std::uint64_t logical = 0; logical < n; ++logical) {
    ReadReceipt receipt;
    ASSERT_TRUE(store->read(logical, unit, &receipt).ok()) << logical;
    canonical_fill(logical, logical < kHotUnits ? kSeed + kRounds : kSeed,
                   expected);
    ASSERT_EQ(unit, expected) << logical;
    if (receipt.kind == api::ReadPlan::Kind::kDegraded) ++degraded;
  }
  EXPECT_GT(degraded, 0u);

  ASSERT_TRUE(store->replace_disk(kVictim).ok());
  ASSERT_TRUE(store->rebuild().ok());
  EXPECT_TRUE(store->array().healthy());
  ASSERT_TRUE(store->flush_cache().ok());
  const auto inconsistent = store->verify_stripes();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(*inconsistent, 0u);
  auto sums = store->checksum_disks();
  ASSERT_TRUE(sums.ok());
  checksums = std::move(sums).value();
}

// Every other store case uses disks of a few hundred bytes, which never
// reach a huge page; this cycle runs on disks that span several, and the
// memory and file backends must end with identical disks.
TEST(DiskBackendStore, HugePageDisksRebuildLikeFileDisks) {
  const tests::ScratchDir dir("pdl_backend_test_huge_disks");
  std::vector<std::uint64_t> memory;
  std::vector<std::uint64_t> file;
  ASSERT_NO_FATAL_FAILURE(run_huge_disk_cycle(make_memory_backend(), memory));
  ASSERT_NO_FATAL_FAILURE(run_huge_disk_cycle(
      make_file_backend({.directory = dir.path().string()}), file));
  ASSERT_EQ(memory.size(), 7u);
  EXPECT_EQ(memory, file);
}

// StripeStore::create must pass backend open failures through typed.
TEST(DiskBackendStore, OpenFailurePropagates) {
  auto array = api::Array::create({.num_disks = 17, .stripe_size = 5});
  ASSERT_TRUE(array.ok());
  // A file backend pointed at an unusable path (a path *under* an
  // existing file cannot be created as a directory).
  const tests::ScratchDir dir("pdl_backend_test_open_fail");
  const auto blocker = dir.path() / "blocker";
  {
    std::vector<std::uint8_t> byte{0};
    FILE* f = std::fopen(blocker.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(byte.data(), 1, 1, f);
    std::fclose(f);
  }
  auto store = StripeStore::create(
      std::move(array).value(), {.unit_bytes = 64},
      make_file_backend({.directory = (blocker / "nested").string()}));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace pdl::io
