// CRC32C kernel throughput: every kernel the running CPU supports
// (core::detail::crc32c_kernels, fastest first -- core::crc32c runs the
// first) on hot buffers of 512 B, 4 KiB and 1 MiB, and on 4 KiB units
// picked at random from a buffer larger than the last-level cache.  The
// cold case is the integrity layer's verify of a unit that was just read
// from media; the hot 4 KiB case is its checksum of a unit it has just
// written.
//
// Each kernel's CRC of every buffer (and of a sample of cold units) is
// checked against a bitwise loop before its timings count.  One JSON row
// per kernel, each naming the kernel the dispatcher chose.
//
//   $ ./bench_crc32c [--smoke]
//
// --smoke times 0.02 s per cell and draws cold units from an 8 MiB
// buffer, which is not colder than the cache; otherwise each cell runs
// 0.25 s and the buffer is twice the last-level cache, at least 64 MiB.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "core/crc32c.hpp"

namespace {

using namespace pdl;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kUnit = 4096;

/// Bit-at-a-time CRC32C, the reference every kernel must match.
std::uint32_t crc32c_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t size,
                                       std::mt19937_64& rng) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i + 8 <= size; i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(bytes.data() + i, &word, 8);
  }
  for (std::size_t i = size & ~std::size_t{7}; i < size; ++i)
    bytes[i] = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Runs `op` until ~target_seconds elapsed; returns MB/s of payload.
/// The clock is read once per 64 ops: a hot 512-byte CRC takes less
/// time than reading it.
template <typename Op>
double measure(double target_seconds, std::uint64_t bytes_per_op, Op&& op) {
  constexpr std::uint64_t kBatch = 64;
  op();  // warm-up
  std::uint64_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (std::uint64_t i = 0; i < kBatch; ++i) op();
    iters += kBatch;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < target_seconds);
  return static_cast<double>(iters * bytes_per_op) / 1e6 / elapsed;
}

/// The cold buffer's size: twice the last-level cache the C library
/// reports, and at least 64 MiB when it reports none.
std::size_t cold_buffer_bytes() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::size_t twice = llc > 0 ? 2 * static_cast<std::size_t>(llc) : 0;
  return std::max<std::size_t>(twice, std::size_t{64} << 20) / kUnit * kUnit;
}

/// A cheap stream of unit indices (splitmix64), the same for every
/// kernel, so each pick lands anywhere in the buffer.
struct Picks {
  std::uint64_t state;
  std::size_t units;

  std::size_t next() noexcept {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>((z ^ (z >> 31)) % units);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double seconds = smoke ? 0.02 : 0.25;

  bench::header("crc32c kernel throughput",
                "every unit on the degraded and rebuild paths is "
                "CRC32C-checked; a cold 4 KiB verify should cost what "
                "reading the unit costs");

  std::mt19937_64 rng(0xC3C32C);
  const std::size_t hot_sizes[] = {512, kUnit, std::size_t{1} << 20};
  std::vector<std::vector<std::uint8_t>> hot;
  std::vector<std::uint32_t> hot_expected;
  for (const std::size_t size : hot_sizes) {
    hot.push_back(random_bytes(size, rng));
    hot_expected.push_back(crc32c_bitwise(hot.back()));
  }

  const std::size_t cold_bytes = smoke ? std::size_t{8} << 20
                                       : cold_buffer_bytes();
  const auto cold = random_bytes(cold_bytes, rng);
  const std::size_t cold_units = cold_bytes / kUnit;
  const auto cold_unit = [&](std::size_t unit) {
    return std::span<const std::uint8_t>{cold.data() + unit * kUnit, kUnit};
  };
  constexpr std::uint64_t kPickSeed = 0xC01D;
  std::vector<std::size_t> sampled;
  std::vector<std::uint32_t> sampled_expected;
  Picks sample{kPickSeed, cold_units};
  for (int i = 0; i < 16; ++i) {
    sampled.push_back(sample.next());
    sampled_expected.push_back(crc32c_bitwise(cold_unit(sampled.back())));
  }

  const auto kernels = core::detail::crc32c_kernels();
  const char* const dispatched = kernels.front().name;
  std::printf("dispatched kernel: %s; cold buffer %zu MiB\n", dispatched,
              cold_bytes >> 20);
  std::printf("%-11s %10s %10s %10s %12s  (MB/s)\n", "kernel", "512 B",
              "4 KiB", "1 MiB", "cold 4 KiB");

  bool all_verified = true;
  std::uint32_t sink = 0;
  for (const core::detail::Crc32cKernel& kernel : kernels) {
    bool verified = true;
    for (std::size_t i = 0; i < hot.size(); ++i)
      verified = verified && kernel.crc(hot[i], 0) == hot_expected[i] &&
                 core::crc32c(hot[i]) == hot_expected[i];
    for (std::size_t i = 0; i < sampled.size(); ++i)
      verified = verified &&
                 kernel.crc(cold_unit(sampled[i]), 0) == sampled_expected[i];
    all_verified = all_verified && verified;

    double hot_mbps[3]{};
    for (std::size_t i = 0; i < hot.size(); ++i)
      hot_mbps[i] = measure(seconds, hot_sizes[i],
                            [&] { sink ^= kernel.crc(hot[i], 0); });
    Picks picks{kPickSeed, cold_units};
    const double cold_mbps = measure(seconds, kUnit, [&] {
      sink ^= kernel.crc(cold_unit(picks.next()), 0);
    });

    std::printf("%-11s %10.0f %10.0f %10.0f %12.0f  | %s\n", kernel.name,
                hot_mbps[0], hot_mbps[1], hot_mbps[2], cold_mbps,
                bench::okbad(verified));
    bench::json_result("crc32c_kernels", /*schema_version=*/1)
        .field("kernel", kernel.name)
        .field("dispatched_kernel", dispatched)
        .field("hot_512_mbps", hot_mbps[0])
        .field("hot_4k_mbps", hot_mbps[1])
        .field("hot_1m_mbps", hot_mbps[2])
        .field("cold_4k_mbps", cold_mbps)
        .field("cold_buffer_bytes", static_cast<std::uint64_t>(cold_bytes))
        .field("verified", verified)
        .emit();
  }
  std::printf("(sink %08x)\n", sink);

  if (!all_verified) {
    std::fprintf(stderr, "crc32c kernels: verification FAILED\n");
    return 1;
  }
  return 0;
}
