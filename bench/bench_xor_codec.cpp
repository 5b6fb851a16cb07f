// XOR codec hot-path throughput: the fold kernel behind core::xor_into /
// xor_parity_into, on the kernel chosen at run time for this CPU (AVX2
// where the CPU has it), versus the portable fold
// (core::detail::xor_parity_into_portable) and the scalar byte-loop
// references (core::detail::xor_into_scalar / xor_parity_into_scalar).
// Two operations are measured per unit size:
//
//   * pair XOR     -- dst ^= src (the read-modify-write delta); the
//                     portable kernel runs it as the fold of {dst, src};
//   * parity fold  -- dst = XOR of k units (degraded read / reconstruct
//                     write / rebuild; the fold makes ONE pass over dst,
//                     the scalar reference k+1).
//
// Every measured kernel's output is verified against the scalar result
// before timing counts, so the speedup comes with a correctness proof.
// The *_vector_mbps fields time the run-time-chosen kernel; *_speedup is
// vector over scalar.
//
//   $ ./bench_xor_codec [--smoke]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "core/xor_codec.hpp"

namespace {

using namespace pdl;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kFanIn = 5;  // stripe size k in the serving paths

std::vector<std::uint8_t> random_bytes(std::size_t size,
                                       std::mt19937_64& rng) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Runs `op` until ~target_seconds elapsed; returns MB/s of payload.
template <typename Op>
double measure(double target_seconds, std::uint64_t bytes_per_op, Op&& op) {
  // Warm-up.
  op();
  std::uint64_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    op();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < target_seconds);
  return static_cast<double>(iters * bytes_per_op) / 1e6 / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double seconds = smoke ? 0.02 : 0.25;

  bench::header("xor codec throughput",
                "Figure 1's parity equations are the data path's inner "
                "loop; the vectorized folds must beat the scalar byte "
                "loops they replaced");

  std::mt19937_64 rng(0xBE27C);
  bool all_verified = true;

  std::printf("%8s  %-10s %10s %10s %10s  (MB/s)\n", "", "", "scalar",
              "portable", "vector");
  for (const std::size_t size : {512u, 4096u, 65536u}) {
    // --------------------------------------------------------- pair XOR
    auto dst_vec = random_bytes(size, rng);
    auto dst_portable = dst_vec;
    auto dst_scalar = dst_vec;
    const auto src = random_bytes(size, rng);
    const std::span<const std::uint8_t> pair[] = {dst_portable, src};

    core::xor_into(dst_vec, src);
    core::detail::xor_parity_into_portable(dst_portable, pair);
    core::detail::xor_into_scalar(dst_scalar, src);
    const bool pair_ok = dst_vec == dst_scalar && dst_portable == dst_scalar;

    const double pair_scalar = measure(seconds, size, [&] {
      core::detail::xor_into_scalar(dst_scalar, src);
    });
    const double pair_portable = measure(seconds, size, [&] {
      core::detail::xor_parity_into_portable(dst_portable, pair);
    });
    const double pair_vector =
        measure(seconds, size, [&] { core::xor_into(dst_vec, src); });

    // ------------------------------------------------------ parity fold
    std::vector<std::vector<std::uint8_t>> units;
    for (std::uint32_t u = 0; u < kFanIn; ++u)
      units.push_back(random_bytes(size, rng));
    std::vector<std::span<const std::uint8_t>> views;
    for (const auto& unit : units) views.emplace_back(unit);

    core::xor_parity_into(dst_vec, views);
    core::detail::xor_parity_into_portable(dst_portable, views);
    core::detail::xor_parity_into_scalar(dst_scalar, views);
    const bool parity_ok =
        dst_vec == dst_scalar && dst_portable == dst_scalar;

    const double parity_scalar = measure(seconds, size * kFanIn, [&] {
      core::detail::xor_parity_into_scalar(dst_scalar, views);
    });
    const double parity_portable = measure(seconds, size * kFanIn, [&] {
      core::detail::xor_parity_into_portable(dst_portable, views);
    });
    const double parity_vector = measure(seconds, size * kFanIn, [&] {
      core::xor_parity_into(dst_vec, views);
    });

    const bool verified = pair_ok && parity_ok;
    if (!verified) all_verified = false;

    std::printf("%6zu B  pair       %10.0f %10.0f %10.0f  (%4.1fx) | %s\n",
                size, pair_scalar, pair_portable, pair_vector,
                pair_vector / pair_scalar, bench::okbad(verified));
    std::printf("%8s  parity k=%u %10.0f %10.0f %10.0f  (%4.1fx)\n", "",
                kFanIn, parity_scalar, parity_portable, parity_vector,
                parity_vector / parity_scalar);

    bench::json_result("xor_codec", /*schema_version=*/2)
        .field("unit_bytes", static_cast<std::uint64_t>(size))
        .field("fan_in", static_cast<std::uint64_t>(kFanIn))
        .field("pair_scalar_mbps", pair_scalar)
        .field("pair_portable_mbps", pair_portable)
        .field("pair_vector_mbps", pair_vector)
        .field("pair_speedup", pair_vector / pair_scalar)
        .field("parity_scalar_mbps", parity_scalar)
        .field("parity_portable_mbps", parity_portable)
        .field("parity_vector_mbps", parity_vector)
        .field("parity_speedup", parity_vector / parity_scalar)
        .field("verified", verified)
        .emit();
  }

  if (!all_verified) {
    std::fprintf(stderr, "xor codec: verification FAILED\n");
    return 1;
  }
  return 0;
}
