// GF(2^8) kernel throughput: the constant-multiply kernels behind the
// Reed-Solomon P+Q codec (core::gf8::mul_xor_into / mul_in_place, the
// Q-parity inner loops, on the kernel chosen at run time for this CPU)
// versus the portable bit-sliced kernels (core::gf8::detail::*_portable)
// and the scalar table-lookup references (core::gf8::detail::*_scalar).
// Two operations are measured per unit size:
//
//   * mul-xor  -- dst ^= c * src (the Q-parity delta fold of a
//                 read-modify-write, and each survivor's contribution to
//                 a double-erasure decode);
//   * mul      -- dst *= c in place (the Horner doubling pass of
//                 Q = sum alpha^i d_i, and the final inverse scaling of
//                 a decode).
//
// Every measured kernel's output is verified against the scalar result
// before timing counts, so the speedup comes with a correctness proof.
// The *_vector_mbps fields time the run-time-chosen kernel (AVX2 where
// the CPU has it); *_speedup is vector over scalar.
//
//   $ ./bench_gf8 [--smoke]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "core/gf8.hpp"

namespace {

using namespace pdl;
using Clock = std::chrono::steady_clock;

std::vector<std::uint8_t> random_bytes(std::size_t size,
                                       std::mt19937_64& rng) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Runs `op` until ~target_seconds elapsed; returns MB/s of payload.
template <typename Op>
double measure(double target_seconds, std::uint64_t bytes_per_op, Op&& op) {
  op();  // warm-up
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

  bench::header("gf(2^8) kernel throughput",
                "the Reed-Solomon Q parity multiplies every unit by a "
                "field constant; the vectorized kernels must beat the "
                "scalar table loops they replaced");

  std::mt19937_64 rng(0x6F8);
  bool all_verified = true;

  // alpha^7: a mid-table constant with a dense bit pattern (no shortcut
  // for the kernels, representative of decode coefficients).
  const std::uint8_t c = core::gf8::exp_alpha(7);

  std::printf("%8s  %-7s %10s %10s %10s  (MB/s)\n", "", "", "scalar",
              "portable", "vector");
  for (const std::size_t size : {512u, 4096u, 65536u}) {
    // --------------------------------------------------------- mul-xor
    auto dst_vec = random_bytes(size, rng);
    auto dst_portable = dst_vec;
    auto dst_scalar = dst_vec;
    const auto src = random_bytes(size, rng);

    core::gf8::mul_xor_into(dst_vec, src, c);
    core::gf8::detail::mul_xor_into_portable(dst_portable, src, c);
    core::gf8::detail::mul_xor_into_scalar(dst_scalar, src, c);
    const bool mulxor_ok = dst_vec == dst_scalar && dst_portable == dst_scalar;

    const double mulxor_scalar = measure(seconds, size, [&] {
      core::gf8::detail::mul_xor_into_scalar(dst_scalar, src, c);
    });
    const double mulxor_portable = measure(seconds, size, [&] {
      core::gf8::detail::mul_xor_into_portable(dst_portable, src, c);
    });
    const double mulxor_vector = measure(
        seconds, size, [&] { core::gf8::mul_xor_into(dst_vec, src, c); });

    // ---------------------------------------------------- mul in place
    // The timed loops above ran different iteration counts on the three
    // buffers; re-sync so this verification compares equal inputs.
    dst_portable = dst_vec;
    dst_scalar = dst_vec;
    core::gf8::mul_in_place(dst_vec, c);
    core::gf8::detail::mul_in_place_portable(dst_portable, c);
    core::gf8::detail::mul_in_place_scalar(dst_scalar, c);
    const bool mul_ok = dst_vec == dst_scalar && dst_portable == dst_scalar;

    const double mul_scalar = measure(seconds, size, [&] {
      core::gf8::detail::mul_in_place_scalar(dst_scalar, c);
    });
    const double mul_portable = measure(seconds, size, [&] {
      core::gf8::detail::mul_in_place_portable(dst_portable, c);
    });
    const double mul_vector =
        measure(seconds, size, [&] { core::gf8::mul_in_place(dst_vec, c); });

    const bool verified = mulxor_ok && mul_ok;
    if (!verified) all_verified = false;

    std::printf("%6zu B  mul-xor %10.0f %10.0f %10.0f  (%4.1fx) | %s\n",
                size, mulxor_scalar, mulxor_portable, mulxor_vector,
                mulxor_vector / mulxor_scalar, bench::okbad(verified));
    std::printf("%8s  mul     %10.0f %10.0f %10.0f  (%4.1fx)\n", "",
                mul_scalar, mul_portable, mul_vector, mul_vector / mul_scalar);

    bench::json_result("gf8_kernels", /*schema_version=*/2)
        .field("unit_bytes", static_cast<std::uint64_t>(size))
        .field("coefficient", static_cast<std::uint64_t>(c))
        .field("mulxor_scalar_mbps", mulxor_scalar)
        .field("mulxor_portable_mbps", mulxor_portable)
        .field("mulxor_vector_mbps", mulxor_vector)
        .field("mulxor_speedup", mulxor_vector / mulxor_scalar)
        .field("mul_scalar_mbps", mul_scalar)
        .field("mul_portable_mbps", mul_portable)
        .field("mul_vector_mbps", mul_vector)
        .field("mul_speedup", mul_vector / mul_scalar)
        .field("verified", verified)
        .emit();
  }

  if (!all_verified) {
    std::fprintf(stderr, "gf8 kernels: verification FAILED\n");
    return 1;
  }
  return 0;
}
