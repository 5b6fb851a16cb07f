#include "core/xor_codec.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/cpu_features.hpp"

namespace pdl::core {

namespace {

using Units = std::span<const std::span<const std::uint8_t>>;

inline void check_same_size(std::size_t dst, std::size_t src,
                            const char* what) {
  if (dst != src) throw std::invalid_argument(std::string(what) +
                                              ": size mismatch");
}

/// The contract every fold entry point checks before any byte moves.
void check_units(std::size_t dst, Units units, const char* what) {
  if (units.empty())
    throw std::invalid_argument(std::string(what) + ": no units");
  for (const auto unit : units) check_same_size(dst, unit.size(), what);
}

// The fold kernels: d[i] = XOR of units[u][i] over every unit.  Each
// step loads every source's bytes into accumulators held in registers
// and stores d once, after the last load.  That keeps dst traffic to one
// store per step whatever the fan-in, and makes the fold safe when d
// aliases a unit EXACTLY: a step's source bytes are all read before that
// step of d is written.  Partial overlaps at an offset would clobber
// unread source bytes and are not supported.

void fold_bytes(std::uint8_t* d, Units units, std::size_t from,
                std::size_t n) noexcept {
  for (std::size_t i = from; i < n; ++i) {
    std::uint8_t acc = units[0][i];
    for (std::size_t u = 1; u < units.size(); ++u) acc ^= units[u][i];
    d[i] = acc;
  }
}

/// A 16-byte lane: SSE2 on baseline x86-64, NEON on aarch64.  A 32-byte
/// vector type would change the calling convention under the baseline
/// target (-Wpsabi), so the wide kernel below uses intrinsics instead.
typedef std::uint8_t Lane __attribute__((vector_size(16)));

inline Lane load_lane(const std::uint8_t* p) noexcept {
  Lane v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_lane(std::uint8_t* p, Lane v) noexcept {
  std::memcpy(p, &v, sizeof v);
}

/// The portable kernel: four lanes per 64-byte step, then bytes.
void fold_portable(std::uint8_t* d, Units units, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const std::uint8_t* s = units[0].data() + i;
    Lane a0 = load_lane(s), a1 = load_lane(s + 16), a2 = load_lane(s + 32),
         a3 = load_lane(s + 48);
    for (std::size_t u = 1; u < units.size(); ++u) {
      s = units[u].data() + i;
      a0 ^= load_lane(s);
      a1 ^= load_lane(s + 16);
      a2 ^= load_lane(s + 32);
      a3 ^= load_lane(s + 48);
    }
    store_lane(d + i, a0);
    store_lane(d + i + 16, a1);
    store_lane(d + i + 32, a2);
    store_lane(d + i + 48, a3);
  }
  fold_bytes(d, units, i, n);
}

#if defined(__x86_64__)

// Helper functions rather than lambdas: a lambda inside a target("avx2")
// function does not inherit the target, and its intrinsics fail to
// inline.

__attribute__((target("avx2"))) inline __m256i load_avx2(
    const std::uint8_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void store_avx2(std::uint8_t* p,
                                                      __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// The AVX2 kernel: four 32-byte accumulators per 128-byte step, then
/// bytes.  Keep the tail in this function, so that every exit passes the
/// vzeroupper GCC emits before returning: handing the tail to the SSE
/// kernel by a tail call left the upper ymm halves dirty (GCC 12 put no
/// vzeroupper before the jump), which slows every later SSE instruction
/// in the process.
__attribute__((target("avx2"))) void fold_avx2(std::uint8_t* d, Units units,
                                               std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const std::uint8_t* s = units[0].data() + i;
    __m256i a0 = load_avx2(s), a1 = load_avx2(s + 32), a2 = load_avx2(s + 64),
            a3 = load_avx2(s + 96);
    for (std::size_t u = 1; u < units.size(); ++u) {
      s = units[u].data() + i;
      a0 = _mm256_xor_si256(a0, load_avx2(s));
      a1 = _mm256_xor_si256(a1, load_avx2(s + 32));
      a2 = _mm256_xor_si256(a2, load_avx2(s + 64));
      a3 = _mm256_xor_si256(a3, load_avx2(s + 96));
    }
    store_avx2(d + i, a0);
    store_avx2(d + i + 32, a1);
    store_avx2(d + i + 64, a2);
    store_avx2(d + i + 96, a3);
  }
  fold_bytes(d, units, i, n);
}

#endif  // __x86_64__

/// The fastest fold the running CPU supports.
void fold(std::span<std::uint8_t> dst, Units units) noexcept {
#if defined(__x86_64__)
  if (detail::has_avx2()) return fold_avx2(dst.data(), units, dst.size());
#endif
  fold_portable(dst.data(), units, dst.size());
}

}  // namespace

void xor_into(std::span<std::uint8_t> dst,
              std::span<const std::uint8_t> src) {
  check_same_size(dst.size(), src.size(), "xor_into");
  const std::span<const std::uint8_t> units[] = {dst, src};
  fold(dst, units);
}

std::vector<std::uint8_t> xor_parity(
    std::span<const std::vector<std::uint8_t>> units) {
  if (units.empty()) throw std::invalid_argument("xor_parity: no units");
  std::vector<std::uint8_t> parity(units.front().size(), 0);
  for (const auto& unit : units) xor_into(parity, unit);
  return parity;
}

std::vector<std::uint8_t> xor_reconstruct(
    std::span<const std::vector<std::uint8_t>> survivors) {
  return xor_parity(survivors);
}

void xor_parity_into(std::span<std::uint8_t> dst, Units units) {
  check_units(dst.size(), units, "xor_parity_into");
  fold(dst, units);
}

void xor_reconstruct_into(std::span<std::uint8_t> dst, Units survivors) {
  if (survivors.empty())
    throw std::invalid_argument("xor_reconstruct_into: no survivors");
  xor_parity_into(dst, survivors);
}

namespace detail {

void xor_into_scalar(std::span<std::uint8_t> dst,
                     std::span<const std::uint8_t> src) {
  check_same_size(dst.size(), src.size(), "xor_into_scalar");
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  // Byte-indexed loop, one lane at a time: the PR-4 baseline shape.
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] ^= s[i];
}

void xor_parity_into_scalar(std::span<std::uint8_t> dst, Units units) {
  check_units(dst.size(), units, "xor_parity_into_scalar");
  std::fill(dst.begin(), dst.end(), std::uint8_t{0});
  for (const auto unit : units) xor_into_scalar(dst, unit);
}

void xor_parity_into_portable(std::span<std::uint8_t> dst, Units units) {
  check_units(dst.size(), units, "xor_parity_into_portable");
  fold_portable(dst.data(), units, dst.size());
}

}  // namespace detail

}  // namespace pdl::core
