#include "core/gf8.hpp"

#include <cstring>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "algebra/gf.hpp"
#include "algebra/polynomial.hpp"
#include "core/cpu_features.hpp"

namespace pdl::core::gf8 {

namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kBlock = kLanes * sizeof(std::uint64_t);  // 64 bytes

/// Bit-slicing masks for bytes packed in a 64-bit word.
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;
constexpr std::uint64_t kOnes = 0x0101010101010101ull;

/// x * v for eight packed GF(2^8) bytes: shift every byte left one bit
/// (the & kLow7 keeps bits from crossing byte boundaries), then fold the
/// modulus into every byte whose top bit fell off -- (v >> 7) & kOnes is
/// exactly those bytes' carry flags, and multiplying by (kModulus & 0xff)
/// broadcasts the reduction constant 0x1d to them.
[[nodiscard]] constexpr std::uint64_t mul2(std::uint64_t v) noexcept {
  return ((v & kLow7) << 1) ^ (((v >> 7) & kOnes) * (kModulus & 0xff));
}

/// The log/exp tables, derived from the algebra-layer field so the byte
/// kernels and the mathematical reference cannot drift apart.  Because x
/// is primitive mod 0x11d the generator search finds g = 2 first, so
/// exp_[i] == alpha^i with alpha = 2 -- asserted at construction.
struct Tables {
  std::uint8_t exp[510];  // doubled so exp[log a + log b] needs no mod
  std::uint8_t log[256];
  std::uint8_t inverse[256];  // inverse[0] unused
  /// nibble[c][0][x] = c * x and nibble[c][1][x] = c * (x << 4) for
  /// x < 16, each row repeated in both 16-byte halves: one vpshufb per
  /// half-byte multiplies 32 bytes by c, since c * b is the XOR of the
  /// products of b's two nibbles.
  alignas(32) std::uint8_t nibble[256][2][32];

  Tables() {
    const algebra::GaloisField field(
        256, algebra::Polynomial(
                 2, std::vector<std::uint32_t>{1, 0, 1, 1, 1, 0, 0, 0, 1}));
    if (field.primitive_element() != kAlpha)
      throw std::logic_error("gf8: generator is not alpha = 2");
    for (std::uint32_t i = 0; i < 255; ++i) {
      const auto e = static_cast<std::uint8_t>(field.exp(i));
      exp[i] = e;
      exp[i + 255] = e;
      log[e] = static_cast<std::uint8_t>(i);
    }
    log[0] = 0;  // never read; mul() guards zero operands
    for (std::uint32_t a = 1; a < 256; ++a)
      inverse[a] = static_cast<std::uint8_t>(
          *field.inverse(static_cast<algebra::Elem>(a)));
    const auto product = [this](std::uint32_t a, std::uint32_t b) {
      return a == 0 || b == 0
                 ? std::uint8_t{0}
                 : exp[static_cast<std::uint32_t>(log[a]) + log[b]];
    };
    for (std::uint32_t c = 0; c < 256; ++c)
      for (std::uint32_t x = 0; x < 32; ++x) {
        nibble[c][0][x] = product(c, x & 0x0f);
        nibble[c][1][x] = product(c, (x & 0x0f) << 4);
      }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

inline void check_same_size(std::size_t dst, std::size_t src,
                            const char* what) {
  if (dst != src)
    throw std::invalid_argument(std::string(what) + ": size mismatch");
}

/// One blocked multiply-accumulate pass: acc ^= c * block, with the
/// constant's bits unrolled into at most eight mul2 steps.  `cur` starts
/// as the source block and is doubled once per bit of c.
inline void mul_xor_block(std::uint64_t* acc, const std::uint64_t* src,
                          std::uint8_t c) noexcept {
  std::uint64_t cur[kLanes];
  for (std::size_t lane = 0; lane < kLanes; ++lane) cur[lane] = src[lane];
  std::uint32_t bits = c;
  while (bits != 0) {
    if (bits & 1)
      for (std::size_t lane = 0; lane < kLanes; ++lane)
        acc[lane] ^= cur[lane];
    bits >>= 1;
    if (bits != 0)
      for (std::size_t lane = 0; lane < kLanes; ++lane)
        cur[lane] = mul2(cur[lane]);
  }
}

/// The portable kernels: bit-sliced passes over 64-byte blocks.  Each
/// tail is staged through one zero-padded block so the bit-sliced pass
/// stays the only multiply implementation here (padding bytes are zero
/// and multiply to zero).
void mul_xor_into_bitsliced(std::uint8_t* d, const std::uint8_t* s,
                            std::size_t n, std::uint8_t c) noexcept {
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    std::uint64_t acc[kLanes], from[kLanes];
    std::memcpy(acc, d + i, kBlock);
    std::memcpy(from, s + i, kBlock);
    mul_xor_block(acc, from, c);
    std::memcpy(d + i, acc, kBlock);
  }
  if (i < n) {
    std::uint64_t acc[kLanes] = {}, from[kLanes] = {};
    std::memcpy(acc, d + i, n - i);
    std::memcpy(from, s + i, n - i);
    mul_xor_block(acc, from, c);
    std::memcpy(d + i, acc, n - i);
  }
}

void mul_in_place_bitsliced(std::uint8_t* d, std::size_t n,
                            std::uint8_t c) noexcept {
  if (c == 0) {
    std::memset(d, 0, n);
    return;
  }
  if (c == 1) return;
  if (c == 2) {
    // The Horner-encode step: one bit-sliced doubling pass.
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
      std::uint64_t v[kLanes];
      std::memcpy(v, d + i, kBlock);
      for (std::size_t lane = 0; lane < kLanes; ++lane) v[lane] = mul2(v[lane]);
      std::memcpy(d + i, v, kBlock);
    }
    if (i < n) {
      std::uint64_t v[kLanes] = {};
      std::memcpy(v, d + i, n - i);
      for (std::size_t lane = 0; lane < kLanes; ++lane) v[lane] = mul2(v[lane]);
      std::memcpy(d + i, v, n - i);
    }
    return;
  }
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    std::uint64_t acc[kLanes] = {}, from[kLanes];
    std::memcpy(from, d + i, kBlock);
    mul_xor_block(acc, from, c);
    std::memcpy(d + i, acc, kBlock);
  }
  if (i < n) {
    std::uint64_t acc[kLanes] = {}, from[kLanes] = {};
    std::memcpy(from, d + i, n - i);
    mul_xor_block(acc, from, c);
    std::memcpy(d + i, acc, n - i);
  }
}

#if defined(__x86_64__)

/// c * v for 32 packed bytes: a vpshufb lookup per nibble into c's
/// two table rows, XORed.
__attribute__((target("avx2"))) inline __m256i mul_avx2(
    __m256i v, __m256i lo, __m256i hi) noexcept {
  const __m256i mask = _mm256_set1_epi8(0x0f);
  return _mm256_xor_si256(
      _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask)),
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask)));
}

/// The AVX2 kernels: 32 bytes per step, the tail one byte at a time
/// through the same table rows.
__attribute__((target("avx2"))) void mul_xor_into_avx2(
    std::uint8_t* d, const std::uint8_t* s, std::size_t n,
    std::uint8_t c) noexcept {
  const auto& row = tables().nibble[c];
  const __m256i lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(row[0]));
  const __m256i hi = _mm256_load_si256(reinterpret_cast<const __m256i*>(row[1]));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i from =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i));
    const __m256i acc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                        _mm256_xor_si256(acc, mul_avx2(from, lo, hi)));
  }
  for (; i < n; ++i) d[i] ^= row[0][s[i] & 0x0f] ^ row[1][s[i] >> 4];
}

__attribute__((target("avx2"))) void mul_in_place_avx2(
    std::uint8_t* d, std::size_t n, std::uint8_t c) noexcept {
  const auto& row = tables().nibble[c];
  const __m256i lo = _mm256_load_si256(reinterpret_cast<const __m256i*>(row[0]));
  const __m256i hi = _mm256_load_si256(reinterpret_cast<const __m256i*>(row[1]));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i), mul_avx2(v, lo, hi));
  }
  for (; i < n; ++i) d[i] = row[0][d[i] & 0x0f] ^ row[1][d[i] >> 4];
}

#endif  // __x86_64__

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp[static_cast<std::uint32_t>(t.log[a]) + t.log[b]];
}

std::uint8_t exp_alpha(std::uint32_t i) noexcept {
  return tables().exp[i % 255];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) throw std::invalid_argument("gf8::inv: inverse of zero");
  return tables().inverse[a];
}

void mul_xor_into(std::span<std::uint8_t> dst,
                  std::span<const std::uint8_t> src, std::uint8_t c) {
  check_same_size(dst.size(), src.size(), "gf8::mul_xor_into");
  if (c == 0) return;
#if defined(__x86_64__)
  if (core::detail::has_avx2())
    return mul_xor_into_avx2(dst.data(), src.data(), dst.size(), c);
#endif
  mul_xor_into_bitsliced(dst.data(), src.data(), dst.size(), c);
}

void mul_in_place(std::span<std::uint8_t> dst, std::uint8_t c) {
#if defined(__x86_64__)
  // c == 0 and c == 1 stay a memset and a no-op, with no table pass.
  if (c > 1 && core::detail::has_avx2())
    return mul_in_place_avx2(dst.data(), dst.size(), c);
#endif
  mul_in_place_bitsliced(dst.data(), dst.size(), c);
}

namespace detail {

void mul_xor_into_scalar(std::span<std::uint8_t> dst,
                         std::span<const std::uint8_t> src, std::uint8_t c) {
  check_same_size(dst.size(), src.size(), "gf8::mul_xor_into_scalar");
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] ^= mul(c, s[i]);
}

void mul_in_place_scalar(std::span<std::uint8_t> dst, std::uint8_t c) {
  std::uint8_t* d = dst.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] = mul(c, d[i]);
}

void mul_xor_into_portable(std::span<std::uint8_t> dst,
                           std::span<const std::uint8_t> src,
                           std::uint8_t c) {
  check_same_size(dst.size(), src.size(), "gf8::mul_xor_into_portable");
  if (c != 0) mul_xor_into_bitsliced(dst.data(), src.data(), dst.size(), c);
}

void mul_in_place_portable(std::span<std::uint8_t> dst, std::uint8_t c) {
  mul_in_place_bitsliced(dst.data(), dst.size(), c);
}

}  // namespace detail

}  // namespace pdl::core::gf8
