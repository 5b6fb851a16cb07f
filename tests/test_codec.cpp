// Differential suite for the codec seam's arithmetic:
//
//   1. the run-time-chosen GF(2^8) kernels and the portable bit-sliced
//      ones are pinned byte-exact to the scalar log/exp-table references
//      for every constant on every size class from 1 byte to 8 KiB (and
//      four constants at 64 KiB), including unaligned base addresses and
//      ragged tails;
//   2. both are pinned to the fully independent algebra::GaloisField
//      table arithmetic (the same construction machinery the layout
//      designs use), so the fast path, the slow path, and the abstract
//      field can never drift apart;
//   3. the Reed-Solomon codec round-trips EVERY 1- and 2-erasure pattern
//      of every stripe shape, and its incremental update() and fused
//      update_into() are proved equal to a from-scratch re-encode (and
//      self-inverse).

#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "algebra/gf.hpp"
#include "algebra/polynomial.hpp"
#include "core/gf8.hpp"
#include "core/xor_codec.hpp"

namespace pdl::core {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t size, std::mt19937_64& rng) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// The algebra-layer reference field with the codec's exact modulus
/// x^8 + x^4 + x^3 + x^2 + 1.
const algebra::GaloisField& reference_field() {
  static const algebra::GaloisField field(
      256, algebra::Polynomial(
               2, std::vector<std::uint32_t>{1, 0, 1, 1, 1, 0, 0, 0, 1}));
  return field;
}

TEST(Gf8, MulMatchesAlgebraFieldExhaustively) {
  const auto& field = reference_field();
  for (std::uint32_t a = 0; a < 256; ++a)
    for (std::uint32_t b = 0; b < 256; ++b)
      ASSERT_EQ(gf8::mul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)),
                field.mul(a, b))
          << a << " * " << b;
}

TEST(Gf8, ExpAlphaIsRepeatedDoubling) {
  std::uint8_t power = 1;
  for (std::uint32_t i = 0; i < 600; ++i) {  // past a full period twice
    ASSERT_EQ(gf8::exp_alpha(i), power) << "alpha^" << i;
    power = gf8::mul(power, gf8::kAlpha);
  }
}

TEST(Gf8, AlphaHasFullMultiplicativeOrder) {
  // 255 distinct nonzero powers -- the coefficient-distinctness bound
  // that makes the two-erasure decode denominators invertible.
  std::vector<bool> seen(256, false);
  for (std::uint32_t i = 0; i < 255; ++i) {
    const std::uint8_t p = gf8::exp_alpha(i);
    ASSERT_NE(p, 0u);
    ASSERT_FALSE(seen[p]) << "alpha^" << i << " repeats";
    seen[p] = true;
  }
}

TEST(Gf8, InverseRoundTripsAndRejectsZero) {
  for (std::uint32_t a = 1; a < 256; ++a)
    ASSERT_EQ(gf8::mul(static_cast<std::uint8_t>(a),
                       gf8::inv(static_cast<std::uint8_t>(a))),
              1u)
        << a;
  EXPECT_THROW((void)gf8::inv(0), std::invalid_argument);
}

/// Sizes spanning the kernels' shape boundaries: sub-block, the AVX2
/// kernel's 32-byte step +/- 1, exactly one 64-byte block, block +/- 1,
/// multi-block, and a 64 KiB unit.
const std::size_t kSizes[] = {1,   2,   3,    7,    16,   31,   32,   33,   63,
                              64,  65,  100,  192,  1000, 4096, 8191, 65536};

/// Every constant on sizes up to 8,191 -- the AVX2 kernel reads one table
/// row per constant, so a wrong row must fail -- and 0, 1, 2 plus one
/// random constant on the 64 KiB size.
std::vector<std::uint8_t> constants_for(std::size_t size,
                                        std::mt19937_64& rng) {
  if (size > 8191) return {0, 1, 2, static_cast<std::uint8_t>(rng() | 4)};
  std::vector<std::uint8_t> constants(256);
  for (std::size_t c = 0; c < 256; ++c)
    constants[c] = static_cast<std::uint8_t>(c);
  return constants;
}

TEST(Gf8, MulXorIntoMatchesScalarOnEverySizeAndAlignment) {
  // The run-time-chosen kernel and the portable kernel, side by side.
  std::mt19937_64 rng(0xC0DEC);
  for (const std::size_t size : kSizes) {
    for (const std::size_t offset : {0u, 1u, 3u}) {
      // Carve deliberately misaligned windows out of larger buffers.
      auto dst_backing = random_bytes(size + offset, rng);
      auto src_backing = random_bytes(size + offset, rng);
      auto portable_backing = dst_backing;
      auto dst_ref = dst_backing;
      const std::span<std::uint8_t> dst{dst_backing.data() + offset, size};
      const std::span<std::uint8_t> portable{
          portable_backing.data() + offset, size};
      const std::span<std::uint8_t> ref{dst_ref.data() + offset, size};
      const std::span<const std::uint8_t> src{src_backing.data() + offset,
                                              size};
      for (const std::uint8_t c : constants_for(size, rng)) {
        gf8::mul_xor_into(dst, src, c);
        gf8::detail::mul_xor_into_portable(portable, src, c);
        gf8::detail::mul_xor_into_scalar(ref, src, c);
        ASSERT_EQ(dst_backing, dst_ref)
            << "size " << size << " offset " << offset << " c " << int(c);
        ASSERT_EQ(portable_backing, dst_ref)
            << "portable size " << size << " offset " << offset << " c "
            << int(c);
      }
    }
  }
}

TEST(Gf8, MulInPlaceMatchesScalarOnEverySizeAndAlignment) {
  // Each constant multiplies a fresh copy of the same random bytes (a
  // chain would turn to zeros at c == 0 and test nothing after it).
  std::mt19937_64 rng(0xFACE);
  for (const std::size_t size : kSizes) {
    for (const std::size_t offset : {0u, 1u, 3u}) {
      const auto original = random_bytes(size + offset, rng);
      for (const std::uint8_t c : constants_for(size, rng)) {
        auto backing = original;
        auto portable_backing = original;
        auto ref_backing = original;
        gf8::mul_in_place({backing.data() + offset, size}, c);
        gf8::detail::mul_in_place_portable(
            {portable_backing.data() + offset, size}, c);
        gf8::detail::mul_in_place_scalar({ref_backing.data() + offset, size},
                                         c);
        ASSERT_EQ(backing, ref_backing)
            << "size " << size << " offset " << offset << " c " << int(c);
        ASSERT_EQ(portable_backing, ref_backing)
            << "portable size " << size << " offset " << offset << " c "
            << int(c);
      }
    }
  }
}

TEST(Gf8, VectorKernelMatchesAlgebraFieldBytewise) {
  // Close the triangle: vectorized kernel vs the abstract field (the
  // scalar reference was the bridge above).
  const auto& field = reference_field();
  std::mt19937_64 rng(0xF1E1D);
  const std::size_t size = 777;
  const auto src = random_bytes(size, rng);
  auto dst = random_bytes(size, rng);
  const auto dst_before = dst;
  const std::uint8_t c = 0x8E;
  gf8::mul_xor_into(dst, src, c);
  for (std::size_t i = 0; i < size; ++i)
    ASSERT_EQ(dst[i], dst_before[i] ^ field.mul(c, src[i])) << "byte " << i;
}

// ----------------------------------------------------------- RS codec

/// Encodes kd random data units, erases every pattern of the given size,
/// reconstructs, and checks byte identity for all erased units.
void round_trip_all_erasures(std::uint32_t kd, std::size_t unit,
                             std::uint32_t erasures, std::mt19937_64& rng) {
  const Codec& rs = rs_codec();
  const std::uint32_t total = kd + 2;
  std::vector<std::vector<std::uint8_t>> units;
  for (std::uint32_t i = 0; i < kd; ++i)
    units.push_back(random_bytes(unit, rng));
  units.emplace_back(unit);  // P
  units.emplace_back(unit);  // Q
  {
    std::vector<std::span<const std::uint8_t>> data;
    for (std::uint32_t i = 0; i < kd; ++i) data.emplace_back(units[i]);
    const std::span<std::uint8_t> parity[2] = {units[kd], units[kd + 1]};
    rs.encode({data.data(), kd}, parity);
  }

  std::vector<std::uint32_t> erased;
  const auto check_pattern = [&] {
    std::vector<std::span<const std::uint8_t>> survivors;
    std::vector<std::uint32_t> survivor_index;
    for (std::uint32_t i = 0; i < total; ++i) {
      if (std::find(erased.begin(), erased.end(), i) != erased.end())
        continue;
      survivors.emplace_back(units[i]);
      survivor_index.push_back(i);
    }
    std::vector<std::vector<std::uint8_t>> decoded(erased.size(),
                                                   std::vector<std::uint8_t>(
                                                       unit));
    std::vector<std::span<std::uint8_t>> outs;
    for (auto& d : decoded) outs.emplace_back(d);
    rs.reconstruct(kd, {survivors.data(), survivors.size()},
                   survivor_index, erased, {outs.data(), outs.size()});
    for (std::size_t e = 0; e < erased.size(); ++e)
      ASSERT_EQ(decoded[e], units[erased[e]])
          << "kd " << kd << " unit " << unit << " erased[" << e << "] = "
          << erased[e];
  };

  if (erasures == 1) {
    for (std::uint32_t x = 0; x < total; ++x) {
      erased = {x};
      check_pattern();
    }
  } else {
    for (std::uint32_t x = 0; x < total; ++x)
      for (std::uint32_t y = 0; y < total; ++y) {
        if (x == y) continue;
        erased = {x, y};  // both orders exercised
        check_pattern();
      }
  }
}

TEST(RsCodec, RoundTripsEverySingleAndDoubleErasurePattern) {
  std::mt19937_64 rng(0x5EED);
  for (const std::uint32_t kd : {1u, 2u, 3u, 5u, 8u, 13u}) {
    for (const std::size_t unit : {1u, 13u, 64u, 257u}) {
      round_trip_all_erasures(kd, unit, 1, rng);
      round_trip_all_erasures(kd, unit, 2, rng);
    }
  }
}

TEST(RsCodec, UpdateEqualsReEncodeAndIsSelfInverse) {
  std::mt19937_64 rng(0xABBA);
  const Codec& rs = rs_codec();
  const std::uint32_t kd = 9;
  const std::size_t unit = 130;
  std::vector<std::vector<std::uint8_t>> data;
  for (std::uint32_t i = 0; i < kd; ++i) data.push_back(random_bytes(unit, rng));
  std::vector<std::span<const std::uint8_t>> data_spans;
  for (auto& d : data) data_spans.emplace_back(d);
  std::vector<std::uint8_t> p(unit), q(unit);
  {
    const std::span<std::uint8_t> parity[2] = {p, q};
    rs.encode({data_spans.data(), kd}, parity);
  }
  const auto p_before = p, q_before = q;

  for (std::uint32_t target = 0; target < kd; ++target) {
    const auto fresh = random_bytes(unit, rng);
    std::vector<std::uint8_t> delta(unit);
    for (std::size_t i = 0; i < unit; ++i) delta[i] = data[target][i] ^ fresh[i];

    // The fused form (the store's RMW) reads both old units directly...
    std::vector<std::uint8_t> p_fused(unit), q_fused(unit);
    rs.update_into(p_fused, p, 0, target, data[target], fresh);
    rs.update_into(q_fused, q, 1, target, data[target], fresh);
    // ...and fused again with the same pair, it restores the old parity.
    std::vector<std::uint8_t> p_undo(unit), q_undo(unit);
    rs.update_into(p_undo, p_fused, 0, target, data[target], fresh);
    rs.update_into(q_undo, q_fused, 1, target, data[target], fresh);
    EXPECT_EQ(p_undo, p) << "target " << target;
    EXPECT_EQ(q_undo, q) << "target " << target;

    // Incremental fold on both parities...
    rs.update(p, 0, target, delta);
    rs.update(q, 1, target, delta);
    EXPECT_EQ(p_fused, p) << "target " << target;
    EXPECT_EQ(q_fused, q) << "target " << target;

    // ...must equal the from-scratch encode of the mutated data set.
    const auto old_unit = data[target];
    data[target] = fresh;
    data_spans[target] = data[target];
    std::vector<std::uint8_t> p_full(unit), q_full(unit);
    {
      const std::span<std::uint8_t> parity[2] = {p_full, q_full};
      rs.encode({data_spans.data(), kd}, parity);
    }
    EXPECT_EQ(p, p_full) << "target " << target;
    EXPECT_EQ(q, q_full) << "target " << target;

    // Re-applying the identical fold restores the previous parity
    // (characteristic 2: the fold is an involution).
    rs.update(p, 0, target, delta);
    rs.update(q, 1, target, delta);
    data[target] = old_unit;
    data_spans[target] = data[target];
    std::vector<std::uint8_t> p_back(unit), q_back(unit);
    {
      const std::span<std::uint8_t> parity[2] = {p_back, q_back};
      rs.encode({data_spans.data(), kd}, parity);
    }
    EXPECT_EQ(p, p_back) << "target " << target;
    EXPECT_EQ(q, q_back) << "target " << target;
  }
  EXPECT_EQ(p, p_before);
  EXPECT_EQ(q, q_before);
}

TEST(RsCodec, UnmaterializedOutputsAreSkippedButDependentsDecode) {
  // out[0] empty, out[1] wanted: the store's "decode only what I need"
  // calling convention.
  std::mt19937_64 rng(0x0FF);
  const Codec& rs = rs_codec();
  const std::uint32_t kd = 4;
  const std::size_t unit = 96;
  std::vector<std::vector<std::uint8_t>> units;
  for (std::uint32_t i = 0; i < kd; ++i) units.push_back(random_bytes(unit, rng));
  units.emplace_back(unit);
  units.emplace_back(unit);
  std::vector<std::span<const std::uint8_t>> data;
  for (std::uint32_t i = 0; i < kd; ++i) data.emplace_back(units[i]);
  {
    const std::span<std::uint8_t> parity[2] = {units[kd], units[kd + 1]};
    rs.encode({data.data(), kd}, parity);
  }
  const std::uint32_t erased[2] = {1, 3};
  std::vector<std::span<const std::uint8_t>> survivors;
  std::vector<std::uint32_t> survivor_index;
  for (std::uint32_t i = 0; i < kd + 2; ++i) {
    if (i == 1 || i == 3) continue;
    survivors.emplace_back(units[i]);
    survivor_index.push_back(i);
  }
  std::vector<std::uint8_t> wanted(unit);
  const std::span<std::uint8_t> outs[2] = {{}, wanted};
  rs.reconstruct(kd, {survivors.data(), survivors.size()}, survivor_index,
                 erased, outs);
  EXPECT_EQ(wanted, units[3]);
}

// ----------------------------------------------------- seam invariants

TEST(Codec, RegistryAndDeclaredShapes) {
  EXPECT_EQ(xor_codec().kind(), CodecKind::kXorParity);
  EXPECT_EQ(xor_codec().name(), "xor");
  EXPECT_EQ(xor_codec().num_parity(), 1u);
  EXPECT_EQ(xor_codec().fault_tolerance(), 1u);
  EXPECT_EQ(rs_codec().kind(), CodecKind::kReedSolomonPQ);
  EXPECT_EQ(rs_codec().name(), "rs");
  EXPECT_EQ(rs_codec().num_parity(), 2u);
  EXPECT_EQ(rs_codec().fault_tolerance(), 2u);
  EXPECT_EQ(&codec_for(CodecKind::kXorParity), &xor_codec());
  EXPECT_EQ(&codec_for(CodecKind::kReedSolomonPQ), &rs_codec());
  EXPECT_EQ(codec_kind_name(CodecKind::kXorParity), "xor");
  EXPECT_EQ(codec_kind_name(CodecKind::kReedSolomonPQ), "rs");
}

TEST(Codec, XorSingletonMatchesRawKernels) {
  std::mt19937_64 rng(0x77);
  const Codec& codec = xor_codec();
  const std::size_t unit = 80;
  std::vector<std::vector<std::uint8_t>> data;
  for (int i = 0; i < 5; ++i) data.push_back(random_bytes(unit, rng));
  std::vector<std::span<const std::uint8_t>> spans;
  for (auto& d : data) spans.emplace_back(d);

  std::vector<std::uint8_t> parity(unit);
  const std::span<std::uint8_t> parity_spans[1] = {parity};
  codec.encode({spans.data(), spans.size()}, parity_spans);
  std::vector<std::uint8_t> expected(unit);
  xor_parity_into(expected, {spans.data(), spans.size()});
  EXPECT_EQ(parity, expected);

  // Single-erasure reconstruct == xor of the rest.
  std::vector<std::span<const std::uint8_t>> survivors = {
      data[0], data[1], data[3], data[4], parity};
  const std::uint32_t survivor_index[] = {0, 1, 3, 4, 5};
  const std::uint32_t erased[] = {2};
  std::vector<std::uint8_t> rebuilt(unit);
  const std::span<std::uint8_t> outs[1] = {rebuilt};
  codec.reconstruct(5, {survivors.data(), survivors.size()}, survivor_index,
                    erased, outs);
  EXPECT_EQ(rebuilt, data[2]);

  // Fused RMW update == the scalar fold parity ^ old ^ new, which is the
  // parity of the mutated data set.
  const auto fresh = random_bytes(unit, rng);
  std::vector<std::uint8_t> fused(unit);
  codec.update_into(fused, parity, 0, 2, data[2], fresh);
  std::vector<std::uint8_t> folded = parity;
  detail::xor_into_scalar(folded, data[2]);
  detail::xor_into_scalar(folded, fresh);
  EXPECT_EQ(fused, folded);
  spans[2] = fresh;
  xor_parity_into(expected, {spans.data(), spans.size()});
  EXPECT_EQ(fused, expected);
}

TEST(Codec, ZeroDataStripesReconstructConstantZeroParity) {
  // Disk-removal constructions can leave short stripes whose every
  // content unit is sparing or parity: zero data units.  Their parities
  // encode nothing (constant 0) and must still be rebuildable.
  std::vector<std::uint8_t> q(16, 0xFF), out_buf(16, 0xFF);
  const std::span<const std::uint8_t> survivors[] = {q};
  const std::uint32_t survivor_index[] = {1};  // Q survives
  const std::uint32_t erased[] = {0};          // P erased
  const std::span<std::uint8_t> outs[1] = {out_buf};
  rs_codec().reconstruct(0, survivors, survivor_index, erased, outs);
  EXPECT_EQ(out_buf, std::vector<std::uint8_t>(16, 0x00));

  std::fill(out_buf.begin(), out_buf.end(), 0xFF);
  const std::span<std::uint8_t> xor_outs[1] = {out_buf};
  codec_for(CodecKind::kXorParity)
      .reconstruct(0, {}, {}, erased, xor_outs);
  EXPECT_EQ(out_buf, std::vector<std::uint8_t>(16, 0x00));
}

TEST(Codec, ReconstructValidatesItsContract) {
  const Codec& rs = rs_codec();
  std::vector<std::uint8_t> a(8), b(8), out_buf(8);
  const std::span<const std::uint8_t> survivors[] = {a, b};
  const std::uint32_t survivor_index[] = {0, 1};
  const std::uint32_t three_erased[] = {2, 3, 4};
  const std::span<std::uint8_t> outs3[3] = {out_buf, {}, {}};
  // Three erasures exceed m = 2.
  EXPECT_THROW(rs.reconstruct(3, survivors, survivor_index, three_erased,
                              outs3),
               std::invalid_argument);
  // Survivors + erasures must tile the stripe exactly.
  const std::uint32_t one_erased[] = {2};
  const std::span<std::uint8_t> outs1[1] = {out_buf};
  EXPECT_THROW(rs.reconstruct(5, survivors, survivor_index, one_erased,
                              outs1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pdl::core
