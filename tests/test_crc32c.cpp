// Known-answer and differential suite for core::crc32c.
//
// The checksums are a persisted format (the integrity layer's per-unit
// CRC words, the FileBackend journal's record CRC), so every kernel is
// pinned to the RFC 3720 test vectors and the standard check value.
// Each kernel the running CPU supports (detail::crc32c_kernels) and the
// dispatched core::crc32c run the same cases: a bitwise loop written
// here is proved equal on every size up to 2,400 bytes, around 4 KiB
// and at 1 MiB + 3, at eight base offsets -- crossing every edge of the
// three-stream kernel's 3 x 256-byte blocks and of the 512-bit fold's
// 256-byte steps -- and a seeded continuation is proved equal to the
// one-shot CRC at every split.  A kernel the CPU lacks is skipped, with
// the reason.

#include "core/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pdl::core {
namespace {

/// A kernel under test, by the name detail::crc32c_kernels gives it, or
/// "dispatched" for core::crc32c itself.
struct KernelCase {
  const char* name;
  const char* needs;  ///< the CPU features it needs, if any
};
const KernelCase kCases[] = {{"dispatched", nullptr},
                            {"vpclmul512", "AVX-512F and VPCLMULQDQ"},
                            {"sse42", "SSE4.2"},
                            {"portable", nullptr}};

/// Bit-at-a-time CRC32C: the definition, with no table or instruction to
/// share a mistake with.
std::uint32_t crc32c_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::mt19937_64& rng) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// The sweep: every size up to 2,400, then the fold's edges (one
/// 256-byte step, two, a 4 KiB unit, and 1 MiB with a 3-byte tail).
std::vector<std::size_t> sweep_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t size = 0; size <= 2400; ++size) sizes.push_back(size);
  for (const std::size_t edge :
       {255u, 256u, 257u, 511u, 512u, 513u, 4095u, 4096u, 4097u})
    sizes.push_back(edge);
  sizes.push_back((std::size_t{1} << 20) + 3);
  return sizes;
}

constexpr std::size_t kOffsets = 8;

/// The sweep's bytes and the bitwise CRC of every (size, offset) in it,
/// computed once for all kernels.
struct Sweep {
  std::vector<std::size_t> sizes = sweep_sizes();
  std::vector<std::uint8_t> backing;
  std::vector<std::uint32_t> expected;  ///< [size index * kOffsets + offset]

  Sweep() {
    std::mt19937_64 rng(0x3C0DE);
    backing = random_bytes((std::size_t{1} << 20) + 3 + kOffsets, rng);
    for (const std::size_t size : sizes)
      for (std::size_t offset = 0; offset < kOffsets; ++offset)
        expected.push_back(crc32c_bitwise(data(size, offset)));
  }

  [[nodiscard]] std::span<const std::uint8_t> data(std::size_t size,
                                                   std::size_t offset) const {
    return {backing.data() + offset, size};
  }
};

const Sweep& sweep() {
  static const Sweep instance;
  return instance;
}

class Crc32cKernel : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    const KernelCase& c = GetParam();
    if (std::strcmp(c.name, "dispatched") == 0) {
      crc_ = &crc32c;
      return;
    }
    for (const detail::Crc32cKernel& k : detail::crc32c_kernels())
      if (std::strcmp(k.name, c.name) == 0) crc_ = k.crc;
    if (crc_ == nullptr) {
      ASSERT_NE(c.needs, nullptr) << c.name << " must run on every CPU";
      GTEST_SKIP() << c.name << " needs " << c.needs
                   << ", which this CPU does not report";
    }
  }

  detail::Crc32c crc_ = nullptr;
};

TEST_P(Crc32cKernel, Rfc3720Vectors) {
  // RFC 3720 section B.4: 32-byte iSCSI test vectors.
  std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xFF), up(32), down(32);
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<std::uint8_t>(i);
    down[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc_(zeros, 0), 0x8A9136AAu);
  EXPECT_EQ(crc_(ones, 0), 0x62A8AB43u);
  EXPECT_EQ(crc_(up, 0), 0x46DD794Eu);
  EXPECT_EQ(crc_(down, 0), 0x113FDB5Cu);
}

TEST_P(Crc32cKernel, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(kCheck.data()), kCheck.size()};
  EXPECT_EQ(crc32c_bitwise(bytes), 0xE3069283u);
  EXPECT_EQ(crc_(bytes, 0), 0xE3069283u);
  EXPECT_EQ(crc_({}, 0), 0u);
}

TEST_P(Crc32cKernel, SeededContinuationEqualsOneShotAtEverySplit) {
  std::mt19937_64 rng(0xC4C32C);
  const auto buffer = random_bytes(1000, rng);
  const std::span<const std::uint8_t> all{buffer};
  const std::uint32_t one_shot = crc_(all, 0);
  ASSERT_EQ(one_shot, crc32c_bitwise(all));
  for (std::size_t split = 0; split <= all.size(); ++split)
    ASSERT_EQ(crc_(all.subspan(split), crc_(all.first(split), 0)), one_shot)
        << "split " << split;
}

TEST_P(Crc32cKernel, AgreesWithBitwiseOnEverySizeAndOffset) {
  const Sweep& s = sweep();
  for (std::size_t i = 0; i < s.sizes.size(); ++i)
    for (std::size_t offset = 0; offset < kOffsets; ++offset)
      ASSERT_EQ(crc_(s.data(s.sizes[i], offset), 0),
                s.expected[i * kOffsets + offset])
          << "size " << s.sizes[i] << " offset " << offset;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32cKernel, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(info.param.name);
    });

TEST(Crc32c, KernelListFollowsTheCpu) {
  // core::crc32c runs the front kernel, so the list's order is the
  // dispatch rule: the fold where the CPU reports AVX-512F and
  // VPCLMULQDQ, then SSE4.2, then the portable kernel.
  std::vector<std::string> expected;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("vpclmulqdq"))
      expected.push_back("vpclmul512");
    expected.push_back("sse42");
  }
#endif
  expected.push_back("portable");
  std::vector<std::string> listed;
  for (const detail::Crc32cKernel& k : detail::crc32c_kernels())
    listed.push_back(k.name);
  EXPECT_EQ(listed, expected);

  const Sweep& s = sweep();
  const detail::Crc32c front = detail::crc32c_kernels().front().crc;
  for (const std::size_t size : {0u, 7u, 256u, 4096u})
    EXPECT_EQ(crc32c(s.data(size, 1)), front(s.data(size, 1), 0))
        << "size " << size;
}

}  // namespace
}  // namespace pdl::core
