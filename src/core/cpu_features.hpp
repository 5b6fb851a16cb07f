#pragma once
/// @file
/// The CPU check behind the kernels chosen at run time (core::gf8 and
/// core::xor_codec).  Internal to the library's kernels; not part of the
/// supported API surface.

namespace pdl::core::detail {

#if defined(__x86_64__)
/// True when the running CPU supports AVX2, decided once, at first call.
inline bool has_avx2() noexcept {
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
}
#endif

}  // namespace pdl::core::detail
