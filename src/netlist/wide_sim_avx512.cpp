// 512-lane AVX-512F kernel for WideLaneSimulator.
//
// Compiled with -mavx512f (see netlist/CMakeLists.txt); nothing here runs
// before the cpuid gate in the WideLaneSimulator constructor.  This TU
// instantiates exactly one engine type, WideSimImpl<Avx512Word>, so no
// AVX-512-compiled symbol can be COMDAT-merged into baseline code paths.
#include "netlist/wide_sim_impl.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace rcarb::netlist::detail {
namespace {

struct Avx512Word {
  static constexpr std::size_t kWords = 8;
  __m512i v;

  static Avx512Word zero() { return {_mm512_setzero_si512()}; }
  static Avx512Word ones() { return {_mm512_set1_epi64(-1)}; }
  static Avx512Word broadcast(std::uint64_t x) {
    return {_mm512_set1_epi64(static_cast<long long>(x))};
  }
  static Avx512Word load(const std::uint64_t* p) {
    return {_mm512_loadu_si512(p)};
  }
  static void store(Avx512Word w, std::uint64_t* p) {
    _mm512_storeu_si512(p, w.v);
  }
  /// (t0 & ~sel) | (t1 & sel) is a single ternary-logic op: truth table
  /// over (A=t0, B=t1, C=sel) sets imm8 bits {3,4,6,7} = 0xD8.
  static Avx512Word mux(Avx512Word t0, Avx512Word t1, Avx512Word s) {
    return {_mm512_ternarylogic_epi64(t0.v, t1.v, s.v, 0xD8)};
  }
  static bool equal(Avx512Word a, Avx512Word b) {
    return _mm512_cmpneq_epu64_mask(a.v, b.v) == 0;
  }
};

}  // namespace

std::unique_ptr<WideSimBase> make_wide_sim_avx512(const Netlist& nl,
                                                  std::size_t lanes) {
  if (lanes != Avx512Word::kWords * 64) return nullptr;
  return std::make_unique<WideSimImpl<Avx512Word>>(nl, lanes);
}

}  // namespace rcarb::netlist::detail

#else  // compiler lacked -mavx512f support for this TU

namespace rcarb::netlist::detail {

std::unique_ptr<WideSimBase> make_wide_sim_avx512(const Netlist&,
                                                  std::size_t) {
  return nullptr;
}

}  // namespace rcarb::netlist::detail

#endif
