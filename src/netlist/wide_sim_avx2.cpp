// 256- and 512-lane AVX2 kernels for WideLaneSimulator.
//
// Compiled with -mavx2 (see netlist/CMakeLists.txt); nothing here runs
// before the cpuid gate in the WideLaneSimulator constructor.  This TU
// instantiates only its own engine types, WideSimImpl<Avx2Word> and
// WideSimImpl<Avx2PairWord>, both over internal-linkage word types, so no
// AVX2-compiled symbol can be COMDAT-merged into baseline code paths.
#include "netlist/wide_sim_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace rcarb::netlist::detail {
namespace {

struct Avx2Word {
  static constexpr std::size_t kWords = 4;
  __m256i v;

  static Avx2Word zero() { return {_mm256_setzero_si256()}; }
  static Avx2Word ones() { return {_mm256_set1_epi64x(-1)}; }
  static Avx2Word broadcast(std::uint64_t x) {
    return {_mm256_set1_epi64x(static_cast<long long>(x))};
  }
  static Avx2Word load(const std::uint64_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void store(Avx2Word w, std::uint64_t* p) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), w.v);
  }
  /// (t0 & ~sel) | (t1 & sel): andnot folds the negation into one op.
  static Avx2Word mux(Avx2Word t0, Avx2Word t1, Avx2Word s) {
    return {_mm256_or_si256(_mm256_andnot_si256(s.v, t0.v),
                            _mm256_and_si256(t1.v, s.v))};
  }
  static bool equal(Avx2Word a, Avx2Word b) {
    const __m256i diff = _mm256_xor_si256(a.v, b.v);
    return _mm256_testz_si256(diff, diff) != 0;
  }
};

/// 512 lanes as two 256-bit halves: an AVX2 host runs the default replica
/// width on vector ops instead of the portable kernel.
struct Avx2PairWord {
  static constexpr std::size_t kWords = 8;
  Avx2Word lo;
  Avx2Word hi;

  static Avx2PairWord zero() { return {Avx2Word::zero(), Avx2Word::zero()}; }
  static Avx2PairWord ones() { return {Avx2Word::ones(), Avx2Word::ones()}; }
  static Avx2PairWord broadcast(std::uint64_t x) {
    return {Avx2Word::broadcast(x), Avx2Word::broadcast(x)};
  }
  static Avx2PairWord load(const std::uint64_t* p) {
    return {Avx2Word::load(p), Avx2Word::load(p + Avx2Word::kWords)};
  }
  static void store(Avx2PairWord w, std::uint64_t* p) {
    Avx2Word::store(w.lo, p);
    Avx2Word::store(w.hi, p + Avx2Word::kWords);
  }
  static Avx2PairWord mux(Avx2PairWord t0, Avx2PairWord t1, Avx2PairWord s) {
    return {Avx2Word::mux(t0.lo, t1.lo, s.lo),
            Avx2Word::mux(t0.hi, t1.hi, s.hi)};
  }
  static bool equal(Avx2PairWord a, Avx2PairWord b) {
    const __m256i diff = _mm256_or_si256(_mm256_xor_si256(a.lo.v, b.lo.v),
                                         _mm256_xor_si256(a.hi.v, b.hi.v));
    return _mm256_testz_si256(diff, diff) != 0;
  }
};

}  // namespace

std::unique_ptr<WideSimBase> make_wide_sim_avx2(const Netlist& nl,
                                                std::size_t lanes) {
  if (lanes == Avx2Word::kWords * 64)
    return std::make_unique<WideSimImpl<Avx2Word>>(nl, lanes);
  if (lanes == Avx2PairWord::kWords * 64)
    return std::make_unique<WideSimImpl<Avx2PairWord>>(nl, lanes);
  return nullptr;
}

}  // namespace rcarb::netlist::detail

#else  // compiler lacked -mavx2 support for this TU

namespace rcarb::netlist::detail {

std::unique_ptr<WideSimBase> make_wide_sim_avx2(const Netlist&, std::size_t) {
  return nullptr;
}

}  // namespace rcarb::netlist::detail

#endif
