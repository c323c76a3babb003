// Reference 4x4 2-D FFT (paper Sec. 5's application).
//
// A 4-point DFT has twiddle factors {1, -j, -1, j} only, so the transform
// of integer data is exact integer arithmetic — which makes it an ideal
// functional oracle for the cycle simulator: the hardware task programs
// must reproduce these values bit-for-bit.
#pragma once

#include <array>
#include <cstdint>

namespace rcarb::fft {

struct Complex64 {
  std::int64_t re = 0;
  std::int64_t im = 0;
  friend bool operator==(const Complex64&, const Complex64&) = default;
};

/// 4-point DFT of a real sequence: X_k = sum_n x_n e^{-2*pi*j*n*k/4}.
[[nodiscard]] std::array<Complex64, 4> dft4(
    const std::array<std::int64_t, 4>& x);

/// 4-point DFT of a complex sequence.
[[nodiscard]] std::array<Complex64, 4> dft4(
    const std::array<Complex64, 4>& x);

/// One input sample.  The paper's image is 8-bit; 16 bits leave headroom
/// and keep a 512x512 image of blocks at 0.5 MB instead of 2 MB.
using Pixel = std::int16_t;

/// A 4x4 pixel block, row-major: block[row][col].
using Block = std::array<std::array<Pixel, 4>, 4>;

/// The full 2-D transform: row DFTs then column DFTs.  out[col][k] is the
/// k-th output of the column-`col` DFT over the row-DFT results.
using BlockSpectrum = std::array<std::array<Complex64, 4>, 4>;
[[nodiscard]] BlockSpectrum fft2d_4x4(const Block& block);

/// Static operation counts of the *naive textbook DFT* a 1999 C reference
/// would use for one block — per output term the twiddle is recomputed with
/// libm sin()/cos() calls (used by the Pentium-class cost model; the
/// optimized integer form above is the functional oracle, not the baseline).
struct SwOpCounts {
  std::size_t trig_calls = 0;  // sin()/cos() library calls
  std::size_t fmuls = 0;       // double multiplies
  std::size_t fadds = 0;       // double add/sub (incl. accumulation)
  std::size_t loads = 0;       // memory reads
  std::size_t stores = 0;      // memory writes
  std::size_t loop_iters = 0;  // loop-control iterations
};
[[nodiscard]] SwOpCounts sw_op_counts_per_block();

}  // namespace rcarb::fft
