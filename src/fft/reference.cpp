#include "fft/reference.hpp"

namespace rcarb::fft {

std::array<Complex64, 4> dft4(const std::array<std::int64_t, 4>& x) {
  // W4 = e^{-j*pi/2} = -j; the four twiddles are 1, -j, -1, j.
  std::array<Complex64, 4> out;
  out[0] = {x[0] + x[1] + x[2] + x[3], 0};
  out[1] = {x[0] - x[2], x[3] - x[1]};
  out[2] = {x[0] - x[1] + x[2] - x[3], 0};
  out[3] = {x[0] - x[2], x[1] - x[3]};
  return out;
}

std::array<Complex64, 4> dft4(const std::array<Complex64, 4>& x) {
  std::array<Complex64, 4> out;
  out[0] = {x[0].re + x[1].re + x[2].re + x[3].re,
            x[0].im + x[1].im + x[2].im + x[3].im};
  // -j * (a + jb) = b - ja ; j * (a + jb) = -b + ja
  out[1] = {x[0].re + x[1].im - x[2].re - x[3].im,
            x[0].im - x[1].re - x[2].im + x[3].re};
  out[2] = {x[0].re - x[1].re + x[2].re - x[3].re,
            x[0].im - x[1].im + x[2].im - x[3].im};
  out[3] = {x[0].re - x[1].im - x[2].re + x[3].im,
            x[0].im + x[1].re - x[2].im - x[3].re};
  return out;
}

BlockSpectrum fft2d_4x4(const Block& block) {
  // First dimension: one DFT per row.
  std::array<std::array<Complex64, 4>, 4> rows;
  for (std::size_t r = 0; r < 4; ++r) {
    const auto& px = block[r];
    rows[r] = dft4(std::array<std::int64_t, 4>{px[0], px[1], px[2], px[3]});
  }
  // Second dimension: one DFT per column of the row results.
  BlockSpectrum out;
  for (std::size_t c = 0; c < 4; ++c) {
    std::array<Complex64, 4> column;
    for (std::size_t r = 0; r < 4; ++r) column[r] = rows[r][c];
    out[c] = dft4(column);
  }
  return out;
}

SwOpCounts sw_op_counts_per_block() {
  // Naive 2-D DFT: 2 dimensions x 4 transforms x 4 outputs, each output
  // accumulating 4 terms.  Per term: sin()+cos() to form the twiddle, a
  // complex multiply (4 fmul + 2 fadd) and a complex accumulate (2 fadd),
  // plus the complex input load.  Per output: one complex store.
  constexpr std::size_t kOutputs = 2 * 4 * 4;
  constexpr std::size_t kTerms = kOutputs * 4;
  SwOpCounts counts;
  counts.trig_calls = 2 * kTerms;
  counts.fmuls = 4 * kTerms;
  counts.fadds = 4 * kTerms;
  counts.loads = 2 * kTerms;
  counts.stores = 2 * kOutputs;
  counts.loop_iters = kOutputs + kTerms + 8;
  return counts;
}

}  // namespace rcarb::fft
