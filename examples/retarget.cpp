// Retargeting: the paper's core promise is that "without any modifications
// to the input taskgraph, FFT can be synthesized for different
// architectures using the same set of partitioning/synthesis tools".  This
// example runs the identical FFT taskgraph through the automatic flow on
// three boards and prints what changes — partitions, arbiters, cycles —
// while the design source stays untouched and the output stays bit-exact.
//
//   $ ./retarget
#include <cstdio>

#include "board/board.hpp"
#include "fft/fft_design.hpp"
#include "flow/sparcs_flow.hpp"

int main() {
  using namespace rcarb;

  const fft::FftDesign design = fft::build_fft_design();

  fft::Block block{};
  int v = 1;
  for (auto& row : block)
    for (auto& px : row) px = static_cast<fft::Pixel>((v++ * 13) % 41 - 20);
  const fft::BlockSpectrum want = fft::fft2d_4x4(block);

  for (const board::Board& board :
       {board::wildforce(), board::mesh8()}) {
    flow::FlowOptions options;
    for (std::size_t r = 0; r < 4; ++r)
      options.preload.emplace_back(
          design.mi[r],
          std::vector<std::int64_t>(block[r].begin(), block[r].end()));

    const flow::FlowReport report = run_flow(design.graph, board, options);

    bool exact = true;
    for (std::size_t j = 0; j < 4; ++j) {
      const auto& words = report.final_memory[design.mo[j]];
      for (std::size_t k = 0; k < 4; ++k)
        exact = exact && words[k] == want[j][k].re &&
                words[4 + k] == want[j][k].im;
    }

    std::printf("=== board: %s (%zu PEs, %zu CLBs total) ===\n",
                board.name().c_str(), board.num_pes(),
                board.total_clb_capacity());
    std::printf("%s", report.summary().c_str());
    std::printf("output: %s\n\n", exact ? "bit-exact" : "MISMATCH");
  }

  std::printf(
      "same taskgraph, zero design edits: the arbitration layer absorbs the\n"
      "architecture differences — fewer partitions on the big board, more\n"
      "arbitration pressure on the small one.\n");
  return 0;
}
