// The paper's Section 5, end to end: the 4x4 2-D FFT taskgraph through
// temporal partitioning, spatial partitioning, memory mapping, automatic
// arbiter insertion, arbiter synthesis and cycle-level execution on the
// Wildforce-like board — then the 512x512-image wall-clock comparison
// against the Pentium-150 software model.
//
//   $ ./fft_flow
#include <cstdio>

#include "board/board.hpp"
#include "fft/fft_design.hpp"
#include "fft/workload.hpp"
#include "flow/pin_report.hpp"
#include "flow/sparcs_flow.hpp"

int main() {
  using namespace rcarb;

  const fft::FftDesign design = fft::build_fft_design();
  const board::Board board = board::wildforce();

  // A sample 4x4 pixel block.
  fft::Block block{};
  int v = 0;
  for (auto& row : block)
    for (auto& px : row) px = static_cast<fft::Pixel>((v++ * 31) % 97 - 48);

  flow::FlowOptions options;
  for (std::size_t r = 0; r < 4; ++r)
    options.preload.emplace_back(
        design.mi[r],
        std::vector<std::int64_t>(block[r].begin(), block[r].end()));

  // Pin partitioning and memory mapping to the paper's Fig. 11 so the run
  // reproduces the published arbiter profile exactly.
  const auto pinned = fft::paper_partitions(design);
  options.pinned_partitions = &pinned;
  options.pinned_binding = [&](std::size_t tp) {
    return fft::paper_binding(design, tp);
  };

  const flow::FlowReport report = run_flow(design.graph, board, options);
  std::printf("%s\n", report.summary().c_str());

  // Fig. 11's pin annotations, recomputed: the bus wires of remote memory
  // access plus one Request/Grant pair per remotely arbitrated task.
  for (std::size_t tp = 0; tp < report.partitions.size(); ++tp) {
    const auto& pr = report.partitions[tp];
    const flow::PinReport pins = flow::compute_pin_report(
        design.graph, board, pr.binding, pr.plan, pr.tasks);
    std::printf("TP%zu inter-FPGA pins:\n%s", tp,
                pins.to_string(board).c_str());
  }
  std::printf("\n");

  // Verify the hardware execution against the exact reference transform.
  const fft::BlockSpectrum want = fft::fft2d_4x4(block);
  bool exact = true;
  for (std::size_t j = 0; j < 4; ++j) {
    const auto& words = report.final_memory[design.mo[j]];
    for (std::size_t k = 0; k < 4; ++k)
      exact = exact && words[k] == want[j][k].re &&
              words[4 + k] == want[j][k].im;
  }
  std::printf("FFT output vs reference transform: %s\n\n",
              exact ? "bit-exact" : "MISMATCH");

  std::printf("spectrum of MO1 (column 0):\n");
  for (std::size_t k = 0; k < 4; ++k)
    std::printf("  Y[%zu] = %lld %+lldj\n", k,
                static_cast<long long>(report.final_memory[design.mo[0]][k]),
                static_cast<long long>(
                    report.final_memory[design.mo[0]][4 + k]));

  // The paper's wall-clock comparison.
  const fft::ImageWorkload image{};
  const fft::HardwareModel hw{report.design_clock_mhz};
  const fft::PentiumModel cpu{};
  std::printf(
      "\n512x512 image (%zu blocks):\n"
      "  hardware : %llu cycles/block at %.1f MHz -> %.2f s  (paper: 4.4 s)\n"
      "  software : %.0f cycles/block at 150 MHz  -> %.2f s  (paper: 6.8 s)\n",
      image.blocks(), static_cast<unsigned long long>(report.total_cycles),
      report.design_clock_mhz, hw.seconds(image, report.total_cycles),
      cpu.cycles_per_block(), cpu.seconds(image));
  return 0;
}
