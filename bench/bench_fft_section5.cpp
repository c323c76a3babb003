// Section 5 reproduction: the 4x4-pixel 2-D FFT through the whole
// SPARCS-like flow on the Wildforce-like board.
//
// Paper results being reproduced:
//   * three temporal partitions; TP#0 carries a 6-input and a 2-input
//     arbiter, TP#1 a 4-input arbiter, TP#2 none;
//   * the design clocks at ~6 MHz (arbiters far faster, so no clock cost);
//   * a 512x512 image takes ~4.4 s in hardware vs ~6.8 s in software on a
//     Pentium-150 — the low-end RC board beats the CPU.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "board/board.hpp"
#include "fft/fft_design.hpp"
#include "fft/workload.hpp"
#include "flow/sparcs_flow.hpp"
#include "obs/bench_report.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace {

using namespace rcarb;

fft::Block sample_block() {
  Rng rng(2026);
  fft::Block block{};
  for (auto& row : block)
    for (auto& v : row) v = static_cast<fft::Pixel>(rng.next_in(-128, 127));
  return block;
}

flow::FlowOptions base_options(const fft::FftDesign& d,
                               const fft::Block& block) {
  flow::FlowOptions o;
  for (std::size_t r = 0; r < 4; ++r)
    o.preload.emplace_back(
        d.mi[r], std::vector<std::int64_t>(block[r].begin(), block[r].end()));
  return o;
}

std::string arbiter_list(const flow::PartitionReport& pr) {
  if (pr.plan.arbiters.empty()) return "none";
  std::vector<std::string> parts;
  for (const auto& a : pr.plan.arbiters)
    parts.push_back(std::to_string(a.ports.size()) + "-input@" +
                    a.resource_name);
  return join(parts, ", ");
}

bool spectrum_ok(const flow::FlowReport& report, const fft::FftDesign& d,
                 const fft::Block& block) {
  const fft::BlockSpectrum want = fft::fft2d_4x4(block);
  for (std::size_t j = 0; j < 4; ++j) {
    const auto& words = report.final_memory[d.mo[j]];
    for (std::size_t k = 0; k < 4; ++k)
      if (words[k] != want[j][k].re || words[4 + k] != want[j][k].im)
        return false;
  }
  return true;
}

void print_flow(const char* title, const flow::FlowReport& report,
                const fft::FftDesign& d, const fft::Block& block) {
  Table table(title);
  table.set_header({"TP", "tasks", "arbiters", "arbiter CLBs", "cycles",
                    "waits", "conflicts"});
  for (std::size_t tp = 0; tp < report.partitions.size(); ++tp) {
    const auto& pr = report.partitions[tp];
    std::size_t clbs = 0;
    for (const auto& c : pr.arbiter_chars) clbs += c.clbs;
    std::uint64_t waits = 0;
    for (const auto& ts : pr.sim.tasks) waits += ts.grant_wait_cycles;
    table.add_row({std::to_string(tp), std::to_string(pr.tasks.size()),
                   arbiter_list(pr), std::to_string(clbs),
                   std::to_string(pr.sim.cycles), std::to_string(waits),
                   std::to_string(pr.sim.bank_conflicts)});
  }
  table.print();
  std::printf("  design clock %.1f MHz (slowest arbiter %.1f MHz), "
              "cycles/block %llu, FFT output %s\n\n",
              report.design_clock_mhz, report.min_arbiter_fmax_mhz,
              static_cast<unsigned long long>(report.total_cycles),
              spectrum_ok(report, d, block) ? "bit-exact" : "WRONG");
}

void print_section5(obs::BenchReporter& rep) {
  const fft::FftDesign d = fft::build_fft_design();
  const fft::Block block = sample_block();
  const board::Board wf = board::wildforce();

  // ---- pinned to the paper's Fig. 11 partitioning/binding. ----
  flow::FlowOptions pinned_options = base_options(d, block);
  const auto pinned = fft::paper_partitions(d);
  pinned_options.pinned_partitions = &pinned;
  pinned_options.pinned_binding = [&](std::size_t tp) {
    return fft::paper_binding(d, tp);
  };
  const flow::FlowReport paper_flow = run_flow(d.graph, wf, pinned_options);
  print_flow(
      "Sec. 5 — FFT on Wildforce, pinned to the paper's Fig. 11 mapping "
      "[paper: TP0 {6-input, 2-input}, TP1 {4-input}, TP2 none]",
      paper_flow, d, block);

  // ---- fully automatic flow. ----
  const flow::FlowReport auto_flow =
      run_flow(d.graph, wf, base_options(d, block));
  print_flow("Sec. 5 — same design, fully automatic partitioning/mapping",
             auto_flow, d, block);

  // ---- the wall-clock comparison. ----
  const fft::ImageWorkload image{};
  const fft::HardwareModel hw{paper_flow.design_clock_mhz};
  const fft::PentiumModel cpu{};
  Table wall("Sec. 5 — 512x512 image, hardware vs software "
             "[paper: 4.4 s RC board vs 6.8 s Pentium-150]");
  wall.set_header({"implementation", "cycles/block", "clock", "seconds",
                   "paper"});
  wall.add_row({"RC board (pinned flow)",
                std::to_string(paper_flow.total_cycles),
                fmt_fixed(paper_flow.design_clock_mhz, 1) + " MHz",
                fmt_fixed(hw.seconds(image, paper_flow.total_cycles), 2),
                "4.4 s"});
  wall.add_row({"RC board (automatic flow)",
                std::to_string(auto_flow.total_cycles),
                fmt_fixed(auto_flow.design_clock_mhz, 1) + " MHz",
                fmt_fixed(hw.seconds(image, auto_flow.total_cycles), 2),
                "-"});
  wall.add_row({"software (Pentium-150 model)",
                fmt_fixed(cpu.cycles_per_block(), 0), "150.0 MHz",
                fmt_fixed(cpu.seconds(image), 2), "6.8 s"});
  rep.metric("pinned_cycles_per_block",
             static_cast<double>(paper_flow.total_cycles), "cycles");
  rep.metric("auto_cycles_per_block",
             static_cast<double>(auto_flow.total_cycles), "cycles");
  rep.metric("design_clock_mhz", paper_flow.design_clock_mhz, "mhz");
  rep.metric("hw_seconds", hw.seconds(image, paper_flow.total_cycles), "s");
  rep.metric("sw_seconds", cpu.seconds(image), "s");
  rep.note("spectrum", spectrum_ok(paper_flow, d, block) ? "bit-exact"
                                                         : "WRONG");
  wall.print();
  std::puts(
      "the low-end multi-FPGA board at 6 MHz beats the 150 MHz CPU by\n"
      "~1.5x, with all arbitration inserted automatically — the paper's\n"
      "headline result.\n");
}

void BM_FullPinnedFlow(benchmark::State& state) {
  const fft::FftDesign d = fft::build_fft_design();
  const fft::Block block = sample_block();
  const board::Board wf = board::wildforce();
  flow::FlowOptions o = base_options(d, block);
  const auto pinned = fft::paper_partitions(d);
  o.pinned_partitions = &pinned;
  o.pinned_binding = [&](std::size_t tp) { return fft::paper_binding(d, tp); };
  for (auto _ : state) {
    auto report = run_flow(d.graph, wf, o);
    benchmark::DoNotOptimize(report.total_cycles);
  }
}
BENCHMARK(BM_FullPinnedFlow);

void BM_FullAutomaticFlow(benchmark::State& state) {
  const fft::FftDesign d = fft::build_fft_design();
  const fft::Block block = sample_block();
  const board::Board wf = board::wildforce();
  const flow::FlowOptions o = base_options(d, block);
  for (auto _ : state) {
    auto report = run_flow(d.graph, wf, o);
    benchmark::DoNotOptimize(report.total_cycles);
  }
}
BENCHMARK(BM_FullAutomaticFlow);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("fft_section5");
  print_section5(rep);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  const std::string path = rep.write();
  if (path.empty()) {
    std::fputs("bench report write failed\n", stderr);
    return 1;
  }
  std::printf("bench report: %s\n", path.c_str());
  return 0;
}
