// Sec. 5 optimization ablation: dependency-aware arbiter elision.  The
// paper observes that the F and g tasks never overlap ("g tasks have to
// wait until the F tasks finish"), so the inserted 6-input arbiter is
// larger than necessary: "the arbiter insertion tool can easily detect
// this scenario based on the dependencies between the tasks".  With
// elision the ML bank's contention group splits into the concurrent
// components {F1..F4} and {g1r, g2r}.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "board/board.hpp"
#include "core/insertion.hpp"
#include "fft/fft_design.hpp"
#include "flow/sparcs_flow.hpp"
#include "obs/bench_report.hpp"
#include "rcsim/system_sim.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace {

using namespace rcarb;

flow::FlowReport run_fft(bool elide) {
  const fft::FftDesign d = fft::build_fft_design();
  Rng rng(99);
  fft::Block block{};
  for (auto& row : block)
    for (auto& v : row) v = static_cast<fft::Pixel>(rng.next_in(-100, 100));
  flow::FlowOptions o;
  for (std::size_t r = 0; r < 4; ++r)
    o.preload.emplace_back(
        d.mi[r], std::vector<std::int64_t>(block[r].begin(), block[r].end()));
  static const auto pinned = fft::paper_partitions(d);
  o.pinned_partitions = &pinned;
  o.pinned_binding = [d](std::size_t tp) { return fft::paper_binding(d, tp); };
  o.insertion.elide_serialized = elide;
  return run_flow(d.graph, board::wildforce(), o);
}

std::string arbiter_sizes(const flow::FlowReport& report, std::size_t tp) {
  std::vector<std::string> sizes;
  for (const auto& a : report.partitions[tp].plan.arbiters)
    sizes.push_back(std::to_string(a.ports.size()));
  return sizes.empty() ? "none" : join(sizes, "+");
}

void print_elision(obs::BenchReporter& rep) {
  const flow::FlowReport base = run_fft(false);
  const flow::FlowReport elided = run_fft(true);
  rep.metric("base_arbiter_clbs",
             static_cast<double>(base.total_arbiter_clbs), "clbs");
  rep.metric("elided_arbiter_clbs",
             static_cast<double>(elided.total_arbiter_clbs), "clbs");
  rep.metric("base_cycles", static_cast<double>(base.total_cycles), "cycles");
  rep.metric("elided_cycles", static_cast<double>(elided.total_cycles),
             "cycles");

  Table table(
      "Sec. 5 optimization — dependency-aware arbiter elision on the FFT "
      "[paper: the 6-input ML arbiter over-serves serialized F/g tasks]");
  table.set_header({"metric", "base insertion", "with elision"});
  table.add_row({"TP0 arbiter sizes", arbiter_sizes(base, 0),
                 arbiter_sizes(elided, 0)});
  table.add_row({"TP1 arbiter sizes", arbiter_sizes(base, 1),
                 arbiter_sizes(elided, 1)});
  table.add_row({"TP2 arbiter sizes", arbiter_sizes(base, 2),
                 arbiter_sizes(elided, 2)});
  table.add_row({"total arbiter CLBs", std::to_string(base.total_arbiter_clbs),
                 std::to_string(elided.total_arbiter_clbs)});
  table.add_row({"slowest arbiter Fmax (MHz)",
                 fmt_fixed(base.min_arbiter_fmax_mhz, 1),
                 fmt_fixed(elided.min_arbiter_fmax_mhz, 1)});
  table.add_row({"total cycles", std::to_string(base.total_cycles),
                 std::to_string(elided.total_cycles)});
  table.print();
  std::puts(
      "the Arb6 splits into Arb4 + Arb2: smaller scan rings, less area,\n"
      "faster arbiters.  Cycle count is unchanged on this workload because\n"
      "F and g never actually contend — which is precisely why the split\n"
      "is safe.\n");

  // A second scenario where elision removes arbitration entirely: two
  // serialized tasks sharing a bank (producer -> consumer) pay the +2
  // protocol cycles per burst only without elision.
  tg::TaskGraph g("pipeline");
  g.add_segment("buf", 128, 32);
  tg::Program producer;
  producer.load_imm(0, 0);
  for (int i = 0; i < 8; ++i) producer.store(0, 0, 0, i);
  producer.halt();
  tg::Program consumer;
  consumer.load_imm(0, 0);
  for (int i = 0; i < 8; ++i) consumer.load(1, 0, 0, i);
  consumer.halt();
  const auto prod = g.add_task("producer", producer, 10);
  const auto cons = g.add_task("consumer", consumer, 10);
  g.add_control_dep(prod, cons);
  core::Binding binding;
  binding.task_to_pe = {0, 1};
  binding.segment_to_bank = {0};
  binding.num_banks = 1;
  binding.bank_names = {"MEM"};

  Table pipe("producer->consumer pipeline through one bank");
  pipe.set_header({"insertion", "arbiters", "cycles"});
  for (const bool elide : {false, true}) {
    core::InsertionOptions io;
    io.elide_serialized = elide;
    const auto ins = core::insert_arbitration(g, binding, io);
    rcsim::SystemSimulator sim(ins.graph, binding, ins.plan);
    const auto r = sim.run({prod, cons});
    pipe.add_row({elide ? "with elision" : "base",
                  std::to_string(ins.plan.arbiters.size()),
                  std::to_string(r.cycles)});
    rep.metric(elide ? "pipeline_elided_cycles" : "pipeline_base_cycles",
               static_cast<double>(r.cycles), "cycles");
  }
  pipe.print();
  std::puts(
      "serialized tasks need no arbiter at all: elision removes it and the\n"
      "Fig. 8 protocol cycles with it — the latency reduction the paper\n"
      "anticipates at the end of Sec. 5.\n");
}

void BM_InsertionWithElision(benchmark::State& state) {
  const fft::FftDesign d = fft::build_fft_design();
  const core::Binding binding = fft::paper_binding(d, 0);
  core::InsertionOptions io;
  io.elide_serialized = state.range(0) != 0;
  const auto tasks = fft::paper_partitions(d)[0];
  for (auto _ : state) {
    auto ins = core::insert_arbitration(d.graph, binding, io, &tasks);
    benchmark::DoNotOptimize(ins.plan.arbiters.size());
  }
}
BENCHMARK(BM_InsertionWithElision)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("elision");
  print_elision(rep);
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
