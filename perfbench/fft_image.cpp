// fft_image: the paper's Sec. 5 design on board::wildforce(), partitions
// and binding pinned to Fig. 11.  The plan is built once (run_flow with
// simulate = false); then every 4x4 block of a seeded 512x512 image goes
// through the three temporal partitions, a fresh rcsim::SystemSimulator
// per partition with memory carried between them, as run_flow does.  It is
// the only workload through rcsim, the taskgraph program interpreter and
// the core policy arbiters.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "bench.hpp"
#include "board/board.hpp"
#include "fft/fft_design.hpp"
#include "fft/reference.hpp"
#include "fft/workload.hpp"
#include "flow/sparcs_flow.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace rcarb;

constexpr std::size_t kPartitions = 3;
constexpr std::array<const char*, kPartitions> kRunSpan = {
    "rcsim.SystemSimulator.run.tp0", "rcsim.SystemSimulator.run.tp1",
    "rcsim.SystemSimulator.run.tp2"};
/// The paper's measured hardware time for the 512x512 image (Sec. 5).
constexpr double kPaperSeconds = 4.4;

struct BlockResult {
  fft::BlockSpectrum spectrum{};
  std::uint64_t cycles = 0;
  bool deadlocked = false;
  // Layer counts summed over the three partitions.
  std::uint64_t grant_wait_cycles = 0;
  std::uint64_t acquires = 0;
  std::uint64_t ops_retired = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t grants = 0;
  std::uint64_t max_wait = 0;
};

BlockResult simulate_block(const flow::FlowReport& plan,
                           const fft::FftDesign& design,
                           const rcsim::SimOptions& sim_options,
                           const fft::Block& block, Tracer& tr) {
  const auto block_span = tr.span("fft.block");
  const tg::TaskGraph& graph = design.graph;
  std::vector<std::vector<std::int64_t>> memory(graph.num_segments());
  for (tg::SegmentId s = 0; s < graph.num_segments(); ++s)
    memory[s].assign(graph.segment(s).words, 0);
  for (std::size_t r = 0; r < 4; ++r)
    std::copy(block[r].begin(), block[r].end(), memory[design.mi[r]].begin());

  BlockResult out;
  for (std::size_t tp = 0; tp < kPartitions; ++tp) {
    const flow::PartitionReport& pr = plan.partitions[tp];
    std::optional<rcsim::SystemSimulator> sim;
    {
      const auto span = tr.span("rcsim.SystemSimulator");
      sim.emplace(pr.rewritten, pr.binding, pr.plan, sim_options);
    }
    for (tg::SegmentId s = 0; s < graph.num_segments(); ++s)
      sim->write_segment(s, memory[s]);
    rcsim::SimResult r;
    {
      const auto span = tr.span(kRunSpan[tp]);
      r = sim->run(pr.tasks);
    }
    for (tg::SegmentId s = 0; s < graph.num_segments(); ++s)
      memory[s] = sim->segment_data(s);
    if (tp + 1 == kPartitions) out.spectrum = fft::read_spectrum(*sim, design);

    out.cycles += r.cycles;
    out.deadlocked = out.deadlocked || r.deadlocked;
    for (const rcsim::TaskStats& t : r.tasks) {
      out.grant_wait_cycles += t.grant_wait_cycles;
      out.acquires += t.acquires;
      out.ops_retired += t.ops_retired;
      out.mem_accesses += t.mem_accesses;
    }
    for (const rcsim::ArbiterStats& a : r.arbiters) {
      out.grants += a.grants;
      out.max_wait = std::max(out.max_wait, a.max_wait);
    }
  }
  return out;
}

}  // namespace

Outcome run_fft_image(const RunConfig& cfg, Tracer& tracer) {
  Outcome out;
  const auto setup_start = Clock::now();
  const fft::FftDesign design = fft::build_fft_design();
  const board::Board board = board::wildforce();
  const auto partitions = fft::paper_partitions(design);
  flow::FlowOptions fo;
  fo.simulate = false;
  fo.pinned_partitions = &partitions;
  fo.pinned_binding = [&](std::size_t tp) {
    return fft::paper_binding(design, tp);
  };
  auto t = Clock::now();
  const flow::FlowReport plan = flow::run_flow(design.graph, board, fo);
  const double cold_plan_s = seconds_since(t);
  if (plan.partitions.size() != kPartitions) {
    std::fprintf(stderr, "fft_image: expected %zu partitions, got %zu\n",
                 kPartitions, plan.partitions.size());
    std::exit(1);
  }

  const fft::ImageWorkload image_shape{};
  std::vector<fft::Block> image(image_shape.blocks());
  Rng rng(derive_seed(cfg.seed, 1));
  for (fft::Block& block : image)
    for (auto& row : block)
      for (auto& v : row) v = rng.next_in(-128, 127);
  out.setup_s = seconds_since(setup_start);
  if (cfg.setup_only) return out;

  // Re-planning with the synthesis memo warm splits the cold plan into
  // arbiter synthesis and the rest of the flow.
  t = Clock::now();
  (void)flow::run_flow(design.graph, board, fo);
  const double warm_plan_s = seconds_since(t);

  const rcsim::SimOptions sim_options = fo.sim;
  std::size_t next = 0;
  std::uint64_t sim_cycles = 0;
  BlockResult first_traced;
  bool have_traced = false;
  const Passes passes = measure(cfg, tracer, image.size(), [&](Tracer& tr) {
    const fft::Block& block = image[next++ % image.size()];
    const BlockResult r = simulate_block(plan, design, sim_options, block, tr);
    // The timing loop times the reference check too; it is under 0.1% of a
    // block (fft.reference_us against fft.block_us_p50).
    out.check(!r.deadlocked && r.spectrum == fft::fft2d_4x4(block));
    if (!tr.enabled()) sim_cycles += r.cycles;
    if (tr.enabled() && !have_traced) {
      first_traced = r;
      have_traced = true;
    }
  });

  const std::uint64_t cycles_per_block = sim_cycles / passes.plain.size();
  out.end_to_end = {
      {"sim_cycles_per_s",
       static_cast<double>(cycles_per_block) / passes.quiet_plain(), "1/s",
       Label::kHost},
  };
  const double hw_seconds =
      fft::HardwareModel{plan.design_clock_mhz}.seconds(image_shape,
                                                         cycles_per_block);
  out.per_layer = {
      {"synth.prechar_s", cold_plan_s - warm_plan_s, "s", Label::kHost},
      {"flow.plan_s", warm_plan_s, "s", Label::kHost},
      {"fft.blocks_per_s", 1.0 / passes.quiet_plain(), "1/s", Label::kHost},
      {"fft.block_us_p50", median(passes.plain) * 1e6, "us", Label::kHost},
      {"fft.block_us_p99", percentile(passes.plain, 0.99) * 1e6, "us",
       Label::kHost},
      {"fft.cycles_per_block", static_cast<double>(cycles_per_block),
       "cycles", Label::kSim},
      {"fft.paper_error_pct", 100.0 * (hw_seconds / kPaperSeconds - 1.0), "%",
       Label::kSim},
  };
  char note[160];
  std::snprintf(note, sizeof note,
                "%zu blocks timed; model: %llu cycles/block at %.1f MHz -> "
                "%.3f s per 512x512 image vs the paper's %.1f s",
                passes.plain.size(),
                static_cast<unsigned long long>(cycles_per_block),
                plan.design_clock_mhz, hw_seconds, kPaperSeconds);
  out.notes.emplace_back(note);
  if (!cfg.trace) return out;

  // ---- Traced run only. ----
  double reference_us = 0.0;
  {
    const auto span = tracer.span("fft.fft2d_4x4");
    std::int64_t sink = 0;
    const auto t0 = Clock::now();
    for (const fft::Block& block : image)
      sink += fft::fft2d_4x4(block)[1][1].re;
    reference_us =
        seconds_since(t0) * 1e6 / static_cast<double>(image.size());
    // Keeps the loop's result live.
    if (sink == std::numeric_limits<std::int64_t>::min()) reference_us = 0.0;
  }
  double run_s = 0.0;
  std::vector<double> runs(kPartitions);
  for (std::size_t tp = 0; tp < kPartitions; ++tp) {
    runs[tp] = quiet(tracer.durations(kRunSpan[tp]));
    run_s += runs[tp];
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const BlockResult& b = first_traced;
  out.per_layer.insert(
      out.per_layer.end(),
      {
          {"rcsim.construct_us",
           quiet(tracer.durations("rcsim.SystemSimulator")) * 1e6, "us",
           Label::kHost},
          {"rcsim.run_us.tp0", runs[0] * 1e6, "us", Label::kHost},
          {"rcsim.run_us.tp1", runs[1] * 1e6, "us", Label::kHost},
          {"rcsim.run_us.tp2", runs[2] * 1e6, "us", Label::kHost},
          {"rcsim.host_ns_per_sim_cycle",
           run_s * 1e9 / static_cast<double>(cycles_per_block), "ns",
           Label::kHost},
          {"rcsim.grant_wait_cycles", count(b.grant_wait_cycles), "cycles",
           Label::kSim},
          {"rcsim.acquires", count(b.acquires), "count", Label::kSim},
          {"rcsim.ops_retired", count(b.ops_retired), "count", Label::kSim},
          {"rcsim.mem_accesses", count(b.mem_accesses), "count", Label::kSim},
          {"core.grants", count(b.grants), "count", Label::kSim},
          {"core.max_wait", count(b.max_wait), "cycles", Label::kSim},
          {"fft.reference_us", reference_us, "us", Label::kHost},
          {"trace.overhead_frac", passes.trace_overhead(), "ratio",
           Label::kHost},
      });
  return out;
}

}  // namespace perfbench
