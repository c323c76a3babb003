#include <gtest/gtest.h>

#include <algorithm>

#include "core/insertion.hpp"
#include "fft/fft_design.hpp"
#include "obs/trace.hpp"
#include "rcsim/system_sim.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::rcsim {
namespace {

using core::Binding;
using tg::Program;
using tg::TaskGraph;
using tg::TaskId;

Binding bare_binding(const TaskGraph& g, std::size_t num_tasks,
                     std::size_t num_banks = 1) {
  Binding b;
  b.task_to_pe.assign(num_tasks, 0);
  b.segment_to_bank.assign(g.num_segments(), 0);
  b.channel_to_phys.assign(g.num_channels(), -1);
  b.num_banks = num_banks;
  for (std::size_t i = 0; i < num_banks; ++i)
    b.bank_names.push_back("B" + std::to_string(i));
  return b;
}

core::ArbitrationPlan no_plan(const Binding& b) {
  core::ArbitrationPlan plan;
  plan.arbiters_of_resource.assign(b.num_resources(), {});
  return plan;
}

// ------------------------------------------------------------ var loops

TEST(VarLoop, TripCountComesFromRegister) {
  TaskGraph g("var");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)
      .load(1, 0, 0, 0)  // trip count from memory
      .load_imm(2, 0)
      .loop_begin_var(1)
      .add_imm(2, 2, 1)
      .loop_end()
      .store(0, 0, 2, 1)
      .halt();
  g.add_task("t", p, 1);
  const Binding b = bare_binding(g, 1);
  for (std::int64_t trips : {0, 1, 5, 13}) {
    SystemSimulator sim(g, b, no_plan(b));
    sim.write_segment(0, {trips});
    sim.run({0});
    EXPECT_EQ(sim.segment_data(0)[1], trips) << "trips=" << trips;
  }
}

TEST(VarLoop, NegativeCountClampsToZero) {
  TaskGraph g("neg");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)
      .load_imm(1, -5)
      .load_imm(2, 7)
      .loop_begin_var(1)
      .load_imm(2, 99)
      .loop_end()
      .store(0, 0, 2)
      .halt();
  g.add_task("t", p, 1);
  const Binding b = bare_binding(g, 1);
  SystemSimulator sim(g, b, no_plan(b));
  sim.run({0});
  EXPECT_EQ(sim.segment_data(0)[0], 7) << "body must be skipped";
}

TEST(VarLoop, RuntimeMattersNotWorstCase) {
  // The Sec. 2.2 argument in miniature: execution time follows the data.
  TaskGraph g("runtime");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)
      .load(1, 0, 0, 0)
      .loop_begin_var(1)
      .compute(3)
      .loop_end()
      .halt();
  g.add_task("t", p, 1);
  const Binding b = bare_binding(g, 1);
  auto run_with = [&](std::int64_t trips) {
    SystemSimulator sim(g, b, no_plan(b));
    sim.write_segment(0, {trips});
    return sim.run({0}).cycles;
  };
  EXPECT_LT(run_with(2), run_with(10));
  EXPECT_EQ(run_with(10) - run_with(2), 8u * 3u);
}

TEST(VarLoop, ValidateCountsVarLoopsLikeLoops) {
  Program open_loop;
  open_loop.loop_begin_var(0);
  EXPECT_THROW(open_loop.validate(), CheckError);
}

TEST(VarLoop, NestsWithFixedLoops) {
  TaskGraph g("nest");
  g.add_segment("s", 64, 16);
  Program p;
  p.load_imm(0, 0)
      .load_imm(1, 3)   // inner trips
      .load_imm(2, 0)   // accumulator
      .loop_begin(4)
      .loop_begin_var(1)
      .add_imm(2, 2, 1)
      .loop_end()
      .loop_end()
      .store(0, 0, 2)
      .halt();
  g.add_task("t", p, 1);
  const Binding b = bare_binding(g, 1);
  SystemSimulator sim(g, b, no_plan(b));
  sim.run({0});
  EXPECT_EQ(sim.segment_data(0)[0], 12);
}

// ------------------------------------------------------------------- TDM

struct TdmFixture {
  TaskGraph g{"tdm"};
  Binding binding;
  tg::SegmentId out;

  TdmFixture() {
    out = g.add_segment("out", 64, 8);
    for (int i = 0; i < 2; ++i) {
      Program producer;
      producer.load_imm(0, 10 + i).send(i, 0).halt();
      Program consumer;
      consumer.recv(1, i).load_imm(0, 0).store(static_cast<int>(out), 0, 1, i).halt();
      const auto p = g.add_task("p" + std::to_string(i), producer, 1);
      const auto c = g.add_task("c" + std::to_string(i), consumer, 1);
      g.add_channel("ch" + std::to_string(i), 8, p, c);
    }
    binding = bare_binding(g, 4);
    binding.channel_to_phys = {0, 0};
    binding.num_phys_channels = 1;
    binding.phys_channel_names = {"shared"};
  }
};

TEST(Tdm, SlotsSerializeWithoutArbiterOrConflicts) {
  TdmFixture fx;
  SimOptions options;
  options.tdm_slots = {{0, 2}, {1, 2}};
  SystemSimulator sim(fx.g, fx.binding, no_plan(fx.binding), options);
  const SimResult r = sim.run({0, 1, 2, 3});
  EXPECT_EQ(r.channel_conflicts, 0u);
  EXPECT_EQ(sim.segment_data(fx.out)[0], 10);
  EXPECT_EQ(sim.segment_data(fx.out)[1], 11);
}

TEST(Tdm, SenderWaitsForItsSlot) {
  TdmFixture fx;
  // Both producers ready at cycle 1; producer 1's slot only comes at
  // cycle % 8 == 7, so it stalls.
  SimOptions options;
  options.tdm_slots = {{0, 8}, {7, 8}};
  SystemSimulator sim(fx.g, fx.binding, no_plan(fx.binding), options);
  const SimResult r = sim.run({0, 1, 2, 3});
  EXPECT_GT(r.tasks[2].grant_wait_cycles, 3u)
      << "producer 1 must idle until its slot";
}

TEST(Tdm, WithoutSlotsSimultaneousSendsConflict) {
  TdmFixture fx;
  SimOptions options;
  options.strict = false;
  SystemSimulator sim(fx.g, fx.binding, no_plan(fx.binding), options);
  const SimResult r = sim.run({0, 1, 2, 3});
  EXPECT_GT(r.channel_conflicts, 0u)
      << "no arbitration and no slots: the wires collide";
}

// -------------------------------------------------------- quiet stretches

// The engine accounts quiet compute stretches in bulk (DESIGN.md §17);
// SimResult::skipped_cycles says how many.  test_sim_digest pins that every
// other output is unchanged; these pin where the jump happens.

TEST(QuietStretch, CoversMostOfEveryFftBlock) {
  const fft::FftDesign d = fft::build_fft_design();
  const auto parts = fft::paper_partitions(d);
  Rng rng(21);
  for (int trial = 0; trial < 3; ++trial) {
    fft::Block block{};
    for (auto& row : block)
      for (auto& v : row) v = static_cast<fft::Pixel>(rng.next_in(-128, 127));
    std::vector<std::vector<std::int64_t>> memory(d.graph.num_segments());
    for (tg::SegmentId s = 0; s < d.graph.num_segments(); ++s)
      memory[s].assign(d.graph.segment(s).words, 0);
    for (std::size_t r = 0; r < 4; ++r)
      std::copy(block[r].begin(), block[r].end(), memory[d.mi[r]].begin());
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    SimOptions so;
    so.arbiter_metrics = true;  // as the flow runs it
    for (std::size_t tp = 0; tp < parts.size(); ++tp) {
      const Binding b = fft::paper_binding(d, tp);
      const core::InsertionResult ins =
          core::insert_arbitration(d.graph, b, {}, &parts[tp]);
      SystemSimulator sim(ins.graph, b, ins.plan, so);
      for (tg::SegmentId s = 0; s < d.graph.num_segments(); ++s)
        sim.write_segment(s, memory[s]);
      const SimResult r = sim.run(parts[tp]);
      ASSERT_FALSE(r.deadlocked);
      EXPECT_LT(r.skipped_cycles, r.cycles);
      cycles += r.cycles;
      skipped += r.skipped_cycles;
      for (tg::SegmentId s = 0; s < d.graph.num_segments(); ++s)
        memory[s] = sim.segment_data(s);
      if (tp + 1 == parts.size()) {
        EXPECT_EQ(fft::read_spectrum(sim, d), fft::fft2d_4x4(block));
      }
    }
    EXPECT_EQ(cycles, 1613u);
    EXPECT_GE(skipped * 10, cycles * 8) << skipped << " of " << cycles;
  }
}

/// Two writers share one arbitrated bank and finish within a few cycles;
/// a third task then computes alone for 2,000 cycles while the arbiter
/// idles.
struct LoneCompute {
  static TaskGraph make_graph() {
    TaskGraph g("lone");
    g.add_segment("s", 64, 16);
    for (int t = 0; t < 2; ++t) {
      Program p;
      p.load_imm(0, t).store(0, 0, 0, t).halt();
      g.add_task("w" + std::to_string(t), p);
    }
    Program lone;
    lone.compute(2000).halt();
    g.add_task("lone", lone);
    return g;
  }

  TaskGraph graph = make_graph();
  Binding binding = bare_binding(graph, 3);
  core::InsertionResult ins = core::insert_arbitration(graph, binding, {});

  SimResult run(SimOptions so) const {
    so.record_request_trace = true;
    SystemSimulator sim(ins.graph, binding, ins.plan, so);
    return sim.run({0, 1, 2});
  }
};

TEST(QuietStretch, ALoneComputeIsOneJump) {
  const LoneCompute w;
  ASSERT_EQ(w.ins.plan.arbiters.size(), 1u);
  const SimResult r = w.run({});
  EXPECT_EQ(r.tasks[2].finish_cycle, 1999u);
  // Everything but the writers' few cycles and each stretch's last cycle.
  EXPECT_GT(r.skipped_cycles, 1980u);
  EXPECT_EQ(r.request_trace[0].size(), r.cycles);
}

TEST(QuietStretch, StopsAtAStuckWindowOpeningMidStretch) {
  const LoneCompute w;
  const SimResult clean = w.run({});
  SimOptions so;
  obs::TraceBuffer buf;
  so.trace_sink = &buf;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kReqStuck1;
  e.cycle = 500;
  e.arbiter = 0;
  e.port = 0;
  e.duration = 100;
  so.faults = {e};
  const SimResult r = w.run(so);
  EXPECT_EQ(r.cycles, clean.cycles);
  // The window's first cycle was stepped: its fault event carries cycle
  // 500 and the phantom request shows from exactly there.
  std::vector<std::uint64_t> fault_cycles;
  for (const obs::TraceEvent& ev : buf.events())
    if (ev.kind == obs::TraceKind::kFault) fault_cycles.push_back(ev.cycle);
  EXPECT_EQ(fault_cycles, std::vector<std::uint64_t>{500});
  ASSERT_EQ(r.request_trace[0].size(), r.cycles);
  EXPECT_EQ(r.request_trace[0][499], 0u);
  for (std::uint64_t c = 500; c < 600; ++c)
    ASSERT_EQ(r.request_trace[0][c], 1u) << "cycle " << c;
  EXPECT_EQ(r.request_trace[0][600], 0u);
  // The hundred stuck cycles (and the idle step after them) were stepped.
  EXPECT_LE(r.skipped_cycles + 100, clean.skipped_cycles);
  EXPECT_GT(r.skipped_cycles, 1800u);
}

TEST(QuietStretch, StopsWhereASuccessorBecomesReady) {
  // a -> b, while c computes long enough to cover both: b must start the
  // cycle after a finishes, exactly as it does when nothing else runs.
  const auto run = [](bool with_c) {
    TaskGraph g("ready");
    g.add_segment("s", 64, 16);
    Program a;
    a.compute(50).halt();
    Program b;
    b.compute(10).halt();
    const TaskId ta = g.add_task("a", a);
    const TaskId tb = g.add_task("b", b);
    g.add_control_dep(ta, tb);
    std::vector<TaskId> tasks{ta, tb};
    if (with_c) {
      Program c;
      c.compute(500).halt();
      tasks.push_back(g.add_task("c", c));
    }
    const Binding bind = bare_binding(g, tasks.size());
    SystemSimulator sim(g, bind, no_plan(bind));
    return sim.run(tasks);
  };
  const SimResult alone = run(false);
  const SimResult shared = run(true);
  EXPECT_EQ(shared.tasks[1].start_cycle, shared.tasks[0].finish_cycle + 1);
  EXPECT_EQ(shared.tasks[1].start_cycle, alone.tasks[1].start_cycle);
  EXPECT_EQ(shared.tasks[1].finish_cycle, alone.tasks[1].finish_cycle);
  EXPECT_GT(shared.skipped_cycles, 400u);
}

TEST(QuietStretch, NeverJumpsWhileALatchedPlainArbiterIsLive) {
  const LoneCompute w;
  SimOptions so;
  fault::FaultEvent e;
  e.kind = fault::FaultKind::kArbiterLatchup;
  e.cycle = 300;
  e.arbiter = 0;
  so.faults = {e};
  const SimResult r = w.run(so);
  EXPECT_EQ(r.tasks[2].finish_cycle, 1999u);
  // Only the stretch before the latch-up is jumped: the frozen register is
  // re-forced before every sample, so every later cycle is stepped.
  EXPECT_GT(r.skipped_cycles, 250u);
  EXPECT_LT(r.skipped_cycles, 300u);
}

}  // namespace
}  // namespace rcarb::rcsim
