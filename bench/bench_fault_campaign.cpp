// Fault campaign: sweeps fault kind x rate x policy x hardening over a
// contention workload and reports survival, recovery actions and corruption
// counts.  The claim under test is the robustness contract: hardened runs
// ride out every injected fault (no deadlock, no uncorrected corruption),
// and unhardened runs may die but always die *attributed* — an illegal FSM
// state, a hung grant or a wait-for-graph deadlock in the diagnostics,
// never a silent hang.  The whole campaign is deterministic from one seed:
// cells run in parallel across $RCARB_JOBS workers, each with a fault plan
// seeded from (kSeed, cell index), and the report is reduced in cell-index
// order, so the output is byte-identical at any job count (RCARB_JOBS=1 is
// the plain serial loop).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/insertion.hpp"
#include "fault/fault.hpp"
#include "fault/replica_batch.hpp"
#include "netlist/wide_simulator.hpp"
#include "obs/bench_report.hpp"
#include "support/cpu.hpp"
#include "rcsim/system_sim.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace rcarb;
using core::Policy;

/// Four tasks: two hammer one bank, two share one physical channel into a
/// common receiver (which also stores to the bank) — every arbiter class
/// the insertion pass can build is present and busy.
struct Workload {
  tg::TaskGraph g{"campaign"};
  core::Binding binding;

  Workload() {
    g.add_segment("s0", 64, 16);
    g.add_segment("s1", 64, 16);

    // Programs sized so the fault-free run spans most of the campaign
    // horizon — faults must land while the arbiters are busy.
    tg::Program t0;  // bank hammerer, then one channel word
    t0.load_imm(0, 0).load_imm(1, 7);
    t0.loop_begin(90);
    for (int i = 0; i < 4; ++i) t0.store(0, 0, 1, i);
    t0.loop_end();
    t0.send(1, 1).halt();
    tg::Program t1;  // bank hammerer
    t1.load_imm(0, 0).load_imm(1, 9);
    t1.loop_begin(90);
    for (int i = 0; i < 4; ++i) t1.store(1, 0, 1, 4 + i);
    t1.loop_end();
    t1.halt();
    tg::Program t2;  // streams words to t3
    t2.load_imm(1, 100);
    t2.loop_begin(60).send(0, 1).add_imm(1, 1, 1).loop_end();
    t2.halt();
    tg::Program t3;  // consumes both channels, stores into the shared bank
    t3.load_imm(0, 0);
    t3.loop_begin(60).recv(2, 0).store(0, 0, 2, 8).loop_end();
    t3.recv(2, 1).store(0, 0, 2, 9).halt();

    const tg::TaskId a = g.add_task("hammer0", t0, 1);
    g.add_task("hammer1", t1, 1);
    const tg::TaskId c = g.add_task("stream", t2, 1);
    const tg::TaskId d = g.add_task("sink", t3, 1);
    g.add_channel("c_stream", 32, c, d);
    g.add_channel("c_tail", 32, a, d);

    binding.task_to_pe = {0, 1, 2, 3};
    binding.segment_to_bank = {0, 0};
    binding.channel_to_phys = {0, 0};
    binding.num_banks = 1;
    binding.num_phys_channels = 1;
    binding.bank_names = {"BANK"};
    binding.phys_channel_names = {"CH"};
  }
};

struct CellResult {
  bool survived = false;
  bool attributed = false;  // died with a typed cause in the diagnostics
  rcsim::SimResult sim;
};

constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kHorizon = 1500;
constexpr int kWatchdog = 32;
constexpr std::uint64_t kWindow = 2000;

CellResult run_cell(const Workload& w, Policy policy, fault::FaultKind kind,
                    double rate, bool harden,
                    const std::vector<fault::FaultEvent>* explicit_faults =
                        nullptr,
                    std::uint64_t plan_seed = kSeed) {
  core::InsertionOptions io;
  io.policy = policy;
  io.retry_timeout = 12;
  const core::InsertionResult ins =
      core::insert_arbitration(w.g, w.binding, io);

  fault::FaultTargets targets;
  for (const core::ArbiterInstance& inst : ins.plan.arbiters) {
    targets.arbiter_ports.push_back(static_cast<int>(inst.ports.size()));
    targets.arbiter_state_bits.push_back(
        2 * static_cast<int>(inst.ports.size()));  // one-hot Fig. 5: Fi + Ci
  }
  targets.num_phys_channels =
      static_cast<int>(w.binding.num_phys_channels);

  fault::FaultPlanOptions fo;
  fo.seed = plan_seed;
  fo.horizon = kHorizon;
  fo.rate = rate;
  fo.stuck_duration = 64;
  fo.kinds = {kind};

  rcsim::SimOptions so;
  so.strict = false;
  // The campaign only counts diagnostic kinds; skip the per-event string
  // formatting across the ~200-cell sweep.
  so.diag_detail = false;
  so.harden = harden;
  so.watchdog_timeout = kWatchdog;
  so.no_progress_window = kWindow;
  so.faults =
      explicit_faults ? *explicit_faults : fault::plan_faults(targets, fo);

  rcsim::SystemSimulator sim(ins.graph, w.binding, ins.plan, so);
  CellResult cell;
  cell.sim = sim.run({0, 1, 2, 3});
  bool all_finished = true;
  for (const rcsim::TaskStats& t : cell.sim.tasks)
    all_finished = all_finished && t.ran && t.finish_cycle > 0;
  cell.survived = !cell.sim.deadlocked && all_finished;
  using rcsim::DiagKind;
  cell.attributed = cell.sim.count(DiagKind::kIllegalFsmState) +
                        cell.sim.count(DiagKind::kHungGrant) +
                        cell.sim.count(DiagKind::kDeadlock) +
                        cell.sim.count(DiagKind::kNoProgress) >
                    0;
  return cell;
}

/// One point of the sweep.  The list is built up front so cells can run on
/// the pool; `targeted_seu` marks the two worst-case cells appended after
/// the random-rate grid.
struct CellSpec {
  Policy policy = Policy::kRoundRobin;
  fault::FaultKind kind = fault::FaultKind::kFsmBitFlip;
  double rate = 0.0;
  bool harden = false;
  bool targeted_seu = false;
};

std::vector<CellSpec> campaign_cells() {
  std::vector<CellSpec> cells;
  for (const Policy policy :
       {Policy::kRoundRobin, Policy::kPriority, Policy::kFifo})
    for (const fault::FaultKind kind : fault::all_fault_kinds())
      for (const double rate : {7e-4, 2e-3, 8e-3})
        for (const bool harden : {false, true})
          cells.push_back({policy, kind, rate, harden, false});
  // Worst-case targeted SEU: clear the hot reset bit (F0) of the bank
  // arbiter at cycle 0 — the register goes zero-hot, the scan logic never
  // fires again, and every client of the bank wedges.  The unhardened
  // round-robin arbiter must die *attributed*; the hardened one reloads the
  // reset code in one clock and the run completes untouched.
  for (const bool harden : {false, true})
    cells.push_back(
        {Policy::kRoundRobin, fault::FaultKind::kFsmBitFlip, 0.0, harden,
         true});
  return cells;
}

void print_campaign(obs::BenchReporter& rep) {
  const Workload w;
  Table table(
      "Fault campaign — kind x rate x policy x hardening (seed 42, horizon "
      "1500, watchdog 32, retry 12)");
  table.set_header({"policy", "fault", "rate", "hardened", "survived",
                    "cycles", "ill/rec", "hung/rel", "corr/fix", "retries",
                    "verdict"});

  const std::vector<CellSpec> cells = campaign_cells();
  const std::vector<fault::FaultEvent> seu = {
      {0, fault::FaultKind::kFsmBitFlip, /*arbiter=*/0, /*port=*/0,
       /*bit=*/0, /*channel=*/0, /*xor_mask=*/0, /*duration=*/1}};

  int hardened_cells = 0, hardened_ok = 0;
  int dead_cells = 0, dead_attributed = 0;
  // Cells are independent simulations: map them across the pool, each with
  // a fault plan derived from (kSeed, cell index), and fold rows/counters
  // in index order so the table and report never depend on the job count.
  ordered_map_reduce<CellResult>(
      cells.size(),
      [&](std::size_t i) {
        const CellSpec& c = cells[i];
        return run_cell(w, c.policy, c.kind, c.rate, c.harden,
                        c.targeted_seu ? &seu : nullptr,
                        derive_seed(kSeed, i));
      },
      [&](std::size_t i, CellResult cell) {
        const CellSpec& c = cells[i];
        const auto& r = cell.sim;
        std::string verdict;
        if (c.harden) {
          ++hardened_cells;
          const bool ok = cell.survived && r.corrupted_words == 0;
          if (ok) ++hardened_ok;
          verdict = ok ? "rides through" : "HARDENED FAILURE";
        } else if (cell.survived) {
          verdict = !c.targeted_seu && r.diagnostics.empty()
                        ? "unaffected"
                        : "limps through";
        } else {
          ++dead_cells;
          if (cell.attributed) ++dead_attributed;
          verdict = cell.attributed ? "dies, attributed" : "SILENT HANG";
        }
        table.add_row(
            {core::to_string(c.policy),
             c.targeted_seu ? "targeted-seu" : fault::to_string(c.kind),
             c.targeted_seu ? "worst" : fmt_fixed(c.rate * 1e3, 1) + "e-3",
             c.harden ? "yes" : "no", cell.survived ? "yes" : "NO",
             std::to_string(r.cycles),
             std::to_string(r.illegal_fsm_states) + "/" +
                 std::to_string(r.fsm_recoveries),
             std::to_string(r.hung_grants) + "/" +
                 std::to_string(r.watchdog_releases),
             std::to_string(r.corrupted_words) + "/" +
                 std::to_string(r.corrected_words),
             std::to_string(r.retries), verdict});
      });

  rep.metric("campaign_cells", static_cast<double>(cells.size()), "cells");
  rep.metric("hardened_cells", hardened_cells, "cells");
  rep.metric("hardened_survived", hardened_ok, "cells");
  rep.metric("unhardened_deaths", dead_cells, "cells");
  rep.metric("deaths_attributed", dead_attributed, "cells");
  rep.note("jobs", "RCARB_JOBS-controlled; output is identical at any job "
                   "count");
  table.print();
  std::printf(
      "hardened: %d/%d cells survived with zero uncorrected corruptions\n"
      "unhardened deaths: %d/%d attributed in the diagnostics (illegal FSM "
      "state,\nhung grant or wait-for-graph deadlock) — no silent hangs\n\n",
      hardened_ok, hardened_cells, dead_attributed, dead_cells);
}

void BM_PlanFaults(benchmark::State& state) {
  fault::FaultTargets targets;
  targets.arbiter_ports = {4, 2};
  targets.arbiter_state_bits = {8, 4};
  targets.num_phys_channels = 1;
  fault::FaultPlanOptions fo;
  fo.rate = static_cast<double>(state.range(0)) * 1e-4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::plan_faults(targets, fo));
  }
}
BENCHMARK(BM_PlanFaults)->Arg(5)->Arg(50);

void BM_CampaignCell(benchmark::State& state) {
  const Workload w;
  const bool harden = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_cell(w, Policy::kRoundRobin,
                                      fault::FaultKind::kFsmBitFlip, 2e-3,
                                      harden));
  }
}
BENCHMARK(BM_CampaignCell)->Arg(0)->Arg(1);

/// Wide-lane SEU replicas of the campaign's bank arbiter: record the
/// effective request stream the behavioral arbiter saw during one clean
/// run, then replay it against the memo-cached hardened *synthesized*
/// netlist through fault::run_replica_batch — 4096 replicas fanned out as
/// (passes x lanes) over the widest SIMD kernel this machine has, pass
/// workers on $RCARB_JOBS.  Each replica's SEU is staggered across the
/// stream.  This is the netlist-level fault batch the campaign's cycle
/// budget goes into, timed end to end; the per-replica checksums are
/// byte-identical to 4096 scalar runs at any width, tier or job count.
/// Items are delivered replica-cycles; the `delivered` and `simulated`
/// counters set them beside the lane-cycles the passes stepped.
void BM_LaneReplicaCampaign(benchmark::State& state) {
  const Workload w;
  core::InsertionOptions io;
  io.policy = Policy::kRoundRobin;
  io.retry_timeout = 12;
  const core::InsertionResult ins =
      core::insert_arbitration(w.g, w.binding, io);
  rcsim::SimOptions so;
  so.record_request_trace = true;
  rcsim::SystemSimulator sim(ins.graph, w.binding, ins.plan, so);
  const rcsim::SimResult res = sim.run({0, 1, 2, 3});
  std::size_t bank = 0;  // the 3-port arbiter guards the shared bank
  for (std::size_t a = 0; a < ins.plan.arbiters.size(); ++a)
    if (ins.plan.arbiters[a].ports.size() == 3) bank = a;
  const std::vector<std::uint64_t>& trace = res.request_trace[bank];

  const auto& rr3 = core::generate_arbiter_cached(
                         {.n = 3,
                          .mode = core::GeneratorMode::kBehavioral,
                          .harden = true})
                         .synth;
  fault::ReplicaBatchSpec spec;
  spec.netlist = &rr3.netlist;
  for (int i = 0; i < 3; ++i) {
    spec.req.push_back(*rr3.netlist.find_net("req" + std::to_string(i)));
    spec.grant.push_back(*rr3.netlist.find_net("grant" + std::to_string(i)));
  }
  for (std::size_t s = 0;; ++s) {
    const auto net = rr3.netlist.find_net("state" + std::to_string(s));
    if (!net.has_value()) break;
    spec.state.push_back(*net);
  }
  spec.requests = trace;
  constexpr std::size_t kReplicas = 4096;
  for (std::size_t r = 0; r < kReplicas; ++r)
    spec.seu.push_back({static_cast<std::uint32_t>(r * 37 % trace.size()),
                        static_cast<std::uint32_t>(r % spec.state.size())});

  std::uint64_t folded = 0;
  std::uint64_t simulated = 0;
  for (auto _ : state) {
    const fault::ReplicaBatchResult batch = fault::run_replica_batch(spec);
    if (folded == 0) {
      folded = batch.folded;
    } else if (folded != batch.folded) {
      state.SkipWithError("replica checksums diverged across iterations");
    }
    simulated = batch.simulated_lane_cycles;
    benchmark::DoNotOptimize(batch.folded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kReplicas *
                                                    trace.size()));
  state.counters["delivered"] =
      static_cast<double>(kReplicas * trace.size());
  state.counters["simulated"] = static_cast<double>(simulated);
  state.SetLabel(std::string("simd=") + to_string(simd_tier()));
}
BENCHMARK(BM_LaneReplicaCampaign);

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("fault_campaign");
  // Resolved once per process: the SIMD kernel tier the replica batches
  // dispatch to ($RCARB_SIMD can cap it below the machine's).
  rep.note("simd_tier", rcarb::to_string(rcarb::simd_tier()));
  print_campaign(rep);
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
