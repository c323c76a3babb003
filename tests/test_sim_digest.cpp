// Pins the whole rcsim::SimResult over a seeded grid of designs, arbiter
// kinds, self-check modes, fault plans and option sets.  Each digest folds
// every counter, task and arbiter stat, metric histogram, diagnostic (with
// its detail), request trace, trace-sink event and the final memory of one
// grid row, so a change to the cycle engine that moves any observable output
// by one bit fails here with the row's name.  The constants were recorded
// from the per-cycle engine; they change only when a change means to move
// simulated behaviour.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/insertion.hpp"
#include "fault/fault.hpp"
#include "fft/fft_design.hpp"
#include "obs/trace.hpp"
#include "rcsim/system_sim.hpp"
#include "support/rng.hpp"

namespace rcarb::rcsim {
namespace {

/// FNV-1a over the fields fed in, in order.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Folds every trace event into a digest as it is emitted.
class DigestSink final : public obs::TraceSink {
 public:
  explicit DigestSink(Digest* d) : d_(d) {}
  void emit(const obs::TraceEvent& e) override {
    d_->u64(e.cycle);
    d_->u64(static_cast<std::uint64_t>(e.kind));
    d_->i64(e.task);
    d_->i64(e.arbiter);
    d_->i64(e.resource);
    d_->i64(e.value);
  }

 private:
  Digest* d_;
};

void fold(Digest& d, const obs::Histogram& h) {
  d.u64(h.count());
  d.u64(h.sum());
  d.u64(h.max());
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) d.u64(h.bucket(i));
  d.u64(h.percentile(0.5));
  d.u64(h.percentile(0.99));
}

void fold(Digest& d, const SimResult& r) {
  d.u64(r.cycles);
  for (const TaskStats& t : r.tasks) {
    d.u64(t.ran);
    d.u64(t.start_cycle);
    d.u64(t.finish_cycle);
    d.u64(t.ops_retired);
    d.u64(t.mem_accesses);
    d.u64(t.channel_ops);
    d.u64(t.grant_wait_cycles);
    d.u64(t.backpressure_cycles);
    d.u64(t.acquires);
  }
  for (const ArbiterStats& a : r.arbiters) {
    d.str(a.resource_name);
    d.i64(a.ports);
    d.u64(static_cast<std::uint64_t>(a.kind));
    d.u64(a.grants);
    d.u64(a.granted_cycles);
    d.u64(a.max_wait);
  }
  for (const std::uint64_t v :
       {r.bank_conflicts, r.channel_conflicts, r.protocol_violations,
        r.clobbered_reads, r.illegal_fsm_states, r.fsm_recoveries,
        r.multi_grant_cycles, r.hung_grants, r.watchdog_releases,
        r.corrupted_words, r.corrected_words, r.retries, r.admission_rejects,
        r.budget_exhausted, static_cast<std::uint64_t>(r.deadlocked),
        r.self_check_errors, r.self_check_resyncs, r.strikes, r.quarantined,
        r.remaps, r.drain_aborts, r.serving_cycles})
    d.u64(v);
  for (const degrade::QuarantineRecord& q : r.quarantine_events) {
    d.i64(q.resource);
    d.u64(static_cast<std::uint64_t>(q.state));
    d.u64(q.classified_cycle);
    d.u64(q.drained_cycle);
    d.u64(q.restored_cycle);
    d.u64(q.drain_aborted);
    d.i64(q.remap_target);
  }
  for (const SimDiagnostic& g : r.diagnostics) {
    d.u64(static_cast<std::uint64_t>(g.kind));
    d.u64(g.cycle);
    d.i64(g.task);
    d.i64(g.resource);
    d.str(g.detail);
  }
  for (const obs::ArbiterMetrics& m : r.arbiter_obs) {
    d.str(m.name);
    d.str(m.kind);
    d.i64(m.ports);
    fold(d, m.grant_latency);
    fold(d, m.hold_length);
    fold(d, m.queue_depth);
    for (const obs::PortMetrics& p : m.port) {
      d.u64(p.grants);
      d.u64(p.granted_cycles);
      d.u64(p.wait_cycles);
      d.u64(p.max_wait);
      d.u64(p.max_turns_waited);
    }
    for (const std::uint64_t v :
         {m.watchdog_fires, m.watchdog_releases, m.backoffs, m.retries,
          m.error_net_trips, m.resyncs})
      d.u64(v);
  }
  for (const auto& words : r.request_trace) {
    d.u64(words.size());
    for (const std::uint64_t w : words) d.u64(w);
  }
}

// ------------------------------------------------------------- the grid

/// One simulated partition: its rewritten graph, binding, plan and tasks.
struct Stage {
  tg::TaskGraph graph{""};
  core::Binding binding;
  core::ArbitrationPlan plan;
  std::vector<tg::TaskId> tasks;
};

/// Arbiter structure, policy and replication of one grid column.
struct ArbiterConfig {
  const char* name;
  core::Policy policy;
  core::ArbiterChoice kind;
  core::CheckMode check;
};

constexpr ArbiterConfig kArbiters[] = {
    {"flat", core::Policy::kRoundRobin, core::ArbiterChoice::kFlatFsm,
     core::CheckMode::kNone},
    {"tree", core::Policy::kRoundRobin, core::ArbiterChoice::kHierarchical,
     core::CheckMode::kNone},
    {"prefix", core::Policy::kRoundRobin, core::ArbiterChoice::kPrefix,
     core::CheckMode::kNone},
    {"fifo", core::Policy::kFifo, core::ArbiterChoice::kFlatFsm,
     core::CheckMode::kNone},
    {"priority", core::Policy::kPriority, core::ArbiterChoice::kFlatFsm,
     core::CheckMode::kNone},
    {"random", core::Policy::kRandom, core::ArbiterChoice::kFlatFsm,
     core::CheckMode::kNone},
    {"dmr", core::Policy::kRoundRobin, core::ArbiterChoice::kFlatFsm,
     core::CheckMode::kDuplicate},
    {"tmr", core::Policy::kRoundRobin, core::ArbiterChoice::kFlatFsm,
     core::CheckMode::kTmr},
};

/// Option set of one grid row.
enum class Variant {
  kPlain,      // probes, request trace, sink, details
  kResilient,  // degradation + hardening + watchdog + preemption
  kOverload,   // retry timeout, admission limit, retry budget
  kCut,        // max_cycles lands mid-run
  kBare,       // no probes, no request trace, no sink, no details
  kFragile,    // degradation without hardening; one strike quarantines
};
constexpr Variant kVariants[] = {Variant::kPlain, Variant::kResilient,
                                 Variant::kOverload, Variant::kCut,
                                 Variant::kBare};

enum class Plan { kNone, kSeu, kStuck, kPermanent, kRandom };
constexpr Plan kPlans[] = {Plan::kNone, Plan::kSeu, Plan::kStuck,
                           Plan::kPermanent, Plan::kRandom};

/// Handcrafted schedules put upsets, stuck windows, latch-ups and permanent
/// failures on a fixed cycle lattice, so most land inside compute
/// stretches; kRandom draws every kind from fault::plan_faults.
std::vector<fault::FaultEvent> make_faults(Plan plan, const Stage& s) {
  std::vector<fault::FaultEvent> out;
  const int arbiters = static_cast<int>(s.plan.arbiters.size());
  const auto ports = [&](int a) {
    return static_cast<int>(
        s.plan.arbiters[static_cast<std::size_t>(a)].ports.size());
  };
  switch (plan) {
    case Plan::kNone:
      break;
    case Plan::kSeu:
      for (int i = 0; i < 9 && arbiters > 0; ++i) {
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kFsmBitFlip;
        e.cycle = 45 + 97 * static_cast<std::uint64_t>(i);
        e.arbiter = i % arbiters;
        e.bit = 3 * i + 1;
        out.push_back(e);
      }
      break;
    case Plan::kStuck:
      for (int i = 0; i < 6 && arbiters > 0; ++i) {
        fault::FaultEvent e;
        e.kind = i % 3 == 0   ? fault::FaultKind::kReqStuck1
                 : i % 3 == 1 ? fault::FaultKind::kReqStuck0
                              : fault::FaultKind::kGrantStuck0;
        e.cycle = 70 + 131 * static_cast<std::uint64_t>(i);
        e.arbiter = i % arbiters;
        e.port = i % ports(e.arbiter);
        e.duration = 17 + 11 * static_cast<std::uint64_t>(i);
        out.push_back(e);
      }
      break;
    case Plan::kPermanent: {
      if (arbiters > 0) {
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kArbiterLatchup;
        e.cycle = 150;
        e.arbiter = arbiters - 1;
        out.push_back(e);
      }
      if (s.binding.num_banks > 0) {
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kBankFailure;
        e.cycle = 260;
        e.bank = s.binding.num_banks > 1 ? 1 : 0;
        out.push_back(e);
      }
      if (s.binding.num_phys_channels > 0) {
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kPermanentStuckChannel;
        e.cycle = 90;
        e.channel = 0;
        out.push_back(e);
      }
      break;
    }
    case Plan::kRandom: {
      fault::FaultTargets targets;
      for (int a = 0; a < arbiters; ++a) {
        targets.arbiter_ports.push_back(ports(a));
        targets.arbiter_state_bits.push_back(2 * ports(a));
      }
      targets.num_phys_channels =
          static_cast<int>(s.binding.num_phys_channels);
      targets.num_banks = static_cast<int>(s.binding.num_banks);
      if (targets.empty()) break;
      fault::FaultPlanOptions fo;
      fo.seed = 11;
      fo.horizon = 1500;
      fo.rate = 6e-3;
      fo.stuck_duration = 40;
      for (const fault::FaultKind k : fault::all_fault_kinds())
        fo.kinds.push_back(k);
      for (const fault::FaultKind k : fault::permanent_fault_kinds())
        fo.kinds.push_back(k);
      out = fault::plan_faults(targets, fo);
      break;
    }
  }
  return out;
}

/// Re-runs insertion for the column's policy and the row's retry timeout.
Stage insert(const tg::TaskGraph& graph, const core::Binding& binding,
             const std::vector<tg::TaskId>& tasks, core::Policy policy,
             int batch_m, int retry_timeout) {
  core::InsertionOptions io;
  io.policy = policy;
  io.batch_m = batch_m;
  io.retry_timeout = retry_timeout;
  core::InsertionResult ins =
      core::insert_arbitration(graph, binding, io, &tasks);
  Stage s;
  s.graph = std::move(ins.graph);
  s.binding = binding;
  s.plan = std::move(ins.plan);
  s.tasks = tasks;
  return s;
}

/// A design: its graph, one binding and task set per stage, the segments
/// preloaded before the first stage, and how long a stage may run under
/// the kCut row.
struct Design {
  tg::TaskGraph graph{""};
  std::vector<core::Binding> bindings;
  std::vector<std::vector<tg::TaskId>> stages;
  std::vector<std::pair<tg::SegmentId, std::vector<std::int64_t>>> preload;
  int batch_m = 2;
  std::uint64_t cut_cycles = 0;
};

/// Simulates every stage of `d` for one grid cell (memory carried across
/// stages) and returns the digest of all results and the final memory.
std::uint64_t run_cell(const Design& d, const ArbiterConfig& arb,
                       Variant variant, Plan plan) {
  Digest digest;
  DigestSink sink(&digest);
  std::vector<std::vector<std::int64_t>> memory(d.graph.num_segments());
  for (tg::SegmentId s = 0; s < d.graph.num_segments(); ++s)
    memory[s].assign(d.graph.segment(s).words, 0);
  for (const auto& [seg, words] : d.preload)
    std::copy(words.begin(), words.end(), memory[seg].begin());

  for (std::size_t i = 0; i < d.stages.size(); ++i) {
    const Stage stage =
        insert(d.graph, d.bindings[i], d.stages[i], arb.policy, d.batch_m,
               variant == Variant::kOverload ? 4 : 0);
    SimOptions so;
    so.strict = false;
    so.seed = 7;
    so.no_progress_window = 3000;
    so.arbiter_kind = arb.kind;
    so.self_check = arb.check;
    so.faults = make_faults(plan, stage);
    const bool bare = variant == Variant::kBare;
    so.arbiter_metrics = !bare;
    so.record_request_trace = !bare;
    so.diag_detail = !bare;
    so.trace_sink = bare ? nullptr : &sink;
    if (variant == Variant::kResilient) {
      so.degrade.enabled = true;
      so.harden = true;
      so.watchdog_timeout = 12;
      so.rr_max_hold = 3;
    }
    if (variant == Variant::kOverload) {
      so.admission_limit = 1;
      so.retry_budget = 2;
    }
    if (variant == Variant::kFragile) {
      so.degrade.enabled = true;
      so.degrade.strikes = 1;
    }
    if (variant == Variant::kCut) so.max_cycles = d.cut_cycles;
    SystemSimulator sim(stage.graph, stage.binding, stage.plan, so);
    for (tg::SegmentId s = 0; s < d.graph.num_segments(); ++s)
      sim.write_segment(s, memory[s]);
    fold(digest, sim.run(stage.tasks));
    for (tg::SegmentId s = 0; s < d.graph.num_segments(); ++s) {
      memory[s] = sim.segment_data(s);
      for (const std::int64_t w : memory[s]) digest.i64(w);
    }
  }
  return digest.value();
}

/// Folds every (variant, plan) row of one arbiter column into one digest.
std::uint64_t run_column(const Design& d, const ArbiterConfig& arb) {
  Digest column;
  for (const Variant v : kVariants)
    for (const Plan p : kPlans) column.u64(run_cell(d, arb, v, p));
  return column.value();
}

void expect_pinned(const Design& d, const char* design,
                   const std::uint64_t (&pinned)[std::size(kArbiters)]) {
  for (std::size_t i = 0; i < std::size(kArbiters); ++i) {
    const std::uint64_t got = run_column(d, kArbiters[i]);
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", got);
    EXPECT_EQ(got, pinned[i])
        << design << "/" << kArbiters[i].name << " digest is " << buf;
  }
}

// -------------------------------------------------------------- designs

/// The paper's Sec. 5 FFT block on its Fig. 11 pins: three partitions,
/// padded computes of 210 and 400 cycles.
Design fft_design() {
  const fft::FftDesign f = fft::build_fft_design();
  Design d;
  d.graph = f.graph;
  d.stages = fft::paper_partitions(f);
  for (std::size_t tp = 0; tp < d.stages.size(); ++tp)
    d.bindings.push_back(fft::paper_binding(f, tp));
  Rng rng(5);
  for (std::size_t r = 0; r < 4; ++r) {
    std::vector<std::int64_t> row(4);
    for (auto& v : row) v = rng.next_in(-128, 127);
    d.preload.emplace_back(f.mi[r], row);
  }
  d.cut_cycles = 333;
  return d;
}

/// The Fig. 8 two-writer bank, with a compute stretch after every store
/// batch and a third task that starts once both writers finish.
Design fig8_design() {
  Design d;
  d.graph = tg::TaskGraph("fig8");
  d.graph.add_segment("s0", 128, 32);
  d.graph.add_segment("s1", 128, 32);
  for (int t = 0; t < 2; ++t) {
    tg::Program p;
    p.load_imm(0, 0).load_imm(1, t + 1);
    for (int i = 0; i < 16; ++i) {
      p.store(t, 0, 1, i % 32).add_imm(1, 1, 3);
      if (i % 4 == 3) p.compute(30 + 7 * t);
    }
    p.halt();
    d.graph.add_task("t" + std::to_string(t), p, 10);
  }
  tg::Program tail;
  tail.load_imm(0, 0).compute(25).load(1, 0, 0, 5).store(1, 0, 1, 31).halt();
  const tg::TaskId t2 = d.graph.add_task("t2", tail, 10);
  d.graph.add_control_dep(0, t2);
  d.graph.add_control_dep(1, t2);
  core::Binding b;
  b.task_to_pe = {0, 1, 0};
  b.segment_to_bank = {0, 0};
  b.num_banks = 1;
  b.bank_names = {"MEM"};
  d.bindings = {b};
  d.stages = {{0, 1, 2}};
  d.batch_m = 4;
  d.cut_cycles = 120;
  return d;
}

/// Table 1's shared channel: three producer->consumer pairs whose logical
/// channels are merged onto one physical channel, with compute stretches
/// between the transfers.
Design channel_design() {
  Design d;
  d.graph = tg::TaskGraph("sharing");
  const tg::SegmentId out = d.graph.add_segment("out", 64, 8);
  std::vector<tg::TaskId> tasks;
  for (int i = 0; i < 3; ++i) {
    tg::Program producer;
    producer.load_imm(0, 100 + i).loop_begin(3);
    producer.compute(20 + 9 * i).send(i, 0).add_imm(0, 0, 1);
    producer.loop_end().halt();
    tg::Program consumer;
    consumer.load_imm(2, 0).loop_begin(3);
    consumer.compute(40 - 5 * i).recv(1, i).add(2, 2, 1);
    consumer.loop_end().load_imm(0, 0);
    consumer.store(static_cast<int>(out), 0, 2, i).halt();
    const tg::TaskId p =
        d.graph.add_task("prod" + std::to_string(i), producer, 60);
    const tg::TaskId c =
        d.graph.add_task("cons" + std::to_string(i), consumer, 60);
    d.graph.add_channel("c" + std::to_string(i), 8, p, c);
    tasks.push_back(p);
    tasks.push_back(c);
  }
  core::Binding b;
  b.task_to_pe = {0, 1, 0, 1, 0, 1};
  b.segment_to_bank = {0};
  b.channel_to_phys = {0, 0, 0};
  b.num_banks = 2;
  b.num_phys_channels = 1;
  b.bank_names = {"B0", "B1"};
  b.phys_channel_names = {"PE0-PE1"};
  d.bindings = {b};
  d.stages = {tasks};
  d.cut_cycles = 75;
  return d;
}

TEST(SimDigest, FftPartitions) {
  constexpr std::uint64_t kPinned[] = {
      0xce8a34dae31aebccull,
      0x20cbc1b4f6dc0bb3ull,
      0x4ab5930248ee0393ull,
      0x9c46f3ae9ed3b823ull,
      0x530f6b2be8c46e29ull,
      0x535e9b55507acdceull,
      0x3ac87abcf8fda3fdull,
      0xca67028525648bd9ull};
  expect_pinned(fft_design(), "fft", kPinned);
}

TEST(SimDigest, Fig8Bank) {
  constexpr std::uint64_t kPinned[] = {
      0x64e1ba4d886c8bc5ull,
      0x242ac02b365d4caeull,
      0x2bcf89fa13513619ull,
      0xd2ae08791278b5daull,
      0xd2ae08791278b5daull,
      0xb100c05123c1a3b8ull,
      0x42ba97449e2bc556ull,
      0xbfdd4da2231ed9ceull};
  expect_pinned(fig8_design(), "fig8", kPinned);
}

TEST(SimDigest, SharedChannel) {
  constexpr std::uint64_t kPinned[] = {
      0xe057d5855a3af293ull,
      0xaf8964f75ef5b5dbull,
      0x2d027f02adf6f8afull,
      0x0a0cc7fca7744427ull,
      0x0a0cc7fca7744427ull,
      0x0a0cc7fca7744427ull,
      0x8e54c68c558aa31aull,
      0x51b69174cf109f48ull};
  expect_pinned(channel_design(), "channel", kPinned);
}

// A single upset quarantines an unhardened self-checking arbiter, whose
// reconfiguration stall then runs while the other tasks compute: the
// stretch must not jump over the end of the stall.
TEST(SimDigest, QuarantineInsideComputeStretches) {
  const std::pair<const char*, Design> designs[] = {
      {"fft", fft_design()}, {"fig8", fig8_design()},
      {"channel", channel_design()}};
  constexpr std::uint64_t kPinned[] = {
      0xca597b68d88f9c8bull,
      0x20e2ba0b446b5991ull,
      0x92c3bf07ec95e206ull};
  for (std::size_t i = 0; i < std::size(designs); ++i) {
    Digest d;
    for (const ArbiterConfig& arb : kArbiters)
      for (const Plan p : kPlans)
        d.u64(run_cell(designs[i].second, arb, Variant::kFragile, p));
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ull", d.value());
    EXPECT_EQ(d.value(), kPinned[i])
        << designs[i].first << " digest is " << buf;
  }
}

}  // namespace
}  // namespace rcarb::rcsim
