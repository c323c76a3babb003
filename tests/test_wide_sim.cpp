// Cross-width equivalence of the wide-lane engine: the scalar Simulator
// (full topo pass per settle, the oracle) vs the event-driven
// WideLaneSimulator at 64/256/512 lanes, across SIMD kernel tiers, under
// SEU pokes and mid-run reset() — all bit-identical.  Plus the threaded
// replica-batch entry point (fault::run_replica_batch): byte-identical
// checksums at 1/2/8 jobs and across lane widths and tiers, every replica
// against the scalar oracle, its streamed chunk fold across grant counts
// and partial final chunks, its grant-count check, its fault-dropping
// passes (edge SEU cycles, pass boundaries, replica counts, a netlist
// whose lanes never rejoin and one whose divergence hides in a DFF
// outside the state register), and the support/cpu tier-resolution
// rules.
// Last, the 64-lane lockstep suite: the 64-lane engine vs one scalar
// oracle per lane under random requests and SEU pokes, event-driven
// LUT-evaluation bounds, poke cone seeding, name-lookup-free cycle loops
// and request-trace replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "core/insertion.hpp"
#include "core/policy.hpp"
#include "fault/replica_batch.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "netlist/wide_simulator.hpp"
#include "rcsim/system_sim.hpp"
#include "support/check.hpp"
#include "support/cpu.hpp"
#include "support/rng.hpp"
#include "synth/flow.hpp"
#include "taskgraph/taskgraph.hpp"

namespace rcarb::netlist {
namespace {

/// The fault campaign's bank arbiter: hardened 3-port behavioral
/// round-robin.
const core::ArbiterSpec kHardened3{
    .n = 3, .mode = core::GeneratorMode::kBehavioral, .harden = true};

/// Nets every engine drives/observes: primary inputs, and the q nets +
/// marked outputs folded into the per-lane checksum.
struct Ports {
  std::vector<NetId> in;
  std::vector<NetId> observed;
  std::vector<NetId> state;  // q nets (poke targets)
};

Ports collect_ports(const Netlist& nl) {
  Ports p;
  p.in = nl.inputs();
  for (const Dff& dff : nl.dffs()) {
    p.state.push_back(dff.q);
    p.observed.push_back(dff.q);
  }
  for (const auto& [net, name] : nl.outputs()) p.observed.push_back(net);
  return p;
}

/// A random synchronous LUT/DFF netlist: LUT inputs only reference
/// earlier-created nets (primary inputs, q nets, earlier LUT outputs), so
/// the combinational graph is acyclic by construction; DFF d inputs may
/// close sequential loops over anything.
Netlist random_netlist(std::uint64_t seed, int num_inputs, int num_dffs,
                       int num_luts) {
  Rng rng(seed);
  Netlist nl;
  std::vector<NetId> pool;
  for (int i = 0; i < num_inputs; ++i)
    pool.push_back(nl.add_input("in" + std::to_string(i)));
  for (int i = 0; i < num_dffs; ++i)
    pool.push_back(nl.add_dff(pool[0], rng.next_below(2) == 1,
                              "state" + std::to_string(i)));
  for (int i = 0; i < num_luts; ++i) {
    const std::size_t arity = 1 + rng.next_below(kMaxLutInputs);
    std::vector<NetId> inputs;
    for (std::size_t k = 0; k < arity; ++k)
      inputs.push_back(pool[rng.next_below(pool.size())]);
    const auto mask = static_cast<std::uint16_t>(
        rng.next_below(std::uint64_t{1} << (std::uint64_t{1} << arity)));
    pool.push_back(nl.add_lut(std::move(inputs), mask,
                              "lut" + std::to_string(i)));
  }
  for (int i = 0; i < num_dffs; ++i)
    nl.connect_dff_d(static_cast<std::size_t>(i),
                     pool[rng.next_below(pool.size())]);
  nl.mark_output(pool.back(), "out");
  return nl;
}

/// Per-lane input bit for (seed, lane, cycle, input) — width-independent,
/// so lane l sees the same stimulus no matter how many lanes ride along.
bool lane_input_bit(std::uint64_t seed, std::size_t lane, int cycle,
                    std::size_t input) {
  Rng rng(derive_seed(seed, lane * 1000003u + static_cast<std::size_t>(cycle) *
                                                  131u +
                                              input));
  return rng.next_below(2) == 1;
}

struct LaneRunConfig {
  std::size_t lanes = 64;
  std::optional<SimdTier> tier;
  int cycles = 120;
  int reset_at = -1;       // mid-run reset() cycle, -1 = never
  int poke_every = 13;     // SEU cadence, 0 = no pokes
};

/// Drives a WideLaneSimulator with the (seed, lane)-derived stimulus and
/// returns one checksum per lane over the observed nets.
std::vector<std::uint64_t> run_wide(const Netlist& nl, const Ports& p,
                                    std::uint64_t seed,
                                    const LaneRunConfig& cfg) {
  WideLaneSimulator sim(nl, cfg.lanes, cfg.tier);
  std::vector<std::uint64_t> checksum(cfg.lanes, 0);
  std::vector<std::uint64_t> row(sim.words());
  for (int cyc = 0; cyc < cfg.cycles; ++cyc) {
    if (cyc == cfg.reset_at) sim.reset();
    for (std::size_t i = 0; i < p.in.size(); ++i) {
      for (std::size_t w = 0; w < sim.words(); ++w) {
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < 64; ++b)
          if (lane_input_bit(seed, w * 64 + b, cyc, i))
            word |= std::uint64_t{1} << b;
        row[w] = word;
      }
      sim.set_input(p.in[i], row.data());
    }
    sim.settle();
    for (std::size_t o = 0; o < p.observed.size(); ++o) {
      sim.get(p.observed[o], row.data());
      for (std::size_t l = 0; l < cfg.lanes; ++l)
        checksum[l] =
            checksum[l] * 31 + (((row[l / 64] >> (l % 64)) & 1u) ? o + 1 : 0);
    }
    if (cfg.poke_every > 0 && !p.state.empty() &&
        cyc % cfg.poke_every == cfg.poke_every - 1) {
      // Each lane pokes its own register: lane l flips state[l % S].
      for (std::size_t l = 0; l < cfg.lanes; ++l) {
        const NetId reg = p.state[l % p.state.size()];
        sim.poke_register_lane(reg, l, !sim.get_lane(reg, l));
      }
    }
    sim.clock();
  }
  return checksum;
}

/// The same run on the scalar Simulator for one lane.
std::uint64_t run_scalar_lane(const Netlist& nl, const Ports& p,
                              std::uint64_t seed, std::size_t lane,
                              const LaneRunConfig& cfg) {
  Simulator sim(nl);
  std::uint64_t checksum = 0;
  for (int cyc = 0; cyc < cfg.cycles; ++cyc) {
    if (cyc == cfg.reset_at) sim.reset();
    for (std::size_t i = 0; i < p.in.size(); ++i)
      sim.set_input(p.in[i], lane_input_bit(seed, lane, cyc, i));
    sim.settle();
    for (std::size_t o = 0; o < p.observed.size(); ++o)
      checksum = checksum * 31 + (sim.get(p.observed[o]) ? o + 1 : 0);
    if (cfg.poke_every > 0 && !p.state.empty() &&
        cyc % cfg.poke_every == cfg.poke_every - 1) {
      const NetId reg = p.state[lane % p.state.size()];
      sim.poke_register(reg, !sim.get(reg));
    }
    sim.clock();
  }
  return checksum;
}

/// Asserts scalar-vs-wide and wide-vs-wide checksum equality for one
/// netlist: widths 64/256/512 (auto tier + forced-portable), with SEU
/// pokes and a mid-run reset.  The scalar oracle settles with a full topo
/// pass and the wide engine event-driven, so every lane also checks that
/// the two strategies reach the same fixed point.
void check_cross_width(const Netlist& nl, std::uint64_t seed) {
  const Ports p = collect_ports(nl);
  ASSERT_FALSE(p.observed.empty());

  LaneRunConfig cfg;
  cfg.reset_at = 57;
  std::vector<std::vector<std::uint64_t>> by_width;
  for (const std::size_t lanes : {std::size_t{64}, std::size_t{256},
                                  std::size_t{512}}) {
    cfg.lanes = lanes;
    cfg.tier = std::nullopt;  // auto: widest kernel this machine has
    const std::vector<std::uint64_t> auto_tier = run_wide(nl, p, seed, cfg);
    cfg.tier = SimdTier::kAvx2;  // capped at the AVX2 kernels
    const std::vector<std::uint64_t> avx2 = run_wide(nl, p, seed, cfg);
    cfg.tier = SimdTier::kScalar;  // forced-portable kernel
    const std::vector<std::uint64_t> portable = run_wide(nl, p, seed, cfg);
    ASSERT_EQ(auto_tier, portable)
        << "SIMD kernel diverged from the portable kernel at " << lanes
        << " lanes";
    ASSERT_EQ(avx2, portable)
        << "AVX2 kernel diverged from the portable kernel at " << lanes
        << " lanes";
    by_width.push_back(auto_tier);
  }
  // Lane l must agree across widths (the stimulus is lane-derived).
  for (std::size_t l = 0; l < 64; ++l) {
    ASSERT_EQ(by_width[0][l], by_width[1][l]) << "64 vs 256, lane " << l;
    ASSERT_EQ(by_width[0][l], by_width[2][l]) << "64 vs 512, lane " << l;
  }
  for (std::size_t l = 64; l < 256; ++l)
    ASSERT_EQ(by_width[1][l], by_width[2][l]) << "256 vs 512, lane " << l;
  // Scalar oracle for every 64-lane lane (each one pokes its own
  // register, so together they cover every state bit), plus high lanes
  // only the wider runs carry.
  for (std::size_t lane = 0; lane < 64; ++lane)
    ASSERT_EQ(run_scalar_lane(nl, p, seed, lane, cfg), by_width[0][lane])
        << "scalar vs 64-lane, lane " << lane;
  for (const std::size_t lane : {std::size_t{64}, std::size_t{200}})
    ASSERT_EQ(run_scalar_lane(nl, p, seed, lane, cfg), by_width[1][lane])
        << "scalar vs 256-lane, lane " << lane;
  ASSERT_EQ(run_scalar_lane(nl, p, seed, 511, cfg), by_width[2][511])
      << "scalar vs 512-lane, lane 511";
}

TEST(WideCrossWidth, RandomNetlistsAgreeAcrossWidthsTiersAndModes) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Netlist nl =
        random_netlist(seed, /*num_inputs=*/5, /*num_dffs=*/6,
                       /*num_luts=*/40);
    check_cross_width(nl, seed * 17);
  }
}

TEST(WideCrossWidth, HardenedArbiterAgreesAcrossWidths) {
  const auto& s = core::generate_arbiter_cached(kHardened3).synth;
  check_cross_width(s.netlist, 4242);
}

TEST(WideCrossWidth, StructuralArbiterAgreesAcrossWidths) {
  const auto& g = core::generate_arbiter_cached({.n = 8});
  check_cross_width(g.synth.netlist, 9001);
}

TEST(WideKernel, DispatchReportsAtMostTheMachineTier) {
  const auto& s = core::generate_arbiter_cached(kHardened3).synth;
  for (const std::size_t lanes : {std::size_t{64}, std::size_t{256},
                                  std::size_t{512}}) {
    WideLaneSimulator sim(s.netlist, lanes);
    EXPECT_LE(sim.kernel_tier(), simd_tier());
    EXPECT_EQ(sim.lanes(), lanes);
    EXPECT_EQ(sim.words(), lanes / 64);
    // 64-lane rows have no SIMD kernel: always the portable engine.
    if (lanes == 64) {
      EXPECT_EQ(sim.kernel_tier(), SimdTier::kScalar);
    }
    // A SIMD kernel only dispatches when the machine has it.
    if (lanes == 256 && simd_tier() >= SimdTier::kAvx2) {
      EXPECT_EQ(sim.kernel_tier(), SimdTier::kAvx2);
    }
    if (lanes == 512 && simd_tier() >= SimdTier::kAvx512) {
      EXPECT_EQ(sim.kernel_tier(), SimdTier::kAvx512);
    }
    // Capped at AVX2, both wide widths still run a vector kernel.
    if (lanes >= 256 && simd_tier() >= SimdTier::kAvx2) {
      WideLaneSimulator avx2(s.netlist, lanes, SimdTier::kAvx2);
      EXPECT_EQ(avx2.kernel_tier(), SimdTier::kAvx2);
    }
    // Forcing the portable kernel always sticks.
    WideLaneSimulator forced(s.netlist, lanes, SimdTier::kScalar);
    EXPECT_EQ(forced.kernel_tier(), SimdTier::kScalar);
  }
}

TEST(WideEventDriven, SkipsCleanLutsAndPokesStayIncremental) {
  const auto& g = core::generate_arbiter_cached({.n = 8});
  const Netlist& nl = g.synth.netlist;
  const Ports p = collect_ports(nl);

  WideLaneSimulator event(nl, 256);
  Simulator oracle(nl);  // every lane sees the same inputs
  event.set_input_all(nl.inputs()[2], true);
  oracle.set_input(nl.inputs()[2], true);
  for (int cyc = 0; cyc < 100; ++cyc) {
    event.settle();
    event.clock();
    oracle.settle();
    oracle.clock();
  }
  // Only the constructor's reset() takes a full pass; the 200 settles
  // after it skip clean LUTs, so they cost less than one pass each.
  EXPECT_EQ(event.full_settles(), 1u);
  EXPECT_EQ(event.event_settles(), 200u);
  EXPECT_LT(event.luts_evaluated(), nl.num_luts() * 201);

  // A poke seeds the fanout cone — no full-resettle fallback.
  const std::uint64_t full_passes = event.full_settles();
  const std::uint64_t evals = event.luts_evaluated();
  event.poke_register_lane(p.state[0], 137, !event.get_lane(p.state[0], 137));
  oracle.poke_register(p.state[0], !oracle.get(p.state[0]));
  EXPECT_EQ(event.full_settles(), full_passes);
  EXPECT_LT(event.luts_evaluated() - evals, nl.num_luts());
  for (NetId net = 0; net < nl.num_nets(); ++net)
    EXPECT_EQ(event.get_lane(net, 137), oracle.get(net)) << nl.net_name(net);
}

// poke_registers writes several register rows and settles once: the
// result equals one poke_register per row, each settling on its own.
TEST(WideEventDriven, PokeRegistersWritesEveryRowThenSettlesOnce) {
  const auto& g = core::generate_arbiter_cached({.n = 8});
  const Netlist& nl = g.synth.netlist;
  const Ports p = collect_ports(nl);
  ASSERT_GE(p.state.size(), 3u);
  WideLaneSimulator batched(nl, 128);
  WideLaneSimulator one_by_one(nl, 128);
  for (WideLaneSimulator* sim : {&batched, &one_by_one}) {
    sim->set_input_all(p.in[1], true);
    sim->settle();
    sim->clock();
  }
  const std::vector<NetId> nets = {p.state[0], p.state[2], p.state[1]};
  std::vector<std::uint64_t> rows(nets.size() * batched.words());
  for (std::size_t k = 0; k < nets.size(); ++k) {
    batched.get(nets[k], rows.data() + k * batched.words());
    rows[k * batched.words() + k % 2] ^= 0x5a5a0000ffff0001ull << k;
  }
  const std::uint64_t settles = batched.event_settles();
  batched.poke_registers(nets, rows.data());
  EXPECT_EQ(batched.event_settles(), settles + 1);
  for (std::size_t k = 0; k < nets.size(); ++k)
    one_by_one.poke_register(nets[k], rows.data() + k * batched.words());
  std::vector<std::uint64_t> a(batched.words());
  std::vector<std::uint64_t> b(batched.words());
  for (NetId net = 0; net < nl.num_nets(); ++net) {
    batched.get(net, a.data());
    one_by_one.get(net, b.data());
    EXPECT_EQ(a, b) << nl.net_name(net);
  }
  const NetId input = p.in[0];
  EXPECT_THROW(batched.poke_registers({&input, 1}, rows.data()), CheckError);
}

TEST(WideNameLookups, ResolvedIdLoopsDoNoStringHashing) {
  const auto& g = core::generate_arbiter_cached({.n = 4});
  const Netlist& nl = g.synth.netlist;
  const Ports p = collect_ports(nl);
  WideLaneSimulator sim(nl, 256);
  for (int cyc = 0; cyc < 50; ++cyc) {
    sim.set_input_all(p.in[static_cast<std::size_t>(cyc) % p.in.size()],
                      (cyc & 1) != 0);
    sim.settle();
    for (const NetId net : p.observed) (void)sim.get_lane(net, 200);
    sim.clock();
  }
  EXPECT_EQ(sim.name_lookups(), 0u);
  (void)sim.get_lane("grant0", 0);
  EXPECT_EQ(sim.name_lookups(), 1u);
}

// ---- Threaded replica batches. ----

fault::ReplicaBatchSpec campaign_spec(const Netlist& nl, int n,
                                      std::size_t replicas,
                                      std::uint64_t seed,
                                      std::size_t cycles) {
  fault::ReplicaBatchSpec spec;
  spec.netlist = &nl;
  for (int i = 0; i < n; ++i) {
    spec.req.push_back(*nl.find_net("req" + std::to_string(i)));
    spec.grant.push_back(*nl.find_net("grant" + std::to_string(i)));
  }
  for (std::size_t s = 0;; ++s) {
    const auto net = nl.find_net("state" + std::to_string(s));
    if (!net.has_value()) break;
    spec.state.push_back(*net);
  }
  Rng rng(seed);
  for (std::size_t c = 0; c < cycles; ++c)
    spec.requests.push_back(rng.next_below(std::uint64_t{1} << n));
  for (std::size_t r = 0; r < replicas; ++r)
    spec.seu.push_back(
        {static_cast<std::uint32_t>(rng.next_below(cycles)),
         static_cast<std::uint32_t>(rng.next_below(spec.state.size()))});
  return spec;
}

/// Replica r of `spec` on the scalar Simulator, folded the way
/// ReplicaBatchResult::checksums documents.
std::uint64_t scalar_replica_checksum(const fault::ReplicaBatchSpec& spec,
                                      std::size_t r) {
  Simulator sim(*spec.netlist);
  std::uint64_t checksum = 0;
  for (std::size_t c = 0; c < spec.requests.size(); ++c) {
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input(spec.req[i], (spec.requests[c] >> i) & 1);
    sim.settle();
    for (std::size_t i = 0; i < spec.grant.size(); ++i)
      checksum = checksum * 31 + (sim.get(spec.grant[i]) ? i + 1 : 0);
    if (spec.seu[r].cycle == c) {
      const NetId net = spec.state[spec.seu[r].state_bit];
      sim.poke_register(net, !sim.get(net));
    }
    sim.clock();
  }
  return checksum;
}

TEST(ReplicaBatch, ByteIdenticalAcrossJobsWidthsAndTiers) {
  const auto& s = core::generate_arbiter_cached(kHardened3).synth;
  // 300 replicas: not a multiple of any lane width, so every width
  // exercises a partial final batch.
  const fault::ReplicaBatchSpec spec =
      campaign_spec(s.netlist, 3, /*replicas=*/300, /*seed=*/777,
                    /*cycles=*/96);

  fault::ReplicaBatchOptions base;
  base.lanes = 256;
  base.jobs = 1;
  const fault::ReplicaBatchResult serial = fault::run_replica_batch(spec, base);
  ASSERT_EQ(serial.checksums.size(), 300u);
  EXPECT_EQ(serial.batches, 2u);

  for (const int jobs : {2, 8}) {
    fault::ReplicaBatchOptions opt = base;
    opt.jobs = jobs;
    const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
    EXPECT_EQ(r.checksums, serial.checksums) << jobs << " jobs";
    EXPECT_EQ(r.folded, serial.folded) << jobs << " jobs";
  }
  for (const std::size_t lanes : {std::size_t{64}, std::size_t{512}}) {
    fault::ReplicaBatchOptions opt = base;
    opt.lanes = lanes;
    opt.jobs = 2;
    const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
    EXPECT_EQ(r.checksums, serial.checksums) << lanes << " lanes";
    EXPECT_EQ(r.folded, serial.folded) << lanes << " lanes";
  }
  {
    fault::ReplicaBatchOptions opt = base;
    opt.tier = SimdTier::kScalar;
    opt.jobs = 2;
    const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
    EXPECT_EQ(r.checksums, serial.checksums) << "portable tier";
    EXPECT_EQ(r.folded, serial.folded) << "portable tier";
  }
  // Every replica against the full-topo scalar oracle.
  for (std::size_t r = 0; r < serial.checksums.size(); ++r)
    EXPECT_EQ(serial.checksums[r], scalar_replica_checksum(spec, r))
        << "replica " << r << " vs the scalar oracle";
}

TEST(ReplicaBatch, MatchesScalarSimulatorReplicas) {
  const auto& s = core::generate_arbiter_cached(kHardened3).synth;
  const fault::ReplicaBatchSpec spec =
      campaign_spec(s.netlist, 3, /*replicas=*/70, /*seed=*/31337,
                    /*cycles=*/80);
  fault::ReplicaBatchOptions opt;
  opt.lanes = 64;
  const fault::ReplicaBatchResult wide = fault::run_replica_batch(spec, opt);

  for (const std::size_t r : {std::size_t{0}, std::size_t{33},
                              std::size_t{69}})
    EXPECT_EQ(wide.checksums[r], scalar_replica_checksum(spec, r))
        << "replica " << r;
}

// The checksum fold streams one chunk of 64 / grants cycles at a time
// (21, 8 and 4 cycles for 3, 8 and 16 grants) and folds the last partial
// chunk with its own table.  Every replica must still match the scalar
// oracle for runs shorter than, equal to and just past one chunk, and for
// a run ending in a partial chunk — with SEUs on the last cycle of a chunk
// and SEUs past the end of the run.
TEST(ReplicaBatch, ChunkedFoldMatchesScalarAcrossGrantCountsAndTails) {
  const auto& n3 = core::generate_arbiter_cached(kHardened3).synth;
  const auto& n8 = core::generate_arbiter_cached({.n = 8});
  const auto& n16 = core::generate_arbiter_cached({.n = 16});
  const struct {
    const Netlist* nl;
    int n;
  } arbiters[] = {{&n3.netlist, 3}, {&n8.synth.netlist, 8},
                  {&n16.synth.netlist, 16}};
  constexpr std::size_t kReplicas = 70;  // one full 64-lane batch + 6

  for (const auto& arb : arbiters) {
    const std::size_t chunk = 64 / static_cast<std::size_t>(arb.n);
    for (const std::size_t cycles :
         {std::size_t{1}, chunk - 1, chunk, chunk + 1, 3 * chunk + 2}) {
      fault::ReplicaBatchSpec spec = campaign_spec(
          *arb.nl, arb.n, kReplicas, /*seed=*/4242 + cycles, cycles);
      Rng rng(derive_seed(99, cycles));
      for (std::size_t r = 0; r < kReplicas; ++r) {
        std::uint32_t& cycle = spec.seu[r].cycle;
        if (r % 4 == 0)  // last cycle of a chunk (past the run if short)
          cycle = static_cast<std::uint32_t>(
              rng.next_below(cycles / chunk + 1) * chunk + chunk - 1);
        else if (r % 4 == 1)  // never reached
          cycle = static_cast<std::uint32_t>(cycles + rng.next_below(3));
      }
      std::vector<std::uint64_t> oracle(kReplicas);
      for (std::size_t r = 0; r < kReplicas; ++r)
        oracle[r] = scalar_replica_checksum(spec, r);

      for (const std::size_t lanes : {std::size_t{64}, std::size_t{512}}) {
        fault::ReplicaBatchOptions opt;
        opt.lanes = lanes;
        opt.jobs = 1;
        const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
        EXPECT_EQ(r.checksums, oracle)
            << "n=" << arb.n << " cycles=" << cycles << " lanes=" << lanes;
      }
    }
  }
}

TEST(ReplicaBatch, RejectsGrantCountsOutsideOneTo64) {
  const auto& s = core::generate_arbiter_cached(kHardened3).synth;
  fault::ReplicaBatchSpec spec =
      campaign_spec(s.netlist, 3, /*replicas=*/4, /*seed=*/5, /*cycles=*/8);
  const NetId grant0 = spec.grant[0];
  spec.grant.clear();
  EXPECT_THROW((void)fault::run_replica_batch(spec), CheckError);
  spec.grant.assign(65, grant0);
  EXPECT_THROW((void)fault::run_replica_batch(spec), CheckError);
  spec.grant.assign(64, grant0);
  EXPECT_EQ(fault::run_replica_batch(spec).checksums.size(), 4u);
}

// ---- Fault dropping: passes simulate only where replicas differ. ----

/// A spec over `nl` with the campaign stream of `cycles` cycles and the
/// given SEUs; `grants` lists the grant nets each cycle folds.
fault::ReplicaBatchSpec seu_spec(const Netlist& nl, int n, std::size_t cycles,
                                 std::vector<NetId> grants,
                                 std::vector<fault::ReplicaSeu> seu) {
  fault::ReplicaBatchSpec spec =
      campaign_spec(nl, n, /*replicas=*/0, /*seed=*/2718 + cycles, cycles);
  spec.grant = std::move(grants);
  spec.seu = std::move(seu);
  return spec;
}

/// SEUs that hit the edges: cycle 0, C - 1, C and past C, plus R - 6
/// seeded ones on every third cycle, in a shuffled replica order (so the
/// SEU-cycle sort has work to do).  At R = 600 each of those cycles gets
/// about 12 SEUs, so at 64, 256 and 512 lanes some cycle's SEUs straddle
/// a pass boundary.
std::vector<fault::ReplicaSeu> edge_seus(std::size_t replicas,
                                         std::size_t cycles,
                                         std::size_t state_bits,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<fault::ReplicaSeu> seu;
  const std::uint32_t c = static_cast<std::uint32_t>(cycles);
  for (const std::uint32_t cycle : {0u, 0u, c - 1, c - 1, c, c + 7})
    seu.push_back({cycle, static_cast<std::uint32_t>(
                              rng.next_below(state_bits))});
  while (seu.size() < replicas)
    seu.push_back(
        {static_cast<std::uint32_t>(rng.next_below(cycles / 3) * 3),
         static_cast<std::uint32_t>(rng.next_below(state_bits))});
  seu.resize(replicas);
  for (std::size_t i = seu.size(); i > 1; --i)
    std::swap(seu[i - 1], seu[rng.next_below(i)]);
  return seu;
}

/// The SEU cycle at each position of the pass order (in-run SEUs only).
std::vector<std::uint32_t> sorted_in_run_cycles(
    const fault::ReplicaBatchSpec& spec) {
  std::vector<std::uint32_t> cycles;
  for (const fault::ReplicaSeu& seu : spec.seu)
    if (seu.cycle < spec.requests.size()) cycles.push_back(seu.cycle);
  std::ranges::sort(cycles);
  return cycles;
}

/// Runs `spec` at 64/256/512 lanes, 1 and 4 jobs, portable and machine
/// kernels, and checks every replica against one scalar Simulator run.
void expect_matches_oracle(const fault::ReplicaBatchSpec& spec,
                           const std::string& what) {
  std::vector<std::uint64_t> oracle(spec.seu.size());
  for (std::size_t r = 0; r < spec.seu.size(); ++r)
    oracle[r] = scalar_replica_checksum(spec, r);
  for (const std::size_t lanes :
       {std::size_t{64}, std::size_t{256}, std::size_t{512}})
    for (const int jobs : {1, 4})
      for (const std::optional<SimdTier> tier :
           {std::optional<SimdTier>{SimdTier::kScalar},
            std::optional<SimdTier>{}}) {
        fault::ReplicaBatchOptions opt;
        opt.lanes = lanes;
        opt.jobs = jobs;
        opt.tier = tier;
        const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
        EXPECT_EQ(r.checksums, oracle)
            << what << " lanes=" << lanes << " jobs=" << jobs
            << (tier ? " portable" : " machine tier");
      }
}

TEST(ReplicaDropping, MatchesScalarOracleAcrossShapesWidthsJobsAndTiers) {
  const auto& hardened = core::generate_arbiter_cached(kHardened3).synth;
  const auto& n8 = core::generate_arbiter_cached({.n = 8});
  const Netlist& n3 = hardened.netlist;
  const auto grant = [](const Netlist& nl, int i) {
    return *nl.find_net("grant" + std::to_string(i));
  };
  // 150 cycles: 21-cycle chunks at 3 grants and 8-cycle chunks at 8, so
  // most passes end in a partial chunk.
  constexpr std::size_t kCycles = 150;
  const std::vector<NetId> g3 = {grant(n3, 0), grant(n3, 1), grant(n3, 2)};
  std::vector<NetId> g64;  // 64 grants: one-cycle chunks
  for (int i = 0; i < 64; ++i) g64.push_back(g3[static_cast<std::size_t>(i % 3)]);
  const std::vector<NetId> g1 = {grant(n3, 1)};
  std::vector<NetId> g8;
  for (int i = 0; i < 8; ++i) g8.push_back(grant(n8.synth.netlist, i));
  const std::size_t n3_bits =
      campaign_spec(n3, 3, 0, 1, 1).state.size();
  const std::size_t n8_bits =
      campaign_spec(n8.synth.netlist, 8, 0, 1, 1).state.size();

  // R = 600 (not a multiple of any width), 50 (< lanes) and 1.
  for (const std::size_t replicas :
       {std::size_t{600}, std::size_t{50}, std::size_t{1}}) {
    const auto seu = edge_seus(replicas, kCycles, n3_bits, 11 + replicas);
    for (const std::vector<NetId>* grants :
         std::initializer_list<const std::vector<NetId>*>{&g3, &g64, &g1}) {
      const fault::ReplicaBatchSpec spec =
          seu_spec(n3, 3, kCycles, *grants, seu);
      if (replicas == 600)
        for (const std::size_t lanes :
             {std::size_t{64}, std::size_t{256}, std::size_t{512}}) {
          const std::vector<std::uint32_t> sorted = sorted_in_run_cycles(spec);
          ASSERT_EQ(sorted[lanes - 1], sorted[lanes])
              << "no SEU cycle straddles the " << lanes << "-lane boundary";
        }
      expect_matches_oracle(spec, "n3 hardened, R=" +
                                      std::to_string(replicas) + ", " +
                                      std::to_string(grants->size()) +
                                      " grants");
    }
  }
  // Every replica at one cycle, mid-run and at cycle 0.
  for (const std::uint32_t cycle : {77u, 0u}) {
    std::vector<fault::ReplicaSeu> seu(300);
    for (std::size_t r = 0; r < seu.size(); ++r)
      seu[r] = {cycle, static_cast<std::uint32_t>(r % n3_bits)};
    expect_matches_oracle(seu_spec(n3, 3, kCycles, g3, seu),
                          "all at cycle " + std::to_string(cycle));
  }
  // The plain n8 arbiter: lanes never rejoin, so passes run to C.
  const auto seu8 = edge_seus(600, kCycles, n8_bits, 88);
  expect_matches_oracle(seu_spec(n8.synth.netlist, 8, kCycles, g8, seu8),
                        "n8 structural");
}

// The hardened arbiter's lanes rejoin within a few cycles, so its passes
// stop early; the plain n8 arbiter's never do, so each pass runs from its
// first SEU to the end of the stream.
TEST(ReplicaDropping, PassesStopAtRejoinOrRunToTheEnd) {
  const auto& hardened = core::generate_arbiter_cached(kHardened3).synth;
  const auto& n8 = core::generate_arbiter_cached({.n = 8});
  constexpr std::size_t kCycles = 400;
  constexpr std::size_t kLanes = 64;
  const fault::ReplicaBatchSpec n3 =
      campaign_spec(hardened.netlist, 3, 640, 5150, kCycles);
  const fault::ReplicaBatchSpec n8s =
      campaign_spec(n8.synth.netlist, 8, 640, 5150, kCycles);
  fault::ReplicaBatchOptions opt;
  opt.lanes = kLanes;
  for (const fault::ReplicaBatchSpec* spec : {&n3, &n8s}) {
    const std::vector<std::uint32_t> sorted = sorted_in_run_cycles(*spec);
    std::uint64_t to_the_end = 0;  // passes run from s to C
    for (std::size_t first = 0; first < sorted.size(); first += kLanes)
      to_the_end += (kCycles - sorted[first]) * kLanes;
    const fault::ReplicaBatchResult r = fault::run_replica_batch(*spec, opt);
    EXPECT_EQ(r.batches, 10u);
    if (spec == &n8s) {
      EXPECT_EQ(r.simulated_lane_cycles, to_the_end);
    } else {
      EXPECT_LT(r.simulated_lane_cycles * 4, to_the_end);
    }
  }
}

// A DFF outside spec.state carries the divergence on after the state
// register has rejoined: state0 latches req0 every clock, so a flipped
// state0 is golden again one cycle later, but shadow1 and then shadow2
// latch the flipped value, and grant0 = shadow2 ^ req0 shows it two
// cycles after the SEU.  A rejoin check over spec.state alone would stop
// the pass one cycle too soon and lose that grant.
TEST(ReplicaDropping, RejoinWaitsForEveryDffNotJustTheStateNets) {
  Netlist nl;
  const NetId req0 = nl.add_input("req0");
  const NetId state0 = nl.add_dff(req0, false, "state0");
  const NetId shadow1 = nl.add_dff(state0, false, "shadow1");
  const NetId shadow2 = nl.add_dff(shadow1, true, "shadow2");
  nl.mark_output(nl.add_lut({shadow2, req0}, 0b0110, "grant0"), "grant0");

  constexpr std::size_t kCycles = 90;
  fault::ReplicaBatchSpec spec = campaign_spec(nl, 1, 0, 404, kCycles);
  ASSERT_EQ(spec.state, std::vector<NetId>{state0});
  for (std::uint32_t r = 0; r < 200; ++r)
    spec.seu.push_back({r * 7 % std::uint32_t{kCycles + 2}, 0});
  expect_matches_oracle(spec, "shadow-register netlist");

  fault::ReplicaBatchOptions opt;
  opt.lanes = 64;
  opt.jobs = 1;
  const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, opt);
  ASSERT_GE(spec.seu[26].cycle, kCycles);  // never lands: the golden run
  EXPECT_NE(r.checksums[1], r.checksums[26]) << "the SEU must show in a grant";
}

// ---- support/cpu tier resolution. ----

std::string g_last_warning;
void capture_warning(const std::string& msg) { g_last_warning = msg; }

TEST(SimdTierResolution, ParsesExactlyTheThreeTierNames) {
  EXPECT_EQ(parse_simd_tier("scalar"), SimdTier::kScalar);
  EXPECT_EQ(parse_simd_tier("avx2"), SimdTier::kAvx2);
  EXPECT_EQ(parse_simd_tier("avx512"), SimdTier::kAvx512);
  EXPECT_EQ(parse_simd_tier(""), std::nullopt);
  EXPECT_EQ(parse_simd_tier("AVX2"), std::nullopt);
  EXPECT_EQ(parse_simd_tier("sse"), std::nullopt);
  EXPECT_EQ(parse_simd_tier("avx512bw"), std::nullopt);
}

TEST(SimdTierResolution, OverridesClampAndWarn) {
  // No override: detected tier passes through, no warning.
  g_last_warning.clear();
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx2, nullptr, capture_warning),
            SimdTier::kAvx2);
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx2, "", capture_warning),
            SimdTier::kAvx2);
  EXPECT_TRUE(g_last_warning.empty());

  // Downgrades apply silently.
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx512, "scalar", capture_warning),
            SimdTier::kScalar);
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx512, "avx2", capture_warning),
            SimdTier::kAvx2);
  EXPECT_TRUE(g_last_warning.empty());

  // Requesting beyond the machine clamps with a warning.
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx2, "avx512", capture_warning),
            SimdTier::kAvx2);
  EXPECT_NE(g_last_warning.find("clamping"), std::string::npos);

  // Malformed values warn and keep the detected tier.
  g_last_warning.clear();
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAvx512, "wide", capture_warning),
            SimdTier::kAvx512);
  EXPECT_NE(g_last_warning.find("malformed"), std::string::npos);

  // The cached process-wide tier can never exceed detection.
  EXPECT_LE(simd_tier(), detected_simd_tier());
}

// ---- 64-lane lockstep against the scalar engines. ----

constexpr std::size_t kLanes = 64;

/// The packed 64-lane word of `net` (lane l = bit l).
std::uint64_t word_of(const WideLaneSimulator& sim, NetId net) {
  std::uint64_t w = 0;
  sim.get(net, &w);
  return w;
}

/// Net ids every engine needs: requests, grants, and the state registers.
struct ArbiterPorts {
  std::vector<NetId> req, grant, state;
};

ArbiterPorts resolve_arbiter_ports(const Netlist& nl, int n) {
  ArbiterPorts p;
  for (int i = 0; i < n; ++i) {
    const auto r = nl.find_net("req" + std::to_string(i));
    const auto g = nl.find_net("grant" + std::to_string(i));
    EXPECT_TRUE(r.has_value() && g.has_value());
    p.req.push_back(*r);
    p.grant.push_back(*g);
  }
  for (std::size_t s = 0;; ++s) {
    const auto net = nl.find_net("state" + std::to_string(s));
    if (!net.has_value()) break;
    p.state.push_back(*net);
  }
  return p;
}

/// Drives the 64-lane engine and one full-topo scalar oracle per lane with
/// 64 distinct request streams and per-lane SEU pokes, asserting
/// bit-identical grants and state in every lane every cycle.
void lockstep(const Netlist& nl, int n, std::uint64_t seed, int cycles) {
  const ArbiterPorts p = resolve_arbiter_ports(nl, n);

  WideLaneSimulator lane(nl, kLanes);
  std::vector<Simulator> oracle;
  oracle.reserve(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) oracle.emplace_back(nl);

  Rng rng(seed);
  // Per-lane request streams; regenerate per cycle.
  std::vector<std::uint64_t> lane_req(kLanes);
  for (int cyc = 0; cyc < cycles; ++cyc) {
    for (std::size_t l = 0; l < kLanes; ++l)
      lane_req[l] = rng.next_below(std::uint64_t{1} << n);

    for (std::size_t i = 0; i < p.req.size(); ++i) {
      std::uint64_t word = 0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        word |= ((lane_req[l] >> i) & 1) << l;
        oracle[l].set_input(p.req[i], (lane_req[l] >> i) & 1);
      }
      lane.set_input(p.req[i], &word);
    }
    lane.settle();
    for (Simulator& sim : oracle) sim.settle();

    // Outputs must agree in every lane.
    for (NetId net : p.grant)
      for (std::size_t l = 0; l < kLanes; ++l)
        ASSERT_EQ(lane.get_lane(net, l), oracle[l].get(net))
            << "lane " << l << " vs scalar diverged on " << nl.net_name(net)
            << " at cycle " << cyc;

    // Every ~13 cycles, flip a random state bit in a random lane and in
    // that lane's oracle.
    if (!p.state.empty() && cyc % 13 == 7) {
      const std::size_t l = rng.next_below(kLanes);
      const NetId reg = p.state[rng.next_below(p.state.size())];
      lane.poke_register_lane(reg, l, !lane.get_lane(reg, l));
      oracle[l].poke_register(reg, !oracle[l].get(reg));
    }

    lane.clock();
    for (Simulator& sim : oracle) sim.clock();
    for (NetId net : p.state)
      for (std::size_t l = 0; l < kLanes; ++l)
        ASSERT_EQ(lane.get_lane(net, l), oracle[l].get(net))
            << "lane " << l << " state vs scalar, cycle " << cyc;
  }
}

// gtest prints this struct's raw bytes into the ctest name, so every byte
// is a named field: `name_tail` fills what would otherwise be padding.
struct LockstepParam {
  int n;
  synth::Encoding encoding;
  std::uint8_t name_tail[3];
};
static_assert(sizeof(LockstepParam) == 8, "no padding in LockstepParam");

class LaneLockstep : public ::testing::TestWithParam<LockstepParam> {};

TEST_P(LaneLockstep, AllEnginesAgreeUnderRandomRequestsAndSeus) {
  const int n = GetParam().n;
  // The memo cache feeds every parametrization; repeated suite runs in one
  // process synthesize each config once.
  const auto& g = core::generate_arbiter_cached(
      {.n = n, .encoding = GetParam().encoding});
  lockstep(g.synth.netlist, n, 7001 + static_cast<std::uint64_t>(n), 260);
}

// The table is fixed data, so every ctest name is the same from one build
// to the next. Six cases keep the bytes their names were first registered
// with, when the tail was uninitialised padding; the rest print zeros.
const LockstepParam kLockstepCases[] = {
    {2, synth::Encoding::kOneHot, {0x00, 0xD0, 0xEF}},
    {3, synth::Encoding::kOneHot, {0x00, 0xE0, 0xEF}},
    {8, synth::Encoding::kOneHot, {}},
    {16, synth::Encoding::kOneHot, {}},
    {2, synth::Encoding::kCompact, {}},
    {3, synth::Encoding::kCompact, {}},
    {8, synth::Encoding::kCompact, {0x1E, 0x09, 0x00}},
    {16, synth::Encoding::kCompact, {0x00, 0xC0, 0xCA}},
    {2, synth::Encoding::kGray, {0x00, 0xD0, 0xCA}},
    {3, synth::Encoding::kGray, {0x00, 0xC5, 0xCA}},
    {8, synth::Encoding::kGray, {}},
    {16, synth::Encoding::kGray, {}},
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, LaneLockstep,
    ::testing::ValuesIn(kLockstepCases));

TEST(LaneLockstep, HardenedArbiterAgrees) {
  const auto& s = core::generate_arbiter_cached(kHardened3).synth;
  lockstep(s.netlist, 3, 99, 260);
}

TEST(LaneLockstep, HandBuiltSinglePortNetlist) {
  // The generators reject N=1 by contract, so the 1-port case is covered
  // with a hand-built machine: grant0 = req0 AND NOT busy, where `busy`
  // toggles whenever a grant was given (a 1-port arbiter with a 1-cycle
  // recovery slot).
  Netlist nl;
  const NetId req = nl.add_input("req0");
  const NetId busy = nl.add_dff(0, false, "state0");
  const NetId grant =
      nl.add_lut({req, busy}, 0b0010, "grant0_lut");  // req & !busy
  nl.connect_dff_d(0, grant);
  nl.mark_output(grant, "grant0");
  lockstep(nl, 1, 4242, 200);
}

TEST(EventDriven, SkipsCleanLutsOnQuietInputs) {
  const auto& g = core::generate_arbiter_cached({.n = 8});
  const Netlist& nl = g.synth.netlist;
  const ArbiterPorts p = resolve_arbiter_ports(nl, 8);

  // Hold one constant request pattern for many cycles: after the FSM
  // reaches its steady orbit, most LUT inputs stop changing and the
  // event-driven lane engine must evaluate strictly fewer LUTs than one
  // topo pass per settle — the oracle's cost — with the same values.
  Simulator oracle(nl);
  WideLaneSimulator lane(nl, kLanes);
  oracle.set_input(p.req[2], true);
  lane.set_input_all(p.req[2], true);
  for (int cyc = 0; cyc < 100; ++cyc) {
    oracle.settle();
    lane.settle();
    for (NetId net : p.grant)
      ASSERT_EQ(word_of(lane, net), oracle.get(net) ? ~std::uint64_t{0} : 0)
          << nl.net_name(net) << " at cycle " << cyc;
    oracle.clock();
    lane.clock();
  }
  const std::uint64_t settles = lane.full_settles() + lane.event_settles();
  EXPECT_EQ(settles, oracle.full_settles());
  EXPECT_EQ(oracle.luts_evaluated(), nl.num_luts() * settles);
  EXPECT_GT(lane.event_settles(), 0u);
  EXPECT_LT(lane.luts_evaluated(), nl.num_luts() * settles);
}

TEST(EventDriven, PokeSeedsTheFanoutConeNotAFullResettle) {
  // Regression for the SEU-batch slowdown: poke_register used to schedule
  // a full topo resettle, so a 64-replica SEU batch (one poke per lane per
  // stream) re-evaluated every LUT per poke.  The poked DFF's fanout cone
  // is all a poke can dirty — exactly what clock() marks when that
  // register changes — so the incremental path must survive fault
  // injection, and reach the oracle's values.
  const auto& g = core::generate_arbiter_cached({.n = 4});
  const Netlist& nl = g.synth.netlist;
  const ArbiterPorts p = resolve_arbiter_ports(nl, 4);
  ASSERT_FALSE(p.state.empty());

  // `poked` follows lane 17, `clean` every other lane.
  Simulator poked(nl);
  Simulator clean(nl);
  WideLaneSimulator lane(nl, kLanes);
  // Warm every engine onto the incremental path.
  for (Simulator* sim : {&poked, &clean}) {
    sim->set_input(p.req[1], true);
    sim->settle();
    sim->clock();
  }
  lane.set_input_all(p.req[1], true);
  lane.settle();
  lane.clock();

  const std::uint64_t full_passes_before = lane.full_settles();
  const std::uint64_t evals_before = lane.luts_evaluated();
  lane.poke_register_lane(p.state[0], 17, !lane.get_lane(p.state[0], 17));
  poked.poke_register(p.state[0], !poked.get(p.state[0]));
  EXPECT_EQ(lane.full_settles(), full_passes_before)
      << "a poke must not schedule a full topo resettle";
  EXPECT_LT(lane.luts_evaluated() - evals_before, nl.num_luts())
      << "a poke should evaluate only the poked register's fanout cone";
  // The poke produced the oracle's fixed point on every net in lane 17
  // and left the other lanes alone.
  auto expect_oracles = [&](const char* when) {
    for (NetId net = 0; net < nl.num_nets(); ++net) {
      std::uint64_t want = clean.get(net) ? ~std::uint64_t{0} : 0;
      want = (want & ~(std::uint64_t{1} << 17)) |
             (std::uint64_t{poked.get(net)} << 17);
      EXPECT_EQ(word_of(lane, net), want) << nl.net_name(net) << " " << when;
    }
  };
  expect_oracles("after the poke");

  // Incremental settling continues after the poke.
  const std::uint64_t event_before = lane.event_settles();
  lane.set_input_all(p.req[0], true);
  lane.settle();
  EXPECT_EQ(lane.event_settles(), event_before + 1);
  EXPECT_EQ(lane.full_settles(), full_passes_before);
  for (Simulator* sim : {&poked, &clean}) {
    sim->set_input(p.req[0], true);
    sim->settle();
  }
  expect_oracles("after the next settle");
}

TEST(NameLookups, CycleLoopsWithResolvedIdsDoNoStringHashing) {
  const auto& g = core::generate_arbiter_cached({.n = 4});
  const Netlist& nl = g.synth.netlist;
  // Resolve every name once, before the loop — the pattern all simulator
  // call sites follow.
  const ArbiterPorts p = resolve_arbiter_ports(nl, 4);

  Simulator sim(nl);
  WideLaneSimulator lane(nl, kLanes);
  Rng rng(55);
  for (int cyc = 0; cyc < 200; ++cyc) {
    const std::uint64_t req = rng.next_below(16);
    for (std::size_t i = 0; i < 4; ++i) {
      sim.set_input(p.req[i], (req >> i) & 1);
      lane.set_input_all(p.req[i], ((req >> i) & 1) != 0);
    }
    sim.settle();
    lane.settle();
    for (NetId net : p.grant) {
      (void)sim.get(net);
      (void)word_of(lane, net);
    }
    sim.clock();
    lane.clock();
  }
  EXPECT_EQ(sim.name_lookups(), 0u)
      << "a string-keyed lookup slipped into the NetId cycle loop";
  EXPECT_EQ(lane.name_lookups(), 0u);

  // The string overloads do count — the counter is live, not stubbed.
  (void)sim.get("grant0");
  const std::uint64_t zero = 0;
  lane.set_input("req0", &zero);
  EXPECT_EQ(sim.name_lookups(), 1u);
  EXPECT_EQ(lane.name_lookups(), 1u);
}

TEST(RequestTrace, RecordedStreamReplaysAgainstSynthesizedNetlist) {
  // Two tasks hammer one bank -> a 2-port arbiter.  Record the effective
  // request words the behavioral arbiter stepped on, then replay them
  // against the synthesized netlist and the behavioral model side by side.
  tg::TaskGraph g("trace");
  g.add_segment("s0", 32, 16);
  tg::Program t0;
  t0.load_imm(0, 0).load_imm(1, 3);
  t0.loop_begin(20);
  t0.store(0, 0, 1, 0);
  t0.loop_end();
  t0.halt();
  tg::Program t1;
  t1.load_imm(0, 0).load_imm(1, 5);
  t1.loop_begin(20);
  t1.store(0, 0, 1, 1);
  t1.loop_end();
  t1.halt();
  g.add_task("a", t0, 1);
  g.add_task("b", t1, 1);

  core::Binding binding;
  binding.task_to_pe = {0, 1};
  binding.segment_to_bank = {0};
  binding.num_banks = 1;
  binding.bank_names = {"BANK"};

  const core::InsertionResult ins = core::insert_arbitration(g, binding, {});
  ASSERT_EQ(ins.plan.arbiters.size(), 1u);

  rcsim::SimOptions so;
  so.record_request_trace = true;
  rcsim::SystemSimulator sim(ins.graph, binding, ins.plan, so);
  const rcsim::SimResult res = sim.run({0, 1});
  ASSERT_EQ(res.request_trace.size(), 1u);
  const std::vector<std::uint64_t>& trace = res.request_trace[0];
  ASSERT_FALSE(trace.empty());
  ASSERT_EQ(trace.size(), res.cycles);

  // Replay: netlist grants must match the behavioral arbiter cycle for
  // cycle on the recorded stream.
  const auto& rr = core::generate_arbiter_cached(
      {.n = 2, .mode = core::GeneratorMode::kBehavioral}).synth;
  const ArbiterPorts p = resolve_arbiter_ports(rr.netlist, 2);
  Simulator replay(rr.netlist);
  core::RoundRobinArbiter beh(2);
  for (std::size_t c = 0; c < trace.size(); ++c) {
    for (std::size_t i = 0; i < 2; ++i)
      replay.set_input(p.req[i], (trace[c] >> i) & 1);
    replay.settle();
    int got = -1;
    for (std::size_t i = 0; i < 2; ++i)
      if (replay.get(p.grant[i])) got = static_cast<int>(i);
    EXPECT_EQ(got, beh.step(trace[c])) << "cycle " << c;
    replay.clock();
  }

  // Off by default: no per-cycle storage.
  rcsim::SystemSimulator plain(ins.graph, binding, ins.plan, {});
  EXPECT_TRUE(plain.run({0, 1}).request_trace.empty());
}

}  // namespace
}  // namespace rcarb::netlist
