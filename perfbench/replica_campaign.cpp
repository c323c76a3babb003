// replica_campaign: fault::run_replica_batch on the fault campaign's n3
// hardened round-robin arbiter — build -> simulate -> fold -> reduce,
// fanned out over support/parallel.  It never enters service or rcsim.
#include <string>

#include "bench.hpp"
#include "core/generator.hpp"
#include "fault/replica_batch.hpp"
#include "netlist/simulator.hpp"
#include "netlist/wide_simulator.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace rcarb;

constexpr int kPorts = 3;
constexpr std::size_t kCycles = 2048;
/// 64 widest-lane batches, 16 per worker on a 4-core host, so the fan-out
/// and the per-batch work both show; about 0.15 s per call on a 2.1 GHz
/// Xeon, so a 25-second run times about 170 calls (see kQuietPercentile).
constexpr std::size_t kReplicas = 32'768;
constexpr std::size_t kOracleSample = 16;
constexpr std::size_t kConstructs = 32;

/// A seeded request stream shared by every replica, plus one register-bit
/// SEU per replica at a seeded cycle.
fault::ReplicaBatchSpec make_spec(const netlist::Netlist& nl,
                                  std::uint64_t seed) {
  fault::ReplicaBatchSpec spec;
  spec.netlist = &nl;
  for (int i = 0; i < kPorts; ++i) {
    spec.req.push_back(*nl.find_net("req" + std::to_string(i)));
    spec.grant.push_back(*nl.find_net("grant" + std::to_string(i)));
  }
  for (std::size_t s = 0;; ++s) {
    const auto net = nl.find_net("state" + std::to_string(s));
    if (!net.has_value()) break;
    spec.state.push_back(*net);
  }
  Rng rng(derive_seed(seed, 1));
  spec.requests.reserve(kCycles);
  for (std::size_t c = 0; c < kCycles; ++c)
    spec.requests.push_back(rng.next_below(std::uint64_t{1} << kPorts));
  spec.seu.reserve(kReplicas);
  for (std::size_t r = 0; r < kReplicas; ++r)
    spec.seu.push_back(
        {static_cast<std::uint32_t>(rng.next_below(kCycles)),
         static_cast<std::uint32_t>(rng.next_below(spec.state.size()))});
  return spec;
}

/// The scalar netlist::Simulator oracle for one replica, folded the way
/// ReplicaBatchResult::checksums documents.
std::uint64_t scalar_checksum(const fault::ReplicaBatchSpec& spec,
                              std::size_t replica) {
  netlist::Simulator sim(*spec.netlist);
  std::uint64_t checksum = 0;
  for (std::size_t c = 0; c < spec.requests.size(); ++c) {
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input(spec.req[i], ((spec.requests[c] >> i) & 1) != 0);
    sim.settle();
    for (std::size_t i = 0; i < spec.grant.size(); ++i)
      checksum = checksum * 31 + (sim.get(spec.grant[i]) ? i + 1 : 0);
    if (spec.seu[replica].cycle == c) {
      const netlist::NetId net = spec.state[spec.seu[replica].state_bit];
      sim.poke_register(net, !sim.get(net));
    }
    sim.clock();
  }
  return checksum;
}

}  // namespace

Outcome run_replica_campaign(const RunConfig& cfg, Tracer& tracer) {
  Outcome out;
  const auto setup_start = Clock::now();
  auto t = Clock::now();
  const synth::SynthResult& arbiter = core::synthesize_round_robin_cached(
      kPorts, synth::Encoding::kOneHot, /*harden=*/true);
  const double prechar_s = seconds_since(t);
  t = Clock::now();
  const fault::ReplicaBatchSpec spec = make_spec(arbiter.netlist, cfg.seed);
  const double plan_s = seconds_since(t);
  fault::ReplicaBatchOptions opt;
  opt.jobs = cfg.jobs;
  // The first call pays for first-touch allocation and thread start-up,
  // which a campaign pays once; it is set-up, and its result is the
  // reference every timed call must reproduce.
  const fault::ReplicaBatchResult first = fault::run_replica_batch(spec, opt);
  out.setup_s = seconds_since(setup_start);
  if (cfg.setup_only) return out;

  // Lane and batch boundaries, then seeded interior replicas.
  std::vector<std::size_t> sample = {0, 63, 64, 511, 512, kReplicas - 1};
  Rng pick(derive_seed(cfg.seed, 2));
  while (sample.size() < kOracleSample)
    sample.push_back(pick.next_below(kReplicas));
  std::vector<std::uint64_t> oracle;
  for (const std::size_t r : sample) oracle.push_back(scalar_checksum(spec, r));
  auto matches = [&](const fault::ReplicaBatchResult& r) {
    if (r.checksums.size() != kReplicas || r.folded != first.folded)
      return false;
    for (std::size_t i = 0; i < sample.size(); ++i)
      if (r.checksums[sample[i]] != oracle[i]) return false;
    return true;
  };
  out.check(matches(first));

  std::vector<double> kernel_s;  // traced calls
  fault::ReplicaBatchResult last;
  const Passes passes = measure(cfg, tracer, 3, [&](Tracer& tr) {
    {
      const auto span = tr.span("fault.run_replica_batch");
      last = fault::run_replica_batch(spec, opt);
    }
    out.check(matches(last));
    if (tr.enabled()) kernel_s.push_back(last.kernel_seconds);
  });

  const double lane_cycles = static_cast<double>(kReplicas * kCycles);
  out.end_to_end = {
      {"sim_cycles_per_s", lane_cycles / passes.quiet_plain(), "1/s",
       Label::kHost},
  };
  out.per_layer = {
      {"synth.prechar_s", prechar_s, "s", Label::kHost},
      {"fault.plan_s", plan_s, "s", Label::kHost},
      {"fault.call_ms_p50", median(passes.plain) * 1e3, "ms", Label::kHost},
      {"fault.batches", static_cast<double>(first.batches), "count",
       Label::kSim},
      {"netlist.luts_evaluated", static_cast<double>(first.luts_evaluated),
       "count", Label::kSim},
      {"netlist.event_eval_fraction",
       static_cast<double>(first.luts_evaluated) /
           (static_cast<double>(arbiter.netlist.num_luts()) *
            static_cast<double>(first.batches) * kCycles),
       "ratio", Label::kSim},
  };
  out.notes.push_back(std::to_string(kReplicas) + " replicas x " +
                      std::to_string(kCycles) + " cycles, " +
                      std::to_string(first.lanes) + " lanes, kernel " +
                      to_string(first.kernel_tier) + ", jobs " +
                      std::to_string(cfg.jobs));
  if (!cfg.trace) return out;

  // ---- Traced run only. ----
  const double traced_s = quiet(passes.traced);
  const double kernel = quiet(kernel_s);
  std::vector<double> one_job_s;
  for (int i = 0; i < 3; ++i) {
    fault::ReplicaBatchOptions serial = opt;
    serial.jobs = 1;
    const auto span = tracer.span("fault.run_replica_batch.jobs1");
    const auto t0 = Clock::now();
    const fault::ReplicaBatchResult r = fault::run_replica_batch(spec, serial);
    one_job_s.push_back(seconds_since(t0));
    out.check(matches(r));
  }
  std::vector<double> construct_s;
  for (std::size_t i = 0; i < kConstructs; ++i) {
    const auto span = tracer.span("netlist.WideLaneSimulator");
    const auto t0 = Clock::now();
    const netlist::WideLaneSimulator sim(arbiter.netlist, opt.lanes);
    construct_s.push_back(seconds_since(t0));
  }
  out.per_layer.insert(
      out.per_layer.end(),
      {
          {"netlist.kernel_s", kernel, "s", Label::kKernelOnly},
          {"netlist.construct_us", quiet(construct_s) * 1e6, "us",
           Label::kHost},
          {"fault.replica_batch_s", traced_s, "s", Label::kHost},
          {"fault.overhead_frac",
           1.0 - kernel / (static_cast<double>(cfg.jobs) * traced_s), "ratio",
           Label::kHost},
          {"support.parallel_speedup", quiet(one_job_s) / traced_s, "x",
           Label::kHost},
          {"trace.overhead_frac", passes.trace_overhead(), "ratio",
           Label::kHost},
      });
  return out;
}

}  // namespace perfbench
