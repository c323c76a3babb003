// service_shed: service::run_service, the open-loop arrival -> admit ->
// arbitrate -> complete engine, with every part of it busy.  4 resources x
// 8 ports on the flat arbiter, admit-shed, bursty MMPP-2 arrivals at 1.5x
// measured capacity, TMR self-check with the degrade supervisor on, and a
// mixed SEU + latch-up plan inside the measured window: the admission
// estimator, the retry wheel, sheds, supervisor drains and the histogram
// probes all act.  Each arbiter step is cheap (one word, 8 ports).
#include <algorithm>
#include <string>

#include "bench.hpp"
#include "core/arbiter_factory.hpp"
#include "degrade/degrade.hpp"
#include "fault/service_faults.hpp"
#include "obs/metrics.hpp"
#include "service/arrivals.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace rcarb;
using service::ServiceOptions;
using service::ServiceStats;

constexpr int kPorts = 8;
constexpr double kLoad = 1.5;  // offered rate over measured capacity
// Sessions of about 50 ms on a 2.1 GHz Xeon, so a run times a few hundred
// of them (see kQuietPercentile).
constexpr std::uint64_t kWarmupCycles = 2'500;
constexpr std::uint64_t kMeasureCycles = 50'000;
constexpr int kResources = 4;
constexpr int kTmrCopies = 3;
/// Standalone arbiter steps and histogram records for the per-layer probes.
constexpr std::size_t kProbeSteps = 1u << 18;
constexpr std::size_t kProbeWords = 4096;

bool conserved(const ServiceStats& s) {
  return s.in_flight_at_start + s.offered ==
         s.completed + s.timed_out + s.budget_exhausted + s.in_flight_at_end;
}

/// Every simulated statistic the checks compare across repeats.
std::string sim_digest(const ServiceStats& s) {
  std::string d = s.summarize() + " | " + s.summarize_faults();
  for (const std::uint64_t v :
       {s.cycles, s.offered, s.completed, s.requeued, s.failed_service,
        s.drain_aborts, s.serving_resource_cycles, s.in_flight_at_start,
        s.in_flight_at_end, s.latency.count(), s.latency.sum(),
        s.latency.max(), s.queue_depth.sum()})
    d += " " + std::to_string(v);
  for (const service::ResourceStats& r : s.per_resource)
    d += " " + std::to_string(r.completed) + "/" +
         std::to_string(r.arbiter.grant_latency.sum());
  return d;
}

/// Host time of a standalone make_system_arbiter arbiter of the workload's
/// shape, stepped over request words drawn with each port's measured
/// request occupancy (cycles waiting or granted, over cycles).
double arbiter_step_ns(const ServiceOptions& o, const ServiceStats& s,
                       std::uint64_t seed) {
  const obs::ArbiterMetrics& m = s.per_resource.front().arbiter;
  const std::size_t words = static_cast<std::size_t>((o.ports + 63) / 64);
  Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> reqs(
      kProbeWords, std::vector<std::uint64_t>(words, 0));
  for (auto& w : reqs)
    for (std::size_t p = 0; p < m.port.size(); ++p) {
      const double occupancy =
          static_cast<double>(m.port[p].wait_cycles +
                              m.port[p].granted_cycles) /
          static_cast<double>(s.cycles);
      if (rng.next_double() < occupancy) w[p >> 6] |= 1ull << (p & 63);
    }
  core::SystemArbiterSpec spec;
  spec.kind = core::ArbiterKind::kFlatFsm;
  spec.self_check = o.self_check;
  const core::SystemArbiter arb = core::make_system_arbiter(o.ports, spec);
  long long sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kProbeSteps; ++i)
    sink += arb.arbiter->step_wide(reqs[i % kProbeWords]);
  const double ns = seconds_since(t0) * 1e9 / kProbeSteps;
  return sink == -1 ? 0.0 : ns;  // keeps the loop's result live
}

/// Host time of ArrivalProcess::step over the session's cycle count, on
/// the stream the engine draws (same options, same derived seed).
double arrivals_ns_per_cycle(const ServiceOptions& o) {
  service::ArrivalProcess arrivals(o.arrivals, derive_seed(o.seed, 1));
  const std::uint64_t cycles = o.warmup_cycles + o.measure_cycles;
  long long sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t c = 0; c < cycles; ++c) sink += arrivals.step();
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(cycles);
  return sink == -1 ? 0.0 : ns;
}

/// Host time of Histogram::record over the run's latency values (drawn
/// uniformly inside each populated power-of-two bucket).
double histogram_record_ns(const obs::Histogram& latency, std::uint64_t seed) {
  std::vector<std::uint64_t> values;
  Rng rng(seed);
  for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
    const auto [lo, hi] = obs::Histogram::bucket_range(b);
    for (std::uint64_t i = 0; i < latency.bucket(b); ++i)
      values.push_back(lo + rng.next_below(hi - lo + 1));
  }
  if (values.empty()) return 0.0;
  obs::Histogram h;
  const auto t0 = Clock::now();
  for (std::size_t rep = 0; values.size() * rep < kProbeSteps; ++rep)
    for (const std::uint64_t v : values) h.record(v);
  return seconds_since(t0) * 1e9 / static_cast<double>(h.count());
}

}  // namespace

Outcome run_service_shed(const RunConfig& cfg, Tracer& tracer) {
  Outcome out;
  const auto setup_start = Clock::now();
  ServiceOptions o;
  o.resources = kResources;
  o.ports = kPorts;
  o.arbiter_kind = core::ArbiterChoice::kFlatFsm;
  o.seed = derive_seed(cfg.seed, 1);

  // The supervisor prices reconfiguration off the synthesis memo.
  auto t = Clock::now();
  (void)degrade::arbiter_reconfig_cycles(o.degrade, o.ports,
                                         core::CheckMode::kTmr);
  const double prechar_s = seconds_since(t);
  t = Clock::now();
  const double capacity = service::measure_capacity(o);
  const double capacity_s = seconds_since(t);

  o.policy = service::OverloadPolicy::kAdmitShed;
  o.arrivals.kind = service::ArrivalKind::kBursty;
  o.arrivals.rate = kLoad * capacity;
  o.warmup_cycles = kWarmupCycles;
  o.measure_cycles = kMeasureCycles;
  o.self_check = core::CheckMode::kTmr;
  o.degrade.enabled = true;
  // 20 events in the measured window: SEUs, with a latch-up as every
  // eighth (two in all).
  fault::ServiceFaultPlanOptions plan;
  plan.seed = derive_seed(cfg.seed, 2);
  plan.inject_after = o.warmup_cycles;
  plan.horizon = o.warmup_cycles + o.measure_cycles;
  plan.rate = 4e-4;
  plan.kinds.assign(7, fault::FaultKind::kFsmBitFlip);
  plan.kinds.push_back(fault::FaultKind::kArbiterLatchup);
  t = Clock::now();
  o.faults =
      fault::plan_service_faults(o.resources, o.ports, kTmrCopies, plan);
  const double plan_s = seconds_since(t);
  out.setup_s = seconds_since(setup_start);
  if (cfg.setup_only) return out;

  std::string reference;
  ServiceStats last;
  const Passes passes = measure(cfg, tracer, 3, [&](Tracer& tr) {
    {
      const auto span = tr.span("service.run_service");
      last = service::run_service(o);
    }
    const std::string digest = sim_digest(last);
    if (reference.empty()) reference = digest;
    out.check(conserved(last) && digest == reference);
  });

  const ServiceStats& s = last;
  const double cycles =
      static_cast<double>(o.warmup_cycles + o.measure_cycles);
  out.end_to_end = {
      {"sim_cycles_per_s", cycles / passes.quiet_plain(), "1/s", Label::kHost},
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::uint64_t grants = 0;
  std::uint64_t max_wait = 0;
  for (const service::ResourceStats& r : s.per_resource)
    for (const obs::PortMetrics& p : r.arbiter.port) {
      grants += p.grants;
      max_wait = std::max(max_wait, p.max_wait);
    }
  out.per_layer = {
      {"synth.prechar_s", prechar_s, "s", Label::kHost},
      {"service.capacity_probe_s", capacity_s, "s", Label::kHost},
      {"fault.plan_s", plan_s, "s", Label::kHost},
      {"service.session_ms_p50", median(passes.plain) * 1e3, "ms",
       Label::kHost},
      {"service.goodput_per_cycle", s.goodput(), "1/cycle", Label::kSim},
      {"service.latency_p99_cycles", count(s.latency.percentile(0.99)),
       "cycles", Label::kSim},
      {"service.availability", s.availability(), "ratio", Label::kSim},
      {"service.offered", count(s.offered), "count", Label::kSim},
      {"service.completed", count(s.completed), "count", Label::kSim},
      {"service.rejected", count(s.rejected), "count", Label::kSim},
      {"service.shed", count(s.shed), "count", Label::kSim},
      {"service.retries", count(s.retries), "count", Label::kSim},
      {"service.timed_out", count(s.timed_out), "count", Label::kSim},
      {"service.budget_exhausted", count(s.budget_exhausted), "count",
       Label::kSim},
      {"service.goodput_over_offered",
       count(s.completed) / std::max(1.0, count(s.offered)), "ratio",
       Label::kSim},
      {"service.retry_amplification",
       count(s.offered + s.retries) / std::max(1.0, count(s.offered)),
       "ratio", Label::kSim},
      {"core.grants", count(grants), "count", Label::kSim},
      {"core.max_wait", count(max_wait), "cycles", Label::kSim},
      {"degrade.strikes", count(s.strikes), "count", Label::kSim},
      {"degrade.quarantines", count(s.quarantines), "count", Label::kSim},
      {"degrade.restored", count(s.restored), "count", Label::kSim},
      {"degrade.retired", count(s.retired), "count", Label::kSim},
      {"degrade.drain_aborts", count(s.drain_aborts), "count", Label::kSim},
      {"degrade.error_net_trips", count(s.error_net_trips), "count",
       Label::kSim},
      {"degrade.resyncs", count(s.resyncs), "count", Label::kSim},
      {"degrade.mttr_cycles", s.mttr_cycles(), "cycles", Label::kSim},
  };
  out.notes.push_back(
      std::to_string(o.resources) + " resources x " +
      std::to_string(o.ports) + " ports, " + service::to_string(o.policy) +
      ", " + service::to_string(o.arrivals.kind) + " at " +
      std::to_string(kLoad) + "x capacity " + std::to_string(capacity) +
      "/cycle, " + std::to_string(o.faults.size()) + " planned faults, " +
      std::to_string(o.warmup_cycles + o.measure_cycles) +
      " cycles per session");
  if (!cfg.trace) return out;

  // ---- Traced run only. ----
  const double traced_s = quiet(passes.traced);
  double step_ns = 0.0;
  double arrivals_ns = 0.0;
  double record_ns = 0.0;
  {
    const auto span = tracer.span("core.Arbiter.step_wide");
    step_ns = arbiter_step_ns(o, s, derive_seed(cfg.seed, 3));
  }
  {
    const auto span = tracer.span("service.ArrivalProcess.step");
    arrivals_ns = arrivals_ns_per_cycle(o);
  }
  {
    const auto span = tracer.span("obs.Histogram.record");
    record_ns = histogram_record_ns(s.latency, derive_seed(cfg.seed, 4));
  }
  out.per_layer.insert(
      out.per_layer.end(),
      {
          {"service.run_s", traced_s, "s", Label::kHost},
          {"service.host_ns_per_cycle", traced_s * 1e9 / cycles, "ns",
           Label::kHost},
          {"service.arrivals_ns_per_cycle", arrivals_ns, "ns", Label::kHost},
          {"core.step_ns", step_ns, "ns", Label::kHost},
          {"obs.record_ns", record_ns, "ns", Label::kHost},
          {"trace.overhead_frac", passes.trace_overhead(), "ratio",
           Label::kHost},
      });
  return out;
}

}  // namespace perfbench
