// Netlist-simulation throughput: scalar vs bit-parallel lane engines at
// 64, 256 and 512 lanes.
//
// The workload is the fault campaign's inner loop: replay one request
// stream against a synthesized round-robin arbiter R times, each replica
// with its own SEU (a register bit flipped at a replica-specific cycle).
// The scalar baseline runs the proven one-bit netlist::Simulator once per
// replica; the lane engines pack replicas into 64-bit words — one word
// (netlist::WideLaneSimulator's portable kernel), four words (AVX2) or
// eight words (AVX-512), with the SIMD kernel chosen at runtime
// (support/cpu.hpp, $RCARB_SIMD caps it) — and advance all lanes in one
// pass per cycle, and their event-driven settle skips LUTs whose inputs
// are quiet.  The grid cells drive WideLaneSimulator directly through
// full-length passes, so every width times the same cycles.  `event%` is
// the share of LUT evaluations that skipping leaves at 512 lanes, against
// one full topo pass per settle.
// The `batched` cell fans a 4096-replica campaign out across $RCARB_JOBS
// workers through fault::run_replica_batch, which simulates only the
// cycles where a replica can differ from the fault-free run: `batched` is
// delivered replica-cycles over kernel seconds summed over workers,
// `wall` the same over the call's wall time (each the median of seven
// calls), and `sim%` the lane-cycles its passes stepped as a share of the
// replica-cycles it delivered.
//
// Reported in BENCH_sim_throughput.json as lane-cycles per second
// (replicas x stream length, divided by kernel wall time), per netlist
// config, plus LUT-evals/sec at the widest width.  `w256_over_w64_x` /
// `w512_over_w64_x` are the headline wide-vs-64-lane ratios on the
// campaign-shaped hardened arbiter, `batched_over_w64_x` the threaded
// whole-campaign ratio.  The replica batch's streamed checksum fold is
// timed apart from its kernel: `host_fold_share` is its share of
// (kernel + fold) wall time for the 512 replicas at 512 lanes, a host
// figure next to the kernel-only ones.  Every grid cell's per-replica
// checksums are cross-checked against fault::run_replica_batch, whose
// leading replicas are checked against the scalar baseline, and the
// folded value lands in the `checksum_<config>` notes — byte-identical
// across $RCARB_SIMD tiers and $RCARB_JOBS counts, which CI pins by
// diffing the notes across forced-tier reruns.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/generator.hpp"
#include "fault/replica_batch.hpp"
#include "netlist/simulator.hpp"
#include "netlist/wide_simulator.hpp"
#include "obs/bench_report.hpp"
#include "support/cpu.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace rcarb;
using netlist::Netlist;
using netlist::NetId;
using netlist::Simulator;
using netlist::WideLaneSimulator;

constexpr std::uint64_t kSeed = 20260805;
constexpr std::size_t kCycles = 2048;      // stream length per replica
constexpr std::size_t kReplicas = 512;     // grid cells: one widest batch
constexpr std::size_t kScalarReplicas = 64;  // scalar baseline prefix
constexpr std::size_t kBatchedReplicas = 4096;  // threaded campaign cell
constexpr std::size_t kBatchedCalls = 7;        // timed calls, median kept

/// The shared fault batch: request stream plus one SEU per replica,
/// resolved against one arbiter netlist.
fault::ReplicaBatchSpec make_spec(const Netlist& nl, int n,
                                  std::uint64_t seed, std::size_t replicas) {
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
  spec.requests.reserve(kCycles);
  for (std::size_t c = 0; c < kCycles; ++c)
    spec.requests.push_back(rng.next_below(std::uint64_t{1} << n));
  for (std::size_t r = 0; r < replicas; ++r)
    spec.seu.push_back(
        {static_cast<std::uint32_t>(rng.next_below(kCycles)),
         static_cast<std::uint32_t>(rng.next_below(spec.state.size()))});
  return spec;
}

/// One replica on the scalar simulator; returns a grant-stream checksum.
std::uint64_t run_scalar_replica(Simulator& sim,
                                 const fault::ReplicaBatchSpec& spec,
                                 std::size_t replica) {
  sim.reset();
  std::uint64_t checksum = 0;
  for (std::size_t c = 0; c < kCycles; ++c) {
    const std::uint64_t req = spec.requests[c];
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input(spec.req[i], (req >> i) & 1);
    sim.settle();
    for (std::size_t i = 0; i < spec.grant.size(); ++i)
      checksum = checksum * 31 + (sim.get(spec.grant[i]) ? i + 1 : 0);
    if (spec.seu[replica].cycle == c) {
      const NetId net = spec.state[spec.seu[replica].state_bit];
      sim.poke_register(net, !sim.get(net));
    }
    sim.clock();
  }
  return checksum;
}

/// LUT evaluations a full topo pass per settle would make on `spec` at
/// `lanes` lanes: each pass settles once on reset(), twice per cycle
/// (settle() and clock()) and once per in-run SEU poke.
std::uint64_t full_pass_evals(const fault::ReplicaBatchSpec& spec,
                              std::size_t lanes) {
  const std::size_t cycles = spec.requests.size();
  std::uint64_t settles = 0;
  for (std::size_t first = 0; first < spec.seu.size(); first += lanes) {
    settles += 1 + 2 * cycles;
    const std::size_t end = std::min(first + lanes, spec.seu.size());
    for (std::size_t r = first; r < end; ++r)
      if (spec.seu[r].cycle < cycles) ++settles;
  }
  return settles * spec.netlist->num_luts();
}

/// Median of an odd-length sample.
double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::ranges::nth_element(v, mid);
  return *mid;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One grid cell (one lane width) over the shared 512-replica batch.
struct Cell {
  double cps = 0.0;            // lane-cycles per second
  double evals_per_sec = 0.0;  // LUT evaluations per second
  std::uint64_t luts_evaluated = 0;
  std::vector<std::uint64_t> checksums;
};

/// One replica's SEU resolved to its pass lane.
struct LanePoke {
  std::uint32_t cycle = 0;
  std::uint32_t lane = 0;
  std::uint32_t state_bit = 0;
};

/// Runs the batch `lanes` replicas per full-length WideLaneSimulator pass,
/// each cycle doing what a replica pass does: stimulus, settle, grant
/// capture, one poke_register_lane per SEU, clock.  Only that loop is
/// timed, so the width ratios compare kernels on equal work; fault::
/// run_replica_batch stops a pass once its lanes rejoin the fault-free
/// run, which would time a different number of cycles per width.  The
/// grant rows of the whole run are buffered and folded into per-replica
/// checksums after the timer stops.
Cell run_cell(const fault::ReplicaBatchSpec& spec, std::size_t lanes) {
  const std::size_t cycles = spec.requests.size();
  const std::size_t grants = spec.grant.size();
  const std::size_t replicas = spec.seu.size();
  Cell cell;
  cell.checksums.assign(replicas, 0);
  double seconds = 0.0;
  for (std::size_t first = 0; first < replicas; first += lanes) {
    const std::size_t active = std::min(lanes, replicas - first);
    std::vector<LanePoke> pokes;
    for (std::size_t l = 0; l < active; ++l) {
      const fault::ReplicaSeu& seu = spec.seu[first + l];
      if (seu.cycle < cycles)
        pokes.push_back(
            {seu.cycle, static_cast<std::uint32_t>(l), seu.state_bit});
    }
    std::ranges::stable_sort(pokes, {}, &LanePoke::cycle);
    WideLaneSimulator sim(*spec.netlist, lanes);
    const std::size_t words = sim.words();
    std::vector<std::uint64_t> rows(cycles * grants * words);
    const std::uint64_t evals_before = sim.luts_evaluated();

    const auto t0 = std::chrono::steady_clock::now();
    sim.reset();
    auto next = pokes.begin();
    for (std::size_t c = 0; c < cycles; ++c) {
      const std::uint64_t req = spec.requests[c];
      for (std::size_t i = 0; i < spec.req.size(); ++i)
        sim.set_input_all(spec.req[i], (req >> i) & 1);
      sim.settle();
      for (std::size_t i = 0; i < grants; ++i)
        sim.get(spec.grant[i], rows.data() + (c * grants + i) * words);
      for (; next != pokes.end() && next->cycle == c; ++next) {
        const NetId net = spec.state[next->state_bit];
        sim.poke_register_lane(net, next->lane,
                               !sim.get_lane(net, next->lane));
      }
      sim.clock();
    }
    seconds += seconds_since(t0);
    cell.luts_evaluated += sim.luts_evaluated() - evals_before;

    for (std::size_t l = 0; l < active; ++l) {
      std::uint64_t checksum = 0;
      for (std::size_t k = 0; k < cycles * grants; ++k) {
        const bool bit = (rows[k * words + l / 64] >> (l % 64)) & 1u;
        checksum = checksum * 31 + (bit ? k % grants + 1 : 0);
      }
      cell.checksums[first + l] = checksum;
    }
  }
  cell.cps = static_cast<double>(replicas * cycles) / seconds;
  cell.evals_per_sec = static_cast<double>(cell.luts_evaluated) / seconds;
  return cell;
}

struct ConfigResult {
  double scalar_cps = 0.0;
  Cell wide[3];  // widths 64 / 256 / 512
  double fold_share = 0.0;  // host: fold / (kernel + fold), replica batch
  // The 4096-replica run_replica_batch call at the widest width on
  // $RCARB_JOBS workers: replica-cycles over kernel seconds summed over
  // workers, and over the call's wall time (medians over calls).
  double batched_cps = 0.0;
  double batched_wall_cps = 0.0;
  std::uint64_t batched_delivered = 0;  // replica-cycles the call returns
  std::uint64_t batched_simulated = 0;  // lane-cycles its passes stepped
  double event_eval_fraction = 0.0;  // evals / full-pass evals at 512 lanes
  std::uint64_t folded = 0;          // the shared 512-replica checksum fold
  bool checksums_match = false;
};

constexpr std::size_t kWidths[3] = {64, 256, 512};

ConfigResult measure_config(const Netlist& nl, int n, std::uint64_t seed) {
  const fault::ReplicaBatchSpec spec = make_spec(nl, n, seed, kReplicas);

  // Scalar baseline: the first kScalarReplicas replicas, one at a time.
  Simulator scalar(nl);
  std::vector<std::uint64_t> scalar_checksums(kScalarReplicas);
  const auto t_scalar = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kScalarReplicas; ++r)
    scalar_checksums[r] = run_scalar_replica(scalar, spec, r);
  const double scalar_s = seconds_since(t_scalar);

  ConfigResult res;
  res.scalar_cps =
      static_cast<double>(kScalarReplicas * kCycles) / scalar_s;

  // The replica batch entry point over the same 512 replicas: every
  // replica must match every grid width, whose leading replicas must
  // match the scalar baseline — a throughput number from a diverging
  // simulator would be meaningless.
  fault::ReplicaBatchOptions serial;
  serial.jobs = 1;
  const fault::ReplicaBatchResult batch =
      fault::run_replica_batch(spec, serial);
  res.fold_share =
      batch.fold_seconds / (batch.kernel_seconds + batch.fold_seconds);
  bool match = true;
  for (std::size_t w = 0; w < 3; ++w) {
    res.wide[w] = run_cell(spec, kWidths[w]);
    match = match && res.wide[w].checksums == batch.checksums;
  }
  for (std::size_t r = 0; r < kScalarReplicas; ++r)
    match = match && batch.checksums[r] == scalar_checksums[r];
  res.folded = batch.folded;
  res.event_eval_fraction = static_cast<double>(res.wide[2].luts_evaluated) /
                            static_cast<double>(full_pass_evals(spec, 512));

  // The threaded campaign cell: 4096 replicas at the widest width, batch
  // workers on $RCARB_JOBS.  Same stream, fresh SEU draw per replica.  One
  // call takes a few milliseconds, so a single timing is mostly host
  // noise: both rates take the median over kBatchedCalls calls.
  const fault::ReplicaBatchSpec campaign =
      make_spec(nl, n, seed, kBatchedReplicas);
  fault::ReplicaBatchOptions opt;
  std::vector<double> kernel_s;
  std::vector<double> wall_s;
  fault::ReplicaBatchResult batched;
  for (std::size_t call = 0; call < kBatchedCalls; ++call) {
    const auto t_batched = std::chrono::steady_clock::now();
    fault::ReplicaBatchResult r = fault::run_replica_batch(campaign, opt);
    wall_s.push_back(seconds_since(t_batched));
    kernel_s.push_back(r.kernel_seconds);
    match = match && r.checksums.size() == kBatchedReplicas &&
            (call == 0 || r.folded == batched.folded);
    batched = std::move(r);
  }
  res.batched_delivered = kBatchedReplicas * kCycles;
  res.batched_simulated = batched.simulated_lane_cycles;
  res.batched_cps =
      static_cast<double>(res.batched_delivered) / median(kernel_s);
  res.batched_wall_cps =
      static_cast<double>(res.batched_delivered) / median(wall_s);

  // The timed loops resolved every name up front; any hidden per-cycle
  // string hashing would show up here.
  if (scalar.name_lookups() != 0) {
    std::fputs("unexpected name lookups inside the timed loops\n", stderr);
    std::exit(1);
  }
  res.checksums_match = match;
  return res;
}

struct Config {
  std::string name;
  const Netlist* nl;
  int n;
};

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int report_throughput(obs::BenchReporter& rep) {
  // Campaign-shaped hardened arbiter (the fault campaign's bank arbiter is
  // a hardened 3-port round-robin) plus two structural sizes for scale.
  const auto& hardened =
      core::generate_arbiter_cached({.n = 3,
                                     .mode = core::GeneratorMode::kBehavioral,
                                     .harden = true})
          .synth;
  const auto& n8 = core::generate_arbiter_cached({.n = 8});
  const auto& n16 = core::generate_arbiter_cached({.n = 16});
  const std::vector<Config> configs = {
      {"n3_hardened", &hardened.netlist, 3},
      {"n8_structural", &n8.synth.netlist, 8},
      {"n16_structural", &n16.synth.netlist, 16},
  };

  rep.note("simd_tier", to_string(simd_tier()));
  Table table("simulation throughput — " + std::to_string(kReplicas) +
              " SEU replicas x " + std::to_string(kCycles) +
              " cycles (lane-cycles/sec)");
  table.set_header({"netlist", "LUTs", "scalar", "w64", "w256", "w512",
                    "256/64", "512/64", "batched", "wall", "sim%", "evals/s",
                    "fold%", "event%"});

  bool all_match = true;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& cfg = configs[i];
    const ConfigResult r =
        measure_config(*cfg.nl, cfg.n, derive_seed(kSeed, i));
    all_match = all_match && r.checksums_match;
    const double w256_x = r.wide[1].cps / r.wide[0].cps;
    const double w512_x = r.wide[2].cps / r.wide[0].cps;
    const double batched_x = r.batched_cps / r.wide[0].cps;
    auto cell = [](const Cell& c) { return fmt_fixed(c.cps / 1e6, 0) + "M"; };
    table.add_row({cfg.name, std::to_string(cfg.nl->num_luts()),
                   fmt_fixed(r.scalar_cps / 1e6, 2) + "M", cell(r.wide[0]),
                   cell(r.wide[1]), cell(r.wide[2]), fmt_fixed(w256_x, 1) + "x",
                   fmt_fixed(w512_x, 1) + "x",
                   fmt_fixed(r.batched_cps / 1e6, 0) + "M",
                   fmt_fixed(r.batched_wall_cps / 1e6, 0) + "M",
                   fmt_fixed(100.0 * static_cast<double>(r.batched_simulated) /
                                 static_cast<double>(r.batched_delivered),
                             2) +
                       "%",
                   fmt_fixed(r.wide[2].evals_per_sec / 1e6, 0) + "M",
                   fmt_fixed(r.fold_share * 100.0, 1) + "%",
                   fmt_fixed(r.event_eval_fraction * 100.0, 1) + "%"});
    // The folded per-replica checksum of the shared 512-replica batch —
    // identical across engines, widths, SIMD tiers and job counts.  CI
    // reruns the bench under forced $RCARB_SIMD / $RCARB_JOBS and diffs
    // these notes.
    rep.note("checksum_" + cfg.name, hex64(r.folded));
    if (cfg.name == "n3_hardened") {
      // The headline acceptance numbers on the campaign-shaped batch.
      rep.metric("scalar_cycles_per_sec", r.scalar_cps, "cycles/s");
      rep.metric("lane_cycles_per_sec", r.wide[0].cps, "cycles/s");
      rep.metric("speedup_x", r.wide[0].cps / r.scalar_cps, "x");
      rep.metric("w256_lane_cycles_per_sec", r.wide[1].cps, "cycles/s");
      rep.metric("w512_lane_cycles_per_sec", r.wide[2].cps, "cycles/s");
      rep.metric("host_fold_share", r.fold_share, "ratio");
      rep.metric("w256_over_w64_x", w256_x, "x");
      rep.metric("w512_over_w64_x", w512_x, "x");
      rep.metric("batched_lane_cycles_per_sec", r.batched_cps, "cycles/s");
      rep.metric("batched_wall_lane_cycles_per_sec", r.batched_wall_cps,
                 "cycles/s");
      rep.metric("batched_delivered_lane_cycles",
                 static_cast<double>(r.batched_delivered), "lane-cycles");
      rep.metric("batched_simulated_lane_cycles",
                 static_cast<double>(r.batched_simulated), "lane-cycles");
      rep.metric("batched_over_w64_x", batched_x, "x");
      rep.metric("lut_evals_per_sec", r.wide[2].evals_per_sec, "evals/s");
      rep.metric("event_eval_fraction", r.event_eval_fraction, "ratio");
    } else {
      rep.metric(cfg.name + "_w512_over_w64_x", w512_x, "x");
    }
  }
  rep.note("batch",
           std::to_string(kReplicas) + " replicas x " +
               std::to_string(kCycles) +
               " cycles, one register-bit SEU per replica; batched cell: " +
               std::to_string(kBatchedReplicas) + " replicas across " +
               "$RCARB_JOBS workers at the widest width");
  table.print();
  if (!all_match) {
    std::fputs("scalar/wide checksums diverged\n", stderr);
    return 1;
  }
  std::puts(
      "one wide pass advances `lanes` replicas: the per-cycle cost is one\n"
      "LUT mux-tree fold per dirty LUT (1, 4 or 8 SIMD words) instead of\n"
      "`lanes` scalar topo passes.  batched simulates only the cycles where\n"
      "a replica can differ from the fault-free run; sim% is the lane-cycles\n"
      "it stepped as a share of those it delivered.  fold% is the host share\n"
      "of the 512-replica batch spent folding grant chunks into checksums,\n"
      "timed apart from the kernel figures.  event% is the LUT evaluations\n"
      "the 512-lane pass made, as a share of one full topo pass per settle.\n");
  return 0;
}

void BM_ScalarReplicaBatch(benchmark::State& state) {
  const auto& g = core::generate_arbiter_cached(
                        {.n = static_cast<int>(state.range(0)),
                         .mode = core::GeneratorMode::kBehavioral,
                         .harden = true})
                        .synth;
  const fault::ReplicaBatchSpec spec = make_spec(
      g.netlist, static_cast<int>(state.range(0)), kSeed, kScalarReplicas);
  Simulator sim(g.netlist);
  for (auto _ : state) {
    std::uint64_t folded = 0;
    for (std::size_t r = 0; r < kScalarReplicas; ++r)
      folded = folded * 1099511628211ull + run_scalar_replica(sim, spec, r);
    benchmark::DoNotOptimize(folded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kScalarReplicas *
                                                    kCycles));
}
BENCHMARK(BM_ScalarReplicaBatch)->Arg(3);

/// One pass's worth of replicas through fault::run_replica_batch: args
/// are (ports, lanes).  Items are delivered replica-cycles; the
/// `simulated` counter is the lane-cycles the pass stepped per call.
void BM_WideReplicaBatch(benchmark::State& state) {
  const auto& g = core::generate_arbiter_cached(
                        {.n = static_cast<int>(state.range(0)),
                         .mode = core::GeneratorMode::kBehavioral,
                         .harden = true})
                        .synth;
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const fault::ReplicaBatchSpec spec =
      make_spec(g.netlist, static_cast<int>(state.range(0)), kSeed, lanes);
  fault::ReplicaBatchOptions opt;
  opt.lanes = lanes;
  opt.jobs = 1;
  fault::ReplicaBatchResult last;
  for (auto _ : state) {
    last = fault::run_replica_batch(spec, opt);
    benchmark::DoNotOptimize(last.folded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes * kCycles));
  state.counters["delivered"] = static_cast<double>(lanes * kCycles);
  state.counters["simulated"] =
      static_cast<double>(last.simulated_lane_cycles);
  state.SetLabel(std::string("simd=") + to_string(last.kernel_tier));
}
BENCHMARK(BM_WideReplicaBatch)->Args({3, 64})->Args({3, 256})->Args({3, 512});

}  // namespace

int main(int argc, char** argv) {
  rcarb::obs::BenchReporter rep("sim_throughput");
  const int rc = report_throughput(rep);
  if (rc != 0) return rc;
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
