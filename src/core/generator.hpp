// Arbiter generation and pre-characterization.
//
// Reproduces the paper's Sec. 4.2/4.3 methodology: for each N the arbiter
// is generated, synthesized under a chosen flow and encoding, and
// characterized for area (CLBs) and maximum clock speed (MHz) on the
// XC4000e-3 delay model.  Every structure — the Fig. 5 chain under any
// flow/encoding, the two-level FSM route, the other policies' FSMs, the
// self-checking copies and the scalable trees — goes through one
// ArbiterSpec, one generator and one process-wide memo, which is what the
// partitioners price against: "arbiters are pre-characterized for area and
// speed thus making the partitioners' estimation accurate."
#pragma once

#include <compare>
#include <cstdint>

#include "core/hier.hpp"
#include "core/selfcheck.hpp"
#include "synth/flow.hpp"
#include "timing/sta.hpp"

namespace rcarb::core {

/// Pre-characterized metrics of one generated arbiter.
struct ArbiterCharacteristics {
  int n = 0;
  synth::Encoding encoding = synth::Encoding::kOneHot;
  synth::FlowKind flow = synth::FlowKind::kExpressLike;
  std::size_t clbs = 0;
  std::size_t luts = 0;
  std::size_t ffs = 0;
  int lut_depth = 0;
  double fmax_mhz = 0.0;
  std::size_t aig_ands = 0;
  /// Fixed per-burst protocol cost (Fig. 8): known before synthesis.
  int overhead_cycles = 0;
};

/// A fully generated arbiter: netlist plus its characterization.
struct GeneratedArbiter {
  synth::SynthResult synth;
  timing::TimingReport timing;
  ArbiterCharacteristics chars;
};

/// How the arbiter RTL is produced before mapping.
enum class GeneratorMode : std::uint8_t {
  /// Factored rotating-priority-chain structure (the generator's default;
  /// what a multi-level-optimizing tool derives from the Fig. 5 FSM).
  kStructural,
  /// Generic two-level FSM synthesis of the policy's case statement
  /// (exercises the full espresso/AIG/mapping substrate; larger results).
  kBehavioral,
};

[[nodiscard]] const char* to_string(GeneratorMode m);

/// Everything that selects one generated arbiter.  The defaults are the
/// paper's arbiter: the structural Fig. 5 round-robin chain, one-hot,
/// Express-like (depth-oriented) mapping.  The spec itself is the memo key.
///
/// Supported combinations (canonical() refuses the rest):
///  * kFlatFsm round-robin, structural: any flow and encoding.  One-hot
///    runs to kMaxWideInputs; compact/gray to kMaxFsmInputs
///    (core/rr_fsm.hpp).
///  * kHierarchical (`arity` in [2, 4]) and kPrefix: structural
///    round-robin, Express-like, one-hot only.
///  * kBehavioral: kFlatFsm, any policy, flow and encoding; `harden` adds
///    synth::elaborate's illegal-state recovery.
///  * `check` kDuplicate / kTmr: structural kFlatFsm round-robin under the
///    Express-like flow, any encoding whose replicated register fits 64 bits.
struct ArbiterSpec {
  int n = 0;
  Policy policy = Policy::kRoundRobin;
  ArbiterKind kind = ArbiterKind::kFlatFsm;
  int arity = 4;  // tree arity, kHierarchical only
  synth::FlowKind flow = synth::FlowKind::kExpressLike;
  synth::Encoding encoding = synth::Encoding::kOneHot;  // requested
  GeneratorMode mode = GeneratorMode::kStructural;
  CheckMode check = CheckMode::kNone;
  bool harden = false;

  auto operator<=>(const ArbiterSpec&) const = default;
};

/// The one spec every equivalent request maps to: Synplify's requested
/// encoding folds to the one-hot it actually uses, and `arity` is zeroed
/// for every kind but kHierarchical.  CHECK-fails (CheckError) on any
/// combination no generator implements.
[[nodiscard]] ArbiterSpec canonical(ArbiterSpec spec);

/// Generates and characterizes the arbiter `spec` selects, uncached.  For
/// the benches that time synthesis itself; everything else should use
/// generate_arbiter_cached.
[[nodiscard]] GeneratedArbiter generate_arbiter(const ArbiterSpec& spec);

/// Memoized generate_arbiter, keyed by canonical(spec): equivalent
/// requests synthesize once per process and every later caller gets a
/// reference to the same immutable result.  Sweep cells — ablation grids,
/// fault-campaign cells, partitioner estimation, kind selection — hit this
/// instead of re-running synthesis.  Refused specs throw before the memo
/// records anything.  Thread-safe under RCARB_JOBS: a mutex guards the key
/// map and a per-entry std::once_flag runs each synthesis exactly once, so
/// distinct specs still synthesize concurrently.  The reference lives for
/// the process.
[[nodiscard]] const GeneratedArbiter& generate_arbiter_cached(
    const ArbiterSpec& spec);

/// Hit/miss counters of the process-wide synthesis memo.
struct SynthMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

[[nodiscard]] SynthMemoStats synth_memo_stats();

/// The behavioral Express-like round-robin netlist from the memo: a
/// one-line forward to generate_arbiter_cached, kept because the
/// wall-clock benchmark (perfbench/replica_campaign.cpp) calls it with
/// exactly this signature.  New code should build an ArbiterSpec.
[[nodiscard]] const synth::SynthResult& synthesize_round_robin_cached(
    int n, synth::Encoding encoding, bool harden);

}  // namespace rcarb::core
