#include "core/generator.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/policy_fsms.hpp"
#include "core/rr_fsm.hpp"
#include "core/structural.hpp"
#include "support/check.hpp"

namespace rcarb::core {

const char* to_string(GeneratorMode m) {
  switch (m) {
    case GeneratorMode::kStructural:
      return "structural";
    case GeneratorMode::kBehavioral:
      return "behavioral";
  }
  return "?";
}

ArbiterSpec canonical(ArbiterSpec spec) {
  RCARB_CHECK(spec.n >= 1 && spec.n <= kMaxWideInputs,
              "arbiter size must be in [1, kMaxWideInputs]");
  const bool flat = spec.kind == ArbiterKind::kFlatFsm;
  const bool structural = spec.mode == GeneratorMode::kStructural;
  const bool express = spec.flow == synth::FlowKind::kExpressLike;
  RCARB_CHECK(spec.policy == Policy::kRoundRobin || (flat && !structural),
              "only round-robin has a structural generator; other policies "
              "synthesize in kBehavioral mode");
  RCARB_CHECK(flat || (structural && express &&
                       spec.encoding == synth::Encoding::kOneHot),
              "hierarchical and prefix arbiters are structural, Express-like "
              "and one-hot only");
  RCARB_CHECK(spec.check == CheckMode::kNone ||
                  (flat && structural && express &&
                   spec.policy == Policy::kRoundRobin),
              "self-checking copies wrap the structural Express-like Fig. 5 "
              "round-robin core only");
  RCARB_CHECK(!spec.harden || !structural,
              "hardening is an FSM-elaboration option: kBehavioral only");
  if (spec.kind == ArbiterKind::kHierarchical)
    RCARB_CHECK(spec.arity >= 2 && spec.arity <= 4,
                "tree arity must be in [2, 4]");
  else
    spec.arity = 0;
  // The paper notes Synplify applied one-hot no matter what the VHDL asked.
  if (spec.flow == synth::FlowKind::kSynplifyLike)
    spec.encoding = synth::Encoding::kOneHot;
  return spec;
}

namespace {

synth::Fsm policy_fsm(Policy policy, int n) {
  switch (policy) {
    case Policy::kRoundRobin:
      return build_round_robin_fsm(n);
    case Policy::kFifo:
      return build_fifo_fsm(n);
    case Policy::kPriority:
      return build_priority_fsm(n);
    case Policy::kRandom:
      return build_lfsr_random_fsm(n);
  }
  RCARB_CHECK(false, "unknown policy");
  return build_round_robin_fsm(n);
}

// Mapping, packing and the register loop for a canonical structural spec.
synth::SynthResult synthesize_structural(const ArbiterSpec& spec) {
  const int n = spec.n;
  aig::Aig comb;
  int num_state_bits = 0;
  std::vector<bool> reset;
  if (spec.check != CheckMode::kNone ||
      spec.encoding != synth::Encoding::kOneHot) {
    // Explicit state codes: dense encodings and the self-checking copies.
    const synth::Fsm fsm = build_round_robin_fsm(n);
    const synth::StateCodes codes = synth::encode_states(fsm, spec.encoding);
    const std::uint64_t code = codes.code[fsm.reset_state()];
    const int copies = spec.check == CheckMode::kNone        ? 1
                       : spec.check == CheckMode::kDuplicate ? 2
                                                             : 3;
    comb = copies == 1 ? build_round_robin_aig(n, codes)
                       : build_self_checking_aig(n, codes, spec.check, code);
    // Every copy's register bank resets to the same per-copy code,
    // concatenated copy-major to match the AIG's state-input order.
    num_state_bits = copies * codes.num_bits;
    for (int c = 0; c < copies; ++c)
      for (int b = 0; b < codes.num_bits; ++b)
        reset.push_back(((code >> b) & 1u) != 0);
  } else {
    switch (spec.kind) {
      case ArbiterKind::kFlatFsm:
        comb = build_flat_onehot_aig(n);
        num_state_bits = 2 * n;
        break;
      case ArbiterKind::kHierarchical:
        comb = build_hierarchical_aig(n, spec.arity);
        num_state_bits = make_hier_shape(n, spec.arity).num_state_bits();
        break;
      case ArbiterKind::kPrefix:
        comb = build_prefix_aig(n);
        num_state_bits = n;
        break;
    }
    reset = scalable_reset_bits(spec.kind, n, spec.arity);
  }
  synth::MapOptions map_options;
  map_options.objective = spec.flow == synth::FlowKind::kSynplifyLike
                              ? synth::MapObjective::kArea
                              : synth::MapObjective::kDepth;
  synth::SynthResult out = synth::finish_machine_synthesis(
      comb, /*num_inputs=*/n, num_state_bits, reset, map_options);
  out.used_encoding = spec.encoding;
  return out;
}

synth::SynthResult synthesize_behavioral(const ArbiterSpec& spec) {
  synth::FlowOptions options;
  options.kind = spec.flow;
  options.encoding = spec.encoding;
  options.harden = spec.harden;
  return synth::synthesize_fsm(policy_fsm(spec.policy, spec.n), options);
}

// Times the netlist and fills the characteristics every family shares.
GeneratedArbiter characterize(const ArbiterSpec& spec,
                              synth::SynthResult synth) {
  GeneratedArbiter out;
  out.synth = std::move(synth);
  out.timing = timing::analyze(out.synth.netlist, timing::xc4000e_speed3());
  out.chars.n = spec.n;
  out.chars.encoding = out.synth.used_encoding;
  out.chars.flow = spec.flow;
  out.chars.clbs = out.synth.clb.clbs;
  out.chars.luts = out.synth.clb.luts;
  out.chars.ffs = out.synth.clb.ffs;
  out.chars.lut_depth = out.synth.map.depth;
  out.chars.fmax_mhz = out.timing.fmax_mhz;
  out.chars.aig_ands = out.synth.aig_ands;
  out.chars.overhead_cycles = kProtocolOverheadCycles;
  return out;
}

GeneratedArbiter generate_canonical(const ArbiterSpec& spec) {
  return characterize(spec, spec.mode == GeneratorMode::kStructural
                                ? synthesize_structural(spec)
                                : synthesize_behavioral(spec));
}

// Process-wide synthesis memo.  The mutex only guards the key->entry map;
// each entry's synthesis runs under its own std::once_flag, so two sweep
// workers asking for *different* specs synthesize concurrently while two
// workers asking for the *same* one share a single run (the second blocks
// in call_once until the first finishes).  Entries are heap-allocated so
// references stay stable as the map rebalances.
class SynthMemo {
 public:
  const GeneratedArbiter& get(const ArbiterSpec& spec) {
    Entry* entry = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto [it, inserted] = entries_.try_emplace(spec);
      if (inserted) {
        it->second = std::make_unique<Entry>();
        misses_.fetch_add(1, std::memory_order_relaxed);
      } else {
        hits_.fetch_add(1, std::memory_order_relaxed);
      }
      entry = it->second.get();
    }
    std::call_once(entry->once,
                   [&] { entry->value = generate_canonical(spec); });
    return entry->value;
  }

  [[nodiscard]] SynthMemoStats stats() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }

 private:
  struct Entry {
    std::once_flag once;
    GeneratedArbiter value;
  };
  std::mutex mutex_;
  std::map<ArbiterSpec, std::unique_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

SynthMemo& synth_memo() {
  static auto* memo = new SynthMemo();
  return *memo;
}

}  // namespace

GeneratedArbiter generate_arbiter(const ArbiterSpec& spec) {
  return generate_canonical(canonical(spec));
}

const GeneratedArbiter& generate_arbiter_cached(const ArbiterSpec& spec) {
  return synth_memo().get(canonical(spec));
}

SynthMemoStats synth_memo_stats() { return synth_memo().stats(); }

const synth::SynthResult& synthesize_round_robin_cached(
    int n, synth::Encoding encoding, bool harden) {
  return generate_arbiter_cached({.n = n,
                                  .encoding = encoding,
                                  .mode = GeneratorMode::kBehavioral,
                                  .harden = harden})
      .synth;
}

}  // namespace rcarb::core
