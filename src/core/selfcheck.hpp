// Self-checking round-robin arbiter variants.
//
// A permanent fault inside an arbiter (latch-up, stuck register) is
// invisible to the rest of the system until grants misbehave — too late
// for clean quarantine.  The classic fix is concurrent error detection:
// replicate the FSM and compare.  Two variants are provided, both as
// cycle-level behavioral models (wrapping the proven Fig. 5 model of
// core/policy) and as synthesizable structures (copies of the structural
// round-robin AIG stitched together with a comparator):
//
//   * kDuplicate — duplicate-and-compare (DMR).  Two unhardened copies
//     share the request inputs but keep separate state registers.  The
//     `error` net is the OR of the state-bit XORs; while it is high the
//     grant outputs are gated off (fail-safe: a suspect arbiter grants
//     nobody) and both registers reload the reset code, so a transient
//     mismatch resyncs in one clock at the cost of a one-cycle grant gap.
//   * kTmr — triple modular redundancy.  Three copies; grants are the
//     bitwise majority of the three grant vectors, and all three registers
//     load the bitwise-majority next state, so a single corrupted copy is
//     outvoted and rewritten in one clock with *no* grant gap.  `error`
//     still reports any pairwise mismatch so supervisors see the upset.
//
// Either way a *persistent* `error` (one copy latched up, refusing the
// resync) is the signature the rcsim recovery controller classifies as a
// permanent arbiter fault.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "core/policy.hpp"
#include "synth/encoding.hpp"

namespace rcarb::core {

/// Concurrent-error-detection scheme wrapped around an arbiter.
enum class CheckMode : std::uint8_t {
  kNone,       // plain (no replication)
  kDuplicate,  // duplicate-and-compare, fail-safe gated grants
  kTmr,        // triple modular redundancy, voted grants
};

[[nodiscard]] const char* to_string(CheckMode m);

/// Behavioral self-checking round-robin arbiter.  Clock-accurate against
/// the synthesized structure from build_self_checking_aig: the comparator
/// samples the *current* state registers, so a single-bit upset raises
/// `error()` on the very next step, and the resync (DMR reset reload / TMR
/// majority rewrite) happens at that step's clock edge.  Requires
/// n <= 64: the per-copy registers are compared and voted as separate
/// F/C words (RoundRobinArbiter::StateWords), so the model covers the
/// full word-width service arbiters even where the replicated *netlist*
/// (copies x 2n register bits in one bank) cannot be synthesized.
class SelfCheckingArbiter final : public Arbiter {
 public:
  SelfCheckingArbiter(int n, CheckMode mode, RoundRobinOptions options = {});

  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] CheckMode mode() const { return mode_; }
  [[nodiscard]] int num_copies() const {
    return static_cast<int>(copies_.size());
  }

  /// Comparator output of the last step(): any pairwise state mismatch.
  [[nodiscard]] bool error() const { return error_; }

  /// Cycles (steps) on which the comparator fired, cumulatively.
  [[nodiscard]] std::uint64_t error_cycles() const { return error_cycles_; }

  /// Resync events: DMR reset reloads / TMR minority rewrites.
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }

  /// One copy's state register (bit i = Fi, bit n+i = Ci).  Requires
  /// n <= 32 (the packed form); state_words covers the full width.
  [[nodiscard]] std::uint64_t state_bits(int copy) const;

  /// One copy's state register as separate F/C words, valid for n <= 64.
  [[nodiscard]] RoundRobinArbiter::StateWords state_words(int copy) const;

  /// SEU injection into one copy's state register (0 <= bit < 2n).
  void inject_bit_flip(int copy, int bit);
  /// The Arbiter-level register is copy 0's: 2n bits, upset one copy at a
  /// time.
  [[nodiscard]] int num_state_bits() const override { return 2 * n_; }
  void inject_state_bit(int bit) override { inject_bit_flip(0, bit); }

  /// Permanent-fault injection: freezes `copy`'s register at its current
  /// value — every later load (step, resync, reset) is ignored, so the
  /// comparator fires persistently.  Cleared only by clear_latch_up()
  /// (modeling reconfiguration of the arbiter's region).
  void latch_up(int copy);
  void clear_latch_up();
  [[nodiscard]] bool latched() const;

  /// No comparator error, and every copy (a latched one frozen there too)
  /// holds the same idle fixed point.
  [[nodiscard]] bool idle_fixed_point() const override;

 protected:
  /// Grant words: DMR gates them off while the comparator fires; TMR
  /// asserts the bitwise majority of the copies.
  int transition(std::span<const std::uint64_t> requests) override;
  void reset_state() override;

 private:
  void force_state(int copy, RoundRobinArbiter::StateWords want);

  CheckMode mode_;
  std::vector<RoundRobinArbiter> copies_;
  // Per copy; valid when latched.
  std::vector<RoundRobinArbiter::StateWords> latched_state_;
  std::vector<bool> latched_;
  bool error_ = false;
  std::uint64_t error_cycles_ = 0;
  std::uint64_t resyncs_ = 0;
};

/// Combinational AIG of the self-checking arbiter: `copies` instantiations
/// of the structural round-robin AIG over per-copy state inputs, plus the
/// comparator, grant gating/voting and next-state mux/vote.
///   Inputs:  req0..req{n-1}, then copy 0 state bits "state<b>", then
///            copy c >= 1 state bits "c<c>_state<b>".
///   Outputs: per-copy next-state bits (copy-major), then
///            grant0..grant{n-1}, then "error".
/// `reset_code` is the *single-copy* reset code.  Feed the result to
/// synth::finish_machine_synthesis with num_state_bits = copies *
/// codes.num_bits and the per-copy reset codes concatenated copy-major;
/// the DFF bank then carries one register per copy bit and "error"
/// becomes a primary output net of the netlist.
[[nodiscard]] aig::Aig build_self_checking_aig(int n,
                                               const synth::StateCodes& codes,
                                               CheckMode mode,
                                               std::uint64_t reset_code);

}  // namespace rcarb::core
