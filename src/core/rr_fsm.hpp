// The Fig. 5 round-robin arbiter as a synthesizable FSM.
//
// For N tasks the machine has 2N states: Ci ("task i exclusively accesses
// the resource") and Fi ("no task accesses; task i has highest priority").
// From either Ci or Fi the request vector is scanned cyclically starting at
// i; the first requester j receives grant Gj and the machine moves to Cj.
// With no requests, Fi holds and Ci retires to F(i+1).  Grants are Mealy
// outputs, issued combinationally with the transition.
#pragma once

#include "synth/fsm.hpp"

namespace rcarb::core {

/// Widest round-robin FSM: a one-hot elaboration uses n request inputs
/// plus 2n state bits, and all of them must fit the 64-variable cube
/// universe.  Arbiters priced off the FSM generator cap their N here.
inline constexpr int kMaxFsmInputs = 20;

/// Builds the N-input round-robin arbiter FSM, 2 <= n <= kMaxFsmInputs.
[[nodiscard]] synth::Fsm build_round_robin_fsm(int n);

}  // namespace rcarb::core
