// Structural round-robin arbiter generation.
//
// The behavioral route (core/rr_fsm + synth::synthesize_fsm) feeds the
// Fig. 5 case statement through generic two-level FSM synthesis.  1998-era
// commercial tools additionally performed multi-level factoring, which on
// this FSM discovers the classic *rotating priority chain*: a token
// propagates from the state's priority position past deasserted requests to
// the first requester.  This module emits that factored structure directly
// (as a production arbiter generator would), with the cyclic chain broken
// by the standard duplicated-chain trick.  It is proven equivalent to the
// Fig. 5 behavioral model in the test suite; the behavioral-vs-structural
// gap is quantified by bench_encoding_ablation.
#pragma once

#include "aig/aig.hpp"
#include "synth/encoding.hpp"

namespace rcarb::core {

/// Builds the combinational AIG of the N-input round-robin arbiter under
/// `encoding`.  AIG inputs: req0..req{n-1}, then state bits state0..; AIG
/// outputs: next-state bits ns0.., then grant0..grant{n-1}.  State id
/// convention matches build_round_robin_fsm: F0..F{n-1}, C0..C{n-1}.
/// One-hot codes (state s on bit s, as synth::encode_states assigns them)
/// give exactly build_flat_onehot_aig(n); dense codes decode each state,
/// run the same rotating-priority chain and encode the next state back.
[[nodiscard]] aig::Aig build_round_robin_aig(int n,
                                             const synth::StateCodes& codes);

}  // namespace rcarb::core
