#include "core/structural.hpp"

#include <vector>

#include "core/hier.hpp"
#include "support/check.hpp"
#include "support/text.hpp"

namespace rcarb::core {
namespace {

struct ChainOutputs {
  std::vector<aig::Lit> next_state;  // per state, F0..F{n-1}, C0..C{n-1}
  std::vector<aig::Lit> grant;
};

/// The duplicated rotating-priority chain over decoded state signals
/// (present[s]: the machine is in state s, ids F0..F{n-1}, C0..C{n-1}).
ChainOutputs rotating_priority_chain(aig::Aig& g,
                                     const std::vector<aig::Lit>& req,
                                     const std::vector<aig::Lit>& present) {
  const std::size_t un = req.size();
  // A[i]: the priority index is i (state Fi or Ci).
  std::vector<aig::Lit> at(un);
  for (std::size_t i = 0; i < un; ++i)
    at[i] = g.lor(present[i], present[un + i]);

  // reach[t] means "the scan token has reached position t mod n without
  // meeting an asserted request".
  std::vector<aig::Lit> reach(2 * un);
  for (std::size_t t = 0; t < 2 * un; ++t) {
    const std::size_t p = t % un;
    aig::Lit carried = aig::kConstFalse;
    if (t > 0) {
      const std::size_t prev = (t - 1) % un;
      carried = g.land(reach[t - 1], aig::lit_not(req[prev]));
    }
    reach[t] = g.lor(at[p], carried);
  }

  // Grants: the first asserted request the token meets.
  ChainOutputs out;
  out.grant.resize(un);
  for (std::size_t j = 0; j < un; ++j)
    out.grant[j] = g.land(req[j], reach[j + un]);

  // Next state.  Grant j moves to Cj.  With no requests, Fi holds and Ci
  // retires to F(i+1).
  const aig::Lit any_req = g.lor_many(req);
  out.next_state.resize(2 * un);
  for (std::size_t j = 0; j < un; ++j) {
    const std::size_t c_prev = un + (j + un - 1) % un;
    out.next_state[j] = g.land(aig::lit_not(any_req),
                               g.lor(present[j], present[c_prev]));
    out.next_state[un + j] = out.grant[j];
  }
  return out;
}

std::vector<aig::Lit> add_inputs(aig::Aig& g, const char* prefix,
                                 std::size_t count) {
  std::vector<aig::Lit> lits(count);
  for (std::size_t i = 0; i < count; ++i)
    lits[i] = g.add_input(signal_name(prefix, i));
  return lits;
}

}  // namespace

aig::Aig build_flat_onehot_aig(int n) {
  RCARB_CHECK(n >= 1 && n <= kMaxWideInputs,
              "flat one-hot arbiter size must be in [1, kMaxWideInputs]");
  const auto un = static_cast<std::size_t>(n);
  aig::Aig g;
  const std::vector<aig::Lit> req = add_inputs(g, "req", un);
  // Under one-hot, present[s] is directly state bit s.
  const std::vector<aig::Lit> state = add_inputs(g, "state", 2 * un);
  const ChainOutputs chain = rotating_priority_chain(g, req, state);
  for (std::size_t b = 0; b < 2 * un; ++b)
    g.add_output("ns" + std::to_string(b), chain.next_state[b]);
  for (std::size_t j = 0; j < un; ++j)
    g.add_output(signal_name("grant", j), chain.grant[j]);
  return g;
}

aig::Aig build_round_robin_aig(int n, const synth::StateCodes& codes) {
  RCARB_CHECK(n >= 2 && n <= 32, "structural arbiter supports n in [2, 32]");
  const auto un = static_cast<std::size_t>(n);
  RCARB_CHECK(codes.code.size() == 2 * un,
              "state codes must cover the 2N round-robin states");
  if (codes.encoding == synth::Encoding::kOneHot) {
    for (std::size_t s = 0; s < 2 * un; ++s)
      RCARB_CHECK(codes.code[s] == 1ull << s,
                  "one-hot codes must assign state s to bit s");
    return build_flat_onehot_aig(n);
  }

  // Dense codes: AND-decode each state, run the chain, OR-encode back.
  aig::Aig g;
  const std::vector<aig::Lit> req = add_inputs(g, "req", un);
  const std::vector<aig::Lit> state_bit =
      add_inputs(g, "state", static_cast<std::size_t>(codes.num_bits));
  std::vector<aig::Lit> present(2 * un);
  for (std::size_t s = 0; s < 2 * un; ++s) {
    std::vector<aig::Lit> lits;
    for (int b = 0; b < codes.num_bits; ++b) {
      const aig::Lit sb = state_bit[static_cast<std::size_t>(b)];
      lits.push_back(((codes.code[s] >> b) & 1u) ? sb : aig::lit_not(sb));
    }
    present[s] = g.land_many(std::move(lits));
  }
  const ChainOutputs chain = rotating_priority_chain(g, req, present);
  for (int b = 0; b < codes.num_bits; ++b) {
    std::vector<aig::Lit> hot;
    for (std::size_t s = 0; s < 2 * un; ++s)
      if ((codes.code[s] >> b) & 1u) hot.push_back(chain.next_state[s]);
    g.add_output("ns" + std::to_string(b), g.lor_many(std::move(hot)));
  }
  for (std::size_t j = 0; j < un; ++j)
    g.add_output(signal_name("grant", j), chain.grant[j]);
  return g;
}

}  // namespace rcarb::core
