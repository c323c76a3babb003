#include "core/rr_fsm.hpp"

#include "support/check.hpp"
#include "support/text.hpp"

namespace rcarb::core {

synth::Fsm build_round_robin_fsm(int n) {
  RCARB_CHECK(n >= 2 && n <= kMaxFsmInputs,
              "round-robin FSM supports n in [2, kMaxFsmInputs]");

  synth::Fsm fsm("rr_arbiter" + std::to_string(n));
  const auto un = static_cast<std::size_t>(n);

  std::vector<synth::StateId> f_state(un), c_state(un);
  // State order F0..F(n-1), C0..C(n-1); reset state is F0.
  for (std::size_t i = 0; i < un; ++i)
    f_state[i] = fsm.add_state(signal_name("F", i));
  for (std::size_t i = 0; i < un; ++i)
    c_state[i] = fsm.add_state(signal_name("C", i));
  fsm.set_reset_state(f_state[0]);

  for (int i = 0; i < n; ++i) fsm.add_input(signal_name("req", static_cast<std::size_t>(i)));
  for (int i = 0; i < n; ++i) fsm.add_output(signal_name("grant", static_cast<std::size_t>(i)));

  // The transition structure is identical from Fi and Ci — only the
  // zero-request successor differs (Fig. 5).
  for (int i = 0; i < n; ++i) {
    const auto add_scan = [&](synth::StateId from, synth::StateId idle_to) {
      // No requests at all.
      logic::Cube all_zero;
      for (int v = 0; v < n; ++v) all_zero = all_zero.with_literal(v, false);
      fsm.add_transition(from, all_zero, idle_to, 0);
      // First requester in cyclic order starting at i wins.
      for (int k = 0; k < n; ++k) {
        const int j = (i + k) % n;
        logic::Cube guard = logic::Cube::literal(j, true);
        for (int p = 0; p < k; ++p)
          guard = guard.with_literal((i + p) % n, false);
        fsm.add_transition(from, guard,
                           c_state[static_cast<std::size_t>(j)],
                           1ull << j);
      }
    };
    add_scan(f_state[static_cast<std::size_t>(i)],
             f_state[static_cast<std::size_t>(i)]);
    add_scan(c_state[static_cast<std::size_t>(i)],
             f_state[static_cast<std::size_t>((i + 1) % n)]);
  }
  return fsm;
}

}  // namespace rcarb::core
