// Scalable arbiters (core/hier.hpp): tree-shape invariants and exact
// composed waiting bounds, an exhaustive model check over every arbiter
// kind (mutual exclusion + bounded waiting from every reachable state),
// AIG equivalence of the width-unlimited flat chain against the Fig. 5
// structural generator, behavioral-vs-netlist lockstep under matched
// SEUs for all three kinds (and for the flat chain past one request
// word), pinned per-kind grant sequences, fuzzed wide runs (N = 64/256,
// 10^5 cycles) asserting one-hot grants and no starvation, the one step
// contract every arbiter kind shares (entries, observer hook, grant words,
// state register), and synthesis sanity of the scalable generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/arbiter_factory.hpp"
#include "core/generator.hpp"
#include "core/hier.hpp"
#include "core/policy.hpp"
#include "core/policy_fsms.hpp"
#include "core/rr_fsm.hpp"
#include "core/structural.hpp"
#include "netlist/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "synth/encoding.hpp"
#include "synth/flow.hpp"

namespace rcarb {
namespace {

using core::ArbiterKind;
using core::HierarchicalArbiter;
using core::HierShape;
using core::PrefixArbiter;
using core::RoundRobinArbiter;

// ======================================================== shape and bounds

TEST(HierShape, PerfectQuadTreeComposesToTheFlatBound) {
  const HierShape s = core::make_hier_shape(16, 4);
  EXPECT_EQ(s.nodes.size(), 5u);  // root + four 4-leaf nodes
  EXPECT_EQ(s.ptr_bits_total, 10);
  EXPECT_EQ(s.held_bits, 4);
  EXPECT_EQ(s.num_state_bits(), 15);
  // 16 = 4 * 4: every root->leaf path multiplies to 16, so the composed
  // bound collapses to the flat FSM's N - 1.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s.waiting_bound(i), 15u);
}

TEST(HierShape, RaggedTreeBoundsExceedNMinusOneOnDeepLeaves) {
  const HierShape s = core::make_hier_shape(6, 4);
  // Root splits 6 as 2+2+1+1: two 2-leaf nodes plus two direct leaves.
  ASSERT_EQ(s.nodes.size(), 3u);
  EXPECT_EQ(s.nodes[0].child.size(), 4u);
  // Leaves under a 2-leaf node wait through both levels: 4 * 2 - 1 = 7;
  // the direct leaves only wait the root rotation: 4 - 1 = 3.
  EXPECT_EQ(s.waiting_bound(0), 7u);
  EXPECT_EQ(s.waiting_bound(1), 7u);
  EXPECT_EQ(s.waiting_bound(2), 7u);
  EXPECT_EQ(s.waiting_bound(3), 7u);
  EXPECT_EQ(s.waiting_bound(4), 3u);
  EXPECT_EQ(s.waiting_bound(5), 3u);
}

TEST(HierShape, SingleInputDegenerates) {
  const HierShape s = core::make_hier_shape(1, 4);
  EXPECT_TRUE(s.nodes.empty());
  EXPECT_EQ(s.num_state_bits(), 1);  // just the holder-valid bit
  EXPECT_EQ(s.waiting_bound(0), 0u);
}

TEST(HierShape, PowerOfTwoBinaryTreesAreFair) {
  for (const int n : {2, 4, 8, 64, 256}) {
    const HierShape s = core::make_hier_shape(n, 2);
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(s.waiting_bound(i), static_cast<std::uint64_t>(n - 1))
          << "n=" << n << " input " << i;
  }
}

// ==================================================== models under test
//
// The exhaustive checks below run the same walk over all four behavioral
// models (the flat Fig. 5 FSM, 2- and 4-way trees, and the prefix
// arbiter) through core::Arbiter: step, grant words, the state-register
// width and SEU injection.  Only reading the packed register back and the
// kind's waiting bound need the kind.

enum class MKind { kFlat, kHier2, kHier4, kPrefix };

const char* to_string(MKind k) {
  switch (k) {
    case MKind::kFlat: return "flat";
    case MKind::kHier2: return "hier2";
    case MKind::kHier4: return "hier4";
    case MKind::kPrefix: return "prefix";
  }
  return "?";
}

std::unique_ptr<core::Arbiter> make_model(MKind kind, int n) {
  switch (kind) {
    case MKind::kFlat: return std::make_unique<RoundRobinArbiter>(n);
    case MKind::kHier2: return std::make_unique<HierarchicalArbiter>(n, 2);
    case MKind::kHier4: return std::make_unique<HierarchicalArbiter>(n, 4);
    case MKind::kPrefix: return std::make_unique<PrefixArbiter>(n);
  }
  return nullptr;
}

/// The model's packed state register.
std::uint64_t packed_state(MKind kind, const core::Arbiter& m) {
  switch (kind) {
    case MKind::kFlat:
      return static_cast<const RoundRobinArbiter&>(m).state_bits();
    case MKind::kHier2:
    case MKind::kHier4:
      return static_cast<const HierarchicalArbiter&>(m).state_bits();
    case MKind::kPrefix:
      return static_cast<const PrefixArbiter&>(m).state_bits();
  }
  return 0;
}

/// Other grants port `input` may see between two of its own under
/// continuous contention: the tree's composed bound, N-1 for the rest.
std::uint64_t waiting_bound(MKind kind, int n, int input) {
  switch (kind) {
    case MKind::kHier2:
    case MKind::kHier4:
      return core::make_hier_shape(n, kind == MKind::kHier2 ? 2 : 4)
          .waiting_bound(input);
    case MKind::kFlat:
    case MKind::kPrefix:
      break;
  }
  return static_cast<std::uint64_t>(n - 1);
}

// ===================================================== exhaustive model check

struct MParam {
  MKind kind;
  int n;
};

void PrintTo(const MParam& p, std::ostream* os) {
  *os << to_string(p.kind) << "_n" << p.n;
}

/// One witness request sequence per reachable packed-register state
/// (breadth-first, every request vector tried from every discovered
/// state) — the same exhaustive walk tests/test_degrade.cpp runs over the
/// self-checking variants, generalized over the arbiter kind.
std::vector<std::vector<std::uint64_t>> reachable_witnesses(MKind kind,
                                                            int n) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> seen;
  std::deque<std::vector<std::uint64_t>> work;
  {
    auto m = make_model(kind, n);
    seen.emplace(packed_state(kind, *m), std::vector<std::uint64_t>{});
  }
  work.emplace_back();
  const std::uint64_t reqs = 1ull << n;
  while (!work.empty()) {
    const std::vector<std::uint64_t> w = work.front();
    work.pop_front();
    for (std::uint64_t req = 0; req < reqs; ++req) {
      auto m = make_model(kind, n);
      for (const std::uint64_t r : w) m->step(r);
      m->step(req);
      const std::uint64_t s = packed_state(kind, *m);
      if (seen.count(s) != 0) continue;
      std::vector<std::uint64_t> w2 = w;
      w2.push_back(req);
      seen.emplace(s, w2);
      work.push_back(std::move(w2));
    }
  }
  std::vector<std::vector<std::uint64_t>> out;
  out.reserve(seen.size());
  for (const auto& [s, w] : seen) out.push_back(w);
  return out;
}

class ScalableModel : public ::testing::TestWithParam<MParam> {};

TEST_P(ScalableModel, EveryReachableStateKeepsMutualExclusion) {
  const auto [kind, n] = GetParam();
  const auto states = reachable_witnesses(kind, n);
  ASSERT_FALSE(states.empty());
  for (const auto& w : states) {
    for (std::uint64_t req = 0; req < (1ull << n); ++req) {
      auto m = make_model(kind, n);
      for (const std::uint64_t r : w) m->step(r);
      const int g = m->step(req);
      const std::uint64_t mask = m->last_grant_words()[0];
      ASSERT_LE(std::popcount(mask), 1) << "mutual exclusion violated";
      ASSERT_EQ(mask & ~req, 0u) << "granted a non-requester";
      ASSERT_EQ(g >= 0 ? (1ull << g) : 0ull, mask);
      if (kind != MKind::kFlat) {
        // The scalable kinds are work-conserving: any request vector gets
        // a grant the same cycle (the flat FSM legitimately idles one
        // cycle on some release transitions).
        ASSERT_EQ(g >= 0, req != 0) << "request vector " << req;
      }
    }
  }
}

TEST_P(ScalableModel, WaitingIsBoundedFromEveryReachableState) {
  const auto [kind, n] = GetParam();
  const std::uint64_t all = (1ull << n) - 1;
  for (const auto& w : reachable_witnesses(kind, n)) {
    auto m = make_model(kind, n);
    for (const std::uint64_t r : w) m->step(r);
    // Continuous contention: every port requests, a grantee deasserts for
    // exactly one cycle after its grant and re-asserts.  Between two
    // consecutive grants of port i, at most bound(i) other grants may be
    // issued — the exact composed bound for the tree, N-1 for the rest.
    std::uint64_t req = all;
    std::vector<std::int64_t> others(static_cast<std::size_t>(n), -1);
    const int cycles = 32 * n + 64;
    for (int cyc = 0; cyc < cycles; ++cyc) {
      const int g = m->step(req);
      if (g >= 0) {
        const std::size_t gi = static_cast<std::size_t>(g);
        if (others[gi] >= 0) {
          ASSERT_LE(static_cast<std::uint64_t>(others[gi]),
                    waiting_bound(kind, n, g))
              << "port " << g << " waited past its bound at cycle " << cyc;
        }
        for (int i = 0; i < n; ++i)
          if (i != g && others[static_cast<std::size_t>(i)] >= 0)
            ++others[static_cast<std::size_t>(i)];
        others[gi] = 0;
      }
      req = all;
      if (g >= 0) req &= ~(1ull << g);
    }
    // Every port was served (no starvation) once the walk settled.
    for (int i = 0; i < n; ++i)
      ASSERT_GE(others[static_cast<std::size_t>(i)], 0)
          << "port " << i << " never granted";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exhaustive, ScalableModel,
    ::testing::Values(MParam{MKind::kFlat, 1}, MParam{MKind::kFlat, 2},
                      MParam{MKind::kFlat, 3}, MParam{MKind::kFlat, 4},
                      MParam{MKind::kFlat, 5}, MParam{MKind::kFlat, 6},
                      MParam{MKind::kHier2, 1}, MParam{MKind::kHier2, 2},
                      MParam{MKind::kHier2, 3}, MParam{MKind::kHier2, 4},
                      MParam{MKind::kHier2, 5}, MParam{MKind::kHier2, 6},
                      MParam{MKind::kHier4, 1}, MParam{MKind::kHier4, 2},
                      MParam{MKind::kHier4, 3}, MParam{MKind::kHier4, 4},
                      MParam{MKind::kHier4, 5}, MParam{MKind::kHier4, 6},
                      MParam{MKind::kPrefix, 1}, MParam{MKind::kPrefix, 2},
                      MParam{MKind::kPrefix, 3}, MParam{MKind::kPrefix, 4},
                      MParam{MKind::kPrefix, 5}, MParam{MKind::kPrefix, 6}),
    [](const auto& pi) {
      return std::string(to_string(pi.param.kind)) + "_n" +
             std::to_string(pi.param.n);
    });

// ============================================ flat wide AIG == Fig. 5 chain

TEST(FlatWideAig, MatchesTheStructuralGeneratorBitForBit) {
  // build_flat_onehot_aig must compute the exact function of the Fig. 5
  // structural chain under one-hot codes — including on illegal
  // (multi-/zero-hot) state-register patterns, which the SEU lockstep
  // depends on.  64 random patterns per round x 64 rounds per size.  It is
  // also the oracle for the dense-code decode and encode below.
  for (int n = 2; n <= 6; ++n) {
    const synth::Fsm fsm = core::build_round_robin_fsm(n);
    const synth::StateCodes codes =
        synth::encode_states(fsm, synth::Encoding::kOneHot);
    ASSERT_EQ(codes.num_bits, 2 * n);
    const aig::Aig ref = core::build_round_robin_aig(n, codes);
    const aig::Aig wide = core::build_flat_onehot_aig(n);
    ASSERT_EQ(ref.num_inputs(), wide.num_inputs());
    ASSERT_EQ(ref.num_outputs(), wide.num_outputs());
    // Outputs match by name (ns<b>..., grant<i>...).
    std::map<std::string, std::size_t> ref_out;
    for (std::size_t o = 0; o < ref.num_outputs(); ++o)
      ref_out.emplace(ref.output_name(o), o);
    Rng rng(4242 + static_cast<std::uint64_t>(n));
    for (int round = 0; round < 64; ++round) {
      std::vector<std::uint64_t> patterns(ref.num_inputs());
      for (auto& p : patterns) p = rng.next_u64();
      const auto rv = ref.simulate(patterns);
      const auto wv = wide.simulate(patterns);
      auto eval = [](const std::vector<std::uint64_t>& values, aig::Lit l) {
        return values[aig::lit_node(l)] ^ (aig::lit_compl(l) ? ~0ull : 0ull);
      };
      for (std::size_t o = 0; o < wide.num_outputs(); ++o) {
        const auto it = ref_out.find(wide.output_name(o));
        ASSERT_NE(it, ref_out.end()) << wide.output_name(o);
        ASSERT_EQ(eval(rv, ref.output_driver(it->second)),
                  eval(wv, wide.output_driver(o)))
            << "output " << wide.output_name(o) << " diverged, n=" << n
            << " round " << round;
      }
    }
  }

  // Dense codes run the same chain between a state decode and a
  // next-state encode: from every legal state, the compact and gray
  // machines must grant what the one-hot chain grants and move to the
  // code of the state it moves to.
  for (const synth::Encoding enc :
       {synth::Encoding::kCompact, synth::Encoding::kGray}) {
    for (int n = 2; n <= 6; ++n) {
      const auto un = static_cast<std::size_t>(n);
      const synth::StateCodes codes =
          synth::encode_states(core::build_round_robin_fsm(n), enc);
      const auto nb = static_cast<std::size_t>(codes.num_bits);
      const aig::Aig dense = core::build_round_robin_aig(n, codes);
      const aig::Aig wide = core::build_flat_onehot_aig(n);
      ASSERT_EQ(dense.num_outputs(), nb + un);
      auto eval = [](const aig::Aig& g, const std::vector<std::uint64_t>& v,
                     std::size_t o) {
        const aig::Lit l = g.output_driver(o);
        return v[aig::lit_node(l)] ^ (aig::lit_compl(l) ? ~0ull : 0ull);
      };
      Rng rng(5151 + static_cast<std::uint64_t>(n));
      for (std::size_t s = 0; s < 2 * un; ++s) {
        for (int round = 0; round < 4; ++round) {
          std::vector<std::uint64_t> dp(dense.num_inputs());
          std::vector<std::uint64_t> wp(wide.num_inputs());
          for (std::size_t i = 0; i < un; ++i) dp[i] = wp[i] = rng.next_u64();
          for (std::size_t b = 0; b < nb; ++b)
            dp[un + b] = ((codes.code[s] >> b) & 1u) ? ~0ull : 0ull;
          wp[un + s] = ~0ull;
          const auto dv = dense.simulate(dp);
          const auto wv = wide.simulate(wp);
          for (std::size_t j = 0; j < un; ++j)
            ASSERT_EQ(eval(dense, dv, nb + j), eval(wide, wv, 2 * un + j))
                << synth::to_string(enc) << " grant" << j << " n=" << n
                << " state " << s;
          for (std::size_t b = 0; b < nb; ++b) {
            std::uint64_t expected = 0;
            for (std::size_t t = 0; t < 2 * un; ++t)
              if ((codes.code[t] >> b) & 1u) expected |= eval(wide, wv, t);
            ASSERT_EQ(eval(dense, dv, b), expected)
                << synth::to_string(enc) << " ns" << b << " n=" << n
                << " state " << s;
          }
        }
      }
    }
  }
}

// ============================================== behavioral/netlist lockstep

struct AigRecipe {
  aig::Aig comb;
  std::vector<bool> reset;
  int num_state_bits;
};

AigRecipe make_recipe(MKind kind, int n) {
  switch (kind) {
    case MKind::kFlat:
      return {core::build_flat_onehot_aig(n),
              core::scalable_reset_bits(ArbiterKind::kFlatFsm, n), 2 * n};
    case MKind::kHier2:
      return {core::build_hierarchical_aig(n, 2),
              core::scalable_reset_bits(ArbiterKind::kHierarchical, n, 2),
              core::make_hier_shape(n, 2).num_state_bits()};
    case MKind::kHier4:
      return {core::build_hierarchical_aig(n, 4),
              core::scalable_reset_bits(ArbiterKind::kHierarchical, n, 4),
              core::make_hier_shape(n, 4).num_state_bits()};
    case MKind::kPrefix:
      return {core::build_prefix_aig(n),
              core::scalable_reset_bits(ArbiterKind::kPrefix, n), n};
  }
  return {aig::Aig{}, {}, 0};
}

class ScalableLockstep : public ::testing::TestWithParam<MParam> {};

TEST_P(ScalableLockstep, NetlistMatchesBehavioralModelUnderUpsets) {
  const auto [kind, n] = GetParam();
  AigRecipe recipe = make_recipe(kind, n);
  ASSERT_EQ(recipe.reset.size(),
            static_cast<std::size_t>(recipe.num_state_bits));
  const synth::SynthResult syn = synth::finish_machine_synthesis(
      recipe.comb, n, recipe.num_state_bits, recipe.reset, {});

  netlist::Simulator sim(syn.netlist);
  auto beh = make_model(kind, n);
  // Resolve port names once — the cycle loop must not hash strings.
  std::vector<netlist::NetId> req_net, grant_net, state_net;
  for (int i = 0; i < n; ++i) {
    req_net.push_back(*syn.netlist.find_net("req" + std::to_string(i)));
    grant_net.push_back(*syn.netlist.find_net("grant" + std::to_string(i)));
  }
  for (int b = 0; b < recipe.num_state_bits; ++b)
    state_net.push_back(*syn.netlist.find_net("state" + std::to_string(b)));

  Rng rng(31000 + static_cast<std::uint64_t>(n) * 8 +
          static_cast<std::uint64_t>(kind));
  for (int cyc = 0; cyc < 900; ++cyc) {
    if (cyc % 37 == 17) {
      // Flip one state-register bit in both twins: the behavioral model
      // and the netlist must agree on every grant from the same illegal
      // state onward (zero-hot pointers, out-of-range held indices, ...).
      const int b = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(recipe.num_state_bits)));
      beh->inject_state_bit(b);
      const netlist::NetId net = state_net[static_cast<std::size_t>(b)];
      sim.poke_register(net, !sim.get(net));
    }
    const std::uint64_t req = rng.next_below(1ull << n);
    for (int i = 0; i < n; ++i)
      sim.set_input(req_net[static_cast<std::size_t>(i)],
                    ((req >> i) & 1) != 0);
    sim.settle();
    beh->step(req);
    const std::uint64_t mask = beh->last_grant_words()[0];
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(sim.get(grant_net[static_cast<std::size_t>(i)]),
                ((mask >> i) & 1) != 0)
          << to_string(kind) << " grant" << i << " diverged at cycle " << cyc;
    sim.clock();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScalableLockstep,
    ::testing::Values(MParam{MKind::kFlat, 2}, MParam{MKind::kFlat, 3},
                      MParam{MKind::kFlat, 4}, MParam{MKind::kFlat, 5},
                      MParam{MKind::kHier2, 2}, MParam{MKind::kHier2, 3},
                      MParam{MKind::kHier2, 4}, MParam{MKind::kHier2, 5},
                      MParam{MKind::kHier4, 3}, MParam{MKind::kHier4, 4},
                      MParam{MKind::kHier4, 5}, MParam{MKind::kPrefix, 2},
                      MParam{MKind::kPrefix, 3}, MParam{MKind::kPrefix, 4},
                      MParam{MKind::kPrefix, 5}),
    [](const auto& pi) {
      return std::string(to_string(pi.param.kind)) + "_n" +
             std::to_string(pi.param.n);
    });

// ================================================== pinned grant sequences

TEST(CrossKind, PinnedGrantSequencesAtN4) {
  // The three structures share the Fig. 8 contract but rotate in
  // legitimately different orders; these sequences pin each kind's exact
  // behavior on one fixed trace (hold, release, rotation, idle, restart).
  const std::vector<std::uint64_t> trace = {
      0b1111, 0b1111, 0b1110, 0b1010, 0b1010, 0b0101,
      0b0100, 0b0011, 0b0000, 0b1111, 0b1000, 0b0110,
  };
  // All kinds: hold 0 while it requests, release on deassert, idle on an
  // empty vector.  They differ exactly where the structures differ: the
  // flat FSM resumes its scan *past* the last holder after the idle
  // (grants 1), the binary tree ping-pongs to the other subtree on
  // release (grants 2 at step 2, 3 after the idle), and the prefix
  // pointer parks at the last grant so it re-grants 0 after the idle.
  const std::map<MKind, std::vector<int>> expected = {
      {MKind::kFlat, {0, 0, 1, 1, 1, 2, 2, 0, -1, 1, 3, 1}},
      {MKind::kHier2, {0, 0, 2, 1, 1, 2, 2, 0, -1, 3, 3, 1}},
      {MKind::kHier4, {0, 0, 1, 1, 1, 2, 2, 0, -1, 1, 3, 1}},
      {MKind::kPrefix, {0, 0, 1, 1, 1, 2, 2, 0, -1, 0, 3, 1}},
  };
  for (const auto& [kind, want] : expected) {
    auto m = make_model(kind, 4);
    std::vector<int> got;
    for (const std::uint64_t req : trace) got.push_back(m->step(req));
    EXPECT_EQ(got, want) << to_string(kind);
  }
}

// ======================================================== fuzzed wide runs

struct WideParam {
  ArbiterKind kind;
  int n;
  int arity;
};

class WideFuzz : public ::testing::TestWithParam<WideParam> {};

TEST_P(WideFuzz, OneHotGrantsAndNoStarvationOver1e5Cycles) {
  const auto [kind, n, arity] = GetParam();
  core::SystemArbiterSpec spec;
  spec.kind = kind;
  spec.arity = arity;  // read by kHierarchical only
  const std::unique_ptr<core::Arbiter> arb =
      core::make_system_arbiter(n, spec).arbiter;
  auto step_wide = [&](const std::vector<std::uint64_t>& req) {
    return arb->step_wide(req);
  };
  auto grant_words = [&]() -> const std::vector<std::uint64_t>& {
    return arb->last_grant_words();
  };
  // The tree's composed bound; N - 1 for the flat chain and the prefix.
  const HierShape shape = core::make_hier_shape(n, arity > 0 ? arity : 4);
  auto bound = [&](int i) {
    return kind == ArbiterKind::kHierarchical
               ? shape.waiting_bound(i)
               : static_cast<std::uint64_t>(n - 1);
  };

  const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
  const std::uint64_t top_mask =
      (n % 64 == 0) ? ~0ull : ((1ull << (n % 64)) - 1);
  std::vector<std::uint64_t> req(words, 0);
  Rng rng(777 + static_cast<std::uint64_t>(n) * 4 +
          static_cast<std::uint64_t>(arity));

  auto check_grant = [&](int g) {
    int pop = 0;
    for (const std::uint64_t w : grant_words()) pop += std::popcount(w);
    if (g < 0) {
      ASSERT_EQ(pop, 0);
      return;
    }
    ASSERT_LT(g, n);
    ASSERT_EQ(pop, 1) << "grant word vector not one-hot";
    const std::size_t wi = static_cast<std::size_t>(g) / 64;
    const std::uint64_t bit = 1ull << (static_cast<unsigned>(g) % 64u);
    ASSERT_NE(grant_words()[wi] & bit, 0u) << "grant bit/index mismatch";
    ASSERT_NE(req[wi] & bit, 0u) << "granted a non-requester";
  };

  // Fuzz phase: 2000 cycles of random request words to land in an
  // arbitrary (legal) internal state; only grant sanity is asserted.
  for (int cyc = 0; cyc < 2000; ++cyc) {
    for (std::size_t w = 0; w < words; ++w) req[w] = rng.next_u64();
    req[words - 1] &= top_mask;
    check_grant(step_wide(req));
  }

  // Starvation phase: continuous contention (deassert exactly one cycle
  // after the own grant).  Grants are issued every cycle, so the age of a
  // port at its grant is at most its waiting bound plus the one deassert
  // cycle — checked for 10^5 cycles from the fuzzed state.
  for (std::size_t w = 0; w < words; ++w) req[w] = ~0ull;
  req[words - 1] &= top_mask;
  std::vector<int> age(static_cast<std::size_t>(n), -1);
  int last_g = -1;
  for (int cyc = 0; cyc < 100'000; ++cyc) {
    const int g = step_wide(req);
    check_grant(g);
    ASSERT_GE(g, 0) << "no grant under full contention at cycle " << cyc;
    for (int i = 0; i < n; ++i)
      if (age[static_cast<std::size_t>(i)] >= 0)
        ++age[static_cast<std::size_t>(i)];
    const std::size_t gi = static_cast<std::size_t>(g);
    if (age[gi] > 0) {
      ASSERT_LE(static_cast<std::uint64_t>(age[gi]), bound(g) + 2)
          << "port " << g << " starved at cycle " << cyc;
    }
    age[gi] = 0;
    if (last_g >= 0)
      req[static_cast<std::size_t>(last_g) / 64] |=
          1ull << (static_cast<unsigned>(last_g) % 64u);
    req[gi / 64] &= ~(1ull << (static_cast<unsigned>(g) % 64u));
    last_g = g;
  }
  for (int i = 0; i < n; ++i)
    ASSERT_GE(age[static_cast<std::size_t>(i)], 0)
        << "port " << i << " never granted";
}

// A namespace-scope table has static storage, so the padding inside each
// case is zero: gtest prints the parameter's raw bytes into the test
// name, and uninitialised padding would make that name change per build.
const WideParam kWideFuzzCases[] = {
    {ArbiterKind::kHierarchical, 64, 4},
    {ArbiterKind::kHierarchical, 256, 2},
    {ArbiterKind::kPrefix, 64, 0},
    {ArbiterKind::kPrefix, 256, 0},
    {ArbiterKind::kFlatFsm, 128, 0},
    {ArbiterKind::kFlatFsm, 256, 0},
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, WideFuzz,
    ::testing::ValuesIn(kWideFuzzCases),
    [](const auto& pi) {
      return std::string(to_string(pi.param.kind)) + "_n" +
             std::to_string(pi.param.n) +
             (pi.param.arity > 0 ? "_a" + std::to_string(pi.param.arity)
                                 : "");
    });

// ================================= one Fig. 5 model through both entries

TEST(RoundRobinWide, WordAndVectorEntriesAgreeAtEveryWidth) {
  // Twins driven through different entries run the same transition: they
  // stay in the same state and assert the same grant words.  Up to 64
  // ports one twin takes the word entry (step) and the other the vector
  // entry (step_wide) with garbage past the width, which it must ignore.
  // Past 64 ports the word entry CHECK-fails, so a clean-padded vector
  // twin is compared against one with garbage past the width.
  for (const int n : {1, 2, 7, 33, 64, 65, 130}) {
    RoundRobinArbiter clean_twin(n);
    RoundRobinArbiter dirty_twin(n);
    const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
    const std::uint64_t past_width =
        n % 64 == 0 ? 0 : ~((1ull << (n % 64)) - 1);
    Rng rng(9000 + static_cast<std::uint64_t>(n));
    std::vector<std::uint64_t> clean(words, 0);
    int last = -1;
    for (int cyc = 0; cyc < 50'000; ++cyc) {
      // Force empty vectors in regularly so the Ci -> F(i+1) retirement
      // path is exercised at every width.
      bool empty = true;
      for (std::uint64_t& w : clean) {
        w = cyc % 7 == 3 ? 0 : rng.next_u64();
        if (&w == &clean.back()) w &= ~past_width;
        empty = empty && w == 0;
      }
      std::vector<std::uint64_t> dirty = clean;
      dirty.back() |= past_width;
      const int want =
          n <= 64 ? clean_twin.step(clean[0]) : clean_twin.step_wide(clean);
      ASSERT_EQ(dirty_twin.step_wide(dirty), want)
          << "n=" << n << " cycle " << cyc;
      ASSERT_EQ(dirty_twin.last_grant_words(), clean_twin.last_grant_words())
          << "n=" << n << " cycle " << cyc;
      ASSERT_EQ(dirty_twin.state_name(), clean_twin.state_name())
          << "n=" << n << " cycle " << cyc;
      if (empty && last >= 0) {
        ASSERT_EQ(clean_twin.state_name(),
                  "F" + std::to_string((last + 1) % n))
            << "n=" << n << " cycle " << cyc << ": C" << last
            << " must retire to its successor";
      }
      last = want;
    }
  }
}

// ================================= wide flat chain vs its netlist twin

class FlatWideLockstep : public ::testing::TestWithParam<int> {};

TEST_P(FlatWideLockstep, NetlistMatchesRoundRobinArbiterUnderUpsets) {
  // Past one request word the merged Fig. 5 model must still match the
  // width-unlimited one-hot netlist grant for grant and register bit for
  // register bit, from every illegal state the matched SEUs produce.
  const int n = GetParam();
  const synth::SynthResult syn = synth::finish_machine_synthesis(
      core::build_flat_onehot_aig(n), n, 2 * n,
      core::scalable_reset_bits(ArbiterKind::kFlatFsm, n), {});
  netlist::Simulator sim(syn.netlist);
  RoundRobinArbiter beh(n);
  std::vector<netlist::NetId> req_net, grant_net, state_net;
  for (int i = 0; i < n; ++i) {
    req_net.push_back(*syn.netlist.find_net("req" + std::to_string(i)));
    grant_net.push_back(*syn.netlist.find_net("grant" + std::to_string(i)));
  }
  for (int b = 0; b < 2 * n; ++b)
    state_net.push_back(*syn.netlist.find_net("state" + std::to_string(b)));
  // The netlist register rendered the way state_name() renders the model.
  auto netlist_state = [&] {
    std::string name;
    for (int b = 0; b < 2 * n; ++b) {
      if (!sim.get(state_net[static_cast<std::size_t>(b)])) continue;
      if (!name.empty()) name += '+';
      name += (b < n ? "F" : "C") + std::to_string(b < n ? b : b - n);
    }
    return name.empty() ? std::string("none") : name;
  };

  const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
  std::vector<std::uint64_t> req(words, 0);
  auto set_port = [&](int p) {
    req[static_cast<std::size_t>(p) >> 6] |=
        1ull << (static_cast<unsigned>(p) & 63u);
  };
  Rng rng(32000 + static_cast<std::uint64_t>(n));
  for (int cyc = 0; cyc < 900; ++cyc) {
    if (cyc % 37 == 17) {
      const int b = static_cast<int>(
          rng.next_below(2 * static_cast<std::uint64_t>(n)));
      beh.inject_state_bit(b);
      const netlist::NetId net = state_net[static_cast<std::size_t>(b)];
      sim.poke_register(net, !sim.get(net));
    }
    ASSERT_EQ(beh.state_name(), netlist_state()) << "cycle " << cyc;
    // Dense, one-port, two-port, empty and repeated request vectors, so
    // scans cross words, wrap, hold and retire.
    switch (cyc % 5) {
      case 0:
        for (std::uint64_t& w : req) w = rng.next_u64();
        break;
      case 1:
      case 2:
        std::fill(req.begin(), req.end(), 0);
        for (int k = 0; k < cyc % 5; ++k)
          set_port(static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(n))));
        break;
      case 3:
        std::fill(req.begin(), req.end(), 0);
        break;
      default:
        break;  // the previous vector again
    }
    for (int i = 0; i < n; ++i)
      sim.set_input(req_net[static_cast<std::size_t>(i)],
                    ((req[static_cast<std::size_t>(i) >> 6] >>
                      (static_cast<unsigned>(i) & 63u)) &
                     1u) != 0);
    sim.settle();
    (void)beh.step_wide(req);
    const std::vector<std::uint64_t>& grants = beh.last_grant_words();
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(sim.get(grant_net[static_cast<std::size_t>(i)]),
                ((grants[static_cast<std::size_t>(i) >> 6] >>
                  (static_cast<unsigned>(i) & 63u)) &
                 1u) != 0)
          << "grant" << i << " diverged at cycle " << cyc;
    sim.clock();
  }
}

const int kFlatWideLockstepWidths[] = {65, 130};

INSTANTIATE_TEST_SUITE_P(Sweep, FlatWideLockstep,
                         ::testing::ValuesIn(kFlatWideLockstepWidths),
                         [](const auto& pi) {
                           return "n" + std::to_string(pi.param);
                         });

// ============================================ one step path for every kind

struct RecordingObserver final : core::ArbiterObserver {
  int calls = 0;
  std::vector<std::uint64_t> last_req;
  int last_grant = -2;
  void on_step(std::span<const std::uint64_t> requests, int grant) override {
    ++calls;
    last_req.assign(requests.begin(), requests.end());
    last_grant = grant;
  }
};

struct EveryKind {
  const char* name = "";
  int n = 8;
  core::Policy policy = core::Policy::kRoundRobin;
  ArbiterKind kind = ArbiterKind::kFlatFsm;
  core::CheckMode check = core::CheckMode::kNone;
  bool lfsr = false;  // the LFSR twin of the synthesized random policy

  [[nodiscard]] std::unique_ptr<core::Arbiter> make() const {
    if (lfsr) return std::make_unique<core::LfsrRandomArbiter>(n);
    core::SystemArbiterSpec spec;
    spec.policy = policy;
    spec.kind = kind;
    spec.self_check = check;
    return core::make_system_arbiter(n, spec).arbiter;
  }
};

// Every kind make_system_arbiter builds (make_arbiter's policies included)
// plus the LFSR arbiter.
const EveryKind kEveryKind[] = {
    {.name = "rr8"},
    {.name = "rr130", .n = 130},
    {.name = "tree8", .kind = ArbiterKind::kHierarchical},
    {.name = "prefix100", .n = 100, .kind = ArbiterKind::kPrefix},
    {.name = "fifo8", .policy = core::Policy::kFifo},
    {.name = "priority8", .policy = core::Policy::kPriority},
    {.name = "random8", .policy = core::Policy::kRandom},
    {.name = "lfsr8", .lfsr = true},
    {.name = "dmr8", .check = core::CheckMode::kDuplicate},
    {.name = "tmr8", .check = core::CheckMode::kTmr},
};

TEST(WideObserver, EveryEntryPointNotifiesExactlyOnce) {
  // A wide arbiter notifies once per step_wide cycle with every request
  // word; a word-width arbiter notifies once from either entry.  A rejected
  // word step on a wide arbiter notifies nothing.
  core::PrefixArbiter wide(100);
  RecordingObserver obs;
  wide.set_observer(&obs);
  const std::vector<std::uint64_t> req = {0, 1ull << 8};  // port 72 only
  EXPECT_EQ(wide.step_wide(req), 72);
  EXPECT_EQ(obs.calls, 1);
  EXPECT_EQ(obs.last_req, req);
  EXPECT_EQ(obs.last_grant, 72);
  EXPECT_THROW((void)wide.step(1ull << 5), CheckError);
  EXPECT_EQ(obs.calls, 1);

  core::FifoArbiter narrow(8);
  RecordingObserver nobs;
  narrow.set_observer(&nobs);
  EXPECT_EQ(narrow.step_wide(std::vector<std::uint64_t>{0b100}), 2);
  EXPECT_EQ(nobs.calls, 1);
  EXPECT_EQ(nobs.last_grant, 2);
  EXPECT_EQ(narrow.step(0b1000), 3);
  EXPECT_EQ(nobs.calls, 2);
  EXPECT_EQ(nobs.last_req, std::vector<std::uint64_t>{0b1000});
  EXPECT_EQ(nobs.last_grant, 3);
}

TEST(WideObserver, BaseStepWideRejectsWidthsPast64) {
  // The word entry serves up to 64 ports; past that it must refuse the
  // request vector it cannot carry, as must a too-short step_wide.
  RoundRobinArbiter narrow(64);
  EXPECT_EQ(narrow.step_wide(std::vector<std::uint64_t>{1ull << 63}), 63);
  EXPECT_EQ(narrow.step(1ull << 62), 62);
  RoundRobinArbiter wide(100);
  EXPECT_THROW((void)wide.step(1), CheckError);
  EXPECT_THROW((void)wide.step_wide(std::vector<std::uint64_t>{1}),
               CheckError);
  EXPECT_EQ(wide.step_wide(std::vector<std::uint64_t>{0, 1ull << 35}), 99);
}

TEST(ArbiterContract, EveryKindStepsThroughOneEntryAndOneHook) {
  for (const EveryKind& kind : kEveryKind) {
    SCOPED_TRACE(kind.name);
    const std::unique_ptr<core::Arbiter> word_twin = kind.make();
    const std::unique_ptr<core::Arbiter> vec_twin = kind.make();
    const int n = kind.n;
    const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
    const std::uint64_t top_mask =
        n % 64 == 0 ? ~0ull : (1ull << (n % 64)) - 1;
    RecordingObserver word_obs;
    RecordingObserver vec_obs;
    word_twin->set_observer(&word_obs);
    vec_twin->set_observer(&vec_obs);

    // Both entries notify exactly once per cycle with the words and grant
    // of that cycle, and the grant words are the single grant bit.
    Rng rng(4100 + static_cast<std::uint64_t>(n));
    std::vector<std::uint64_t> req(words, 0);
    for (int cyc = 1; cyc <= 300; ++cyc) {
      for (std::uint64_t& w : req) w = cyc % 5 == 0 ? 0 : rng.next_u64();
      req.back() &= top_mask;
      const int g = vec_twin->step_wide(req);
      ASSERT_EQ(vec_obs.calls, cyc);
      ASSERT_EQ(vec_obs.last_req, req);
      ASSERT_EQ(vec_obs.last_grant, g);
      std::vector<std::uint64_t> one_hot(words, 0);
      if (g >= 0)
        one_hot[static_cast<std::size_t>(g) >> 6] =
            1ull << (static_cast<unsigned>(g) & 63u);
      ASSERT_EQ(vec_twin->last_grant_words(), one_hot) << "cycle " << cyc;
      if (n > 64) continue;
      ASSERT_EQ(word_twin->step(req[0]), g) << "cycle " << cyc;
      ASSERT_EQ(word_obs.calls, cyc);
      ASSERT_EQ(word_obs.last_req, req);
      ASSERT_EQ(word_obs.last_grant, g);
      ASSERT_EQ(word_twin->last_grant_words(), one_hot);
    }

    // Too few request words CHECK-fail on either entry.
    if (n > 64) {
      EXPECT_THROW((void)vec_twin->step(1), CheckError);
      EXPECT_THROW(
          (void)vec_twin->step_wide(std::vector<std::uint64_t>(words - 1, 0)),
          CheckError);
    } else {
      EXPECT_THROW((void)vec_twin->step_wide({}), CheckError);
    }
    EXPECT_EQ(vec_obs.calls, 300) << "a rejected step must not notify";

    // Reset clears the grant words with the state.
    vec_twin->reset();
    EXPECT_EQ(vec_twin->last_grant_words(),
              std::vector<std::uint64_t>(words, 0));
  }

  // Past the fault-free single grant bit, the grant words carry what the
  // kind's hardware asserts.  Unhardened round-robin: a multi-hot register
  // asserts every hot state's grant (F0 and F1 hot, ports 0 and 1
  // requesting).
  std::unique_ptr<core::Arbiter> rr =
      core::make_arbiter(core::Policy::kRoundRobin, 8);
  EXPECT_EQ(rr->num_state_bits(), 16);
  rr->inject_state_bit(1);
  EXPECT_EQ(rr->step(0b011), 0);
  EXPECT_EQ(rr->last_grant_words(), std::vector<std::uint64_t>{0b011});

  // The scalable kinds expose their packed registers.
  const EveryKind tree{.n = 16, .kind = ArbiterKind::kHierarchical};
  const EveryKind prefix{.n = 100, .kind = ArbiterKind::kPrefix};
  EXPECT_EQ(tree.make()->num_state_bits(),
            core::make_hier_shape(16, 4).num_state_bits());
  EXPECT_EQ(prefix.make()->num_state_bits(), 100);

  // Self-checking: the base register is copy 0's 2n bits.  An upset there
  // gates every DMR grant off and is outvoted by TMR, whose voted grant
  // words match a clean twin's.
  for (const core::CheckMode mode :
       {core::CheckMode::kDuplicate, core::CheckMode::kTmr}) {
    core::SystemArbiterSpec spec;
    spec.self_check = mode;
    const core::SystemArbiter sc = core::make_system_arbiter(8, spec);
    RoundRobinArbiter clean(8);
    EXPECT_EQ(sc.arbiter->num_state_bits(), 16);
    EXPECT_EQ(sc.arbiter->step(0b100), clean.step(0b100));
    sc.arbiter->inject_state_bit(5);  // F5 joins C2 in copy 0
    const int g = sc.arbiter->step(0b110);
    EXPECT_TRUE(sc.sc->error()) << core::to_string(mode);
    if (mode == core::CheckMode::kDuplicate) {
      EXPECT_EQ(g, -1);
      EXPECT_EQ(sc.arbiter->last_grant_words()[0], 0u);
    } else {
      EXPECT_EQ(g, clean.step(0b110));
      EXPECT_EQ(sc.arbiter->last_grant_words(), clean.last_grant_words());
    }
  }

  // Kinds that model no register report none and refuse an upset.
  for (const core::Policy policy :
       {core::Policy::kFifo, core::Policy::kPriority, core::Policy::kRandom}) {
    std::unique_ptr<core::Arbiter> arb = core::make_arbiter(policy, 8);
    EXPECT_EQ(arb->num_state_bits(), 0) << core::to_string(policy);
    EXPECT_THROW(arb->inject_state_bit(0), CheckError);
  }
}

// A host may account idle cycles without stepping an arbiter only while
// idle_fixed_point() holds (rcsim's quiet stretches).  For every kind, a
// copy that takes extra all-zero steps whenever the predicate holds must
// grant nothing on them and then match an untouched twin grant for grant,
// through upsets, hardened recoveries, preemption and self-check latch-ups.
// The LFSR arbiter never claims the fixed point: its register advances on
// every step, so extra idle steps change whom it picks later.
TEST(ArbiterContract, IdleFixedPointMeansIdleStepsChangeNothing) {
  struct Case {
    std::string name;
    std::function<std::unique_ptr<core::Arbiter>()> make;
  };
  std::vector<Case> cases;
  for (const EveryKind& kind : kEveryKind)
    cases.push_back({kind.name, [kind] { return kind.make(); }});
  for (const auto& [name, rr] :
       {std::pair{"rr8_hardened", core::RoundRobinOptions{0, true}},
        std::pair{"rr8_preempt2", core::RoundRobinOptions{2, false}}})
    cases.push_back({name, [rr] {
                       return std::make_unique<RoundRobinArbiter>(8, rr);
                     }});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::unique_ptr<core::Arbiter> skipper = c.make();
    const std::unique_ptr<core::Arbiter> twin = c.make();
    const int n = skipper->size();
    const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
    const std::vector<std::uint64_t> idle(words, 0);
    auto* sc_skipper = dynamic_cast<core::SelfCheckingArbiter*>(skipper.get());
    auto* sc_twin = dynamic_cast<core::SelfCheckingArbiter*>(twin.get());
    Rng rng(8800 + static_cast<std::uint64_t>(n));
    int idle_points = 0;
    int diverged = 0;
    std::vector<std::uint64_t> req(words, 0);
    for (int cyc = 0; cyc < 4000; ++cyc) {
      if (cyc % 211 == 17 && skipper->num_state_bits() > 0) {
        const int bit =
            static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(skipper->num_state_bits())));
        skipper->inject_state_bit(bit);
        twin->inject_state_bit(bit);
      }
      if (cyc == 2500 && sc_skipper != nullptr) {
        sc_skipper->latch_up(1);
        sc_twin->latch_up(1);
      }
      if (skipper->idle_fixed_point()) {
        ++idle_points;
        const int extra = 1 + static_cast<int>(rng.next_below(4));
        for (int k = 0; k < extra; ++k) {
          ASSERT_EQ(skipper->step_wide(idle), -1) << "cycle " << cyc;
          ASSERT_EQ(skipper->last_grant_words(), idle) << "cycle " << cyc;
        }
      }
      // Bursts of two or three requesters between idle gaps.
      std::fill(req.begin(), req.end(), 0);
      if (cyc % 9 < 5)
        for (int k = 0; k < 2 + cyc % 2; ++k) {
          const auto p =
              static_cast<std::size_t>(rng.next_below(
                  static_cast<std::uint64_t>(n)));
          req[p >> 6] |= 1ull << (p & 63u);
        }
      const int g = skipper->step_wide(req);
      const int want = twin->step_wide(req);
      if (g != want || skipper->last_grant_words() != twin->last_grant_words())
        ++diverged;
    }
    if (c.name == "lfsr8") {
      EXPECT_EQ(idle_points, 0) << "the LFSR advances on every step";
      // Idle steps the predicate refuses do move later picks.
      const std::unique_ptr<core::Arbiter> lfsr = c.make();
      const std::unique_ptr<core::Arbiter> lfsr_twin = c.make();
      int moved = 0;
      for (int cyc = 0; cyc < 200; ++cyc) {
        if (cyc % 4 == 0) (void)lfsr->step_wide(idle);
        const std::vector<std::uint64_t> all(words, 0xffull);
        moved += lfsr->step_wide(all) != lfsr_twin->step_wide(all);
        (void)lfsr->step_wide(idle);
        (void)lfsr_twin->step_wide(idle);
      }
      EXPECT_GT(moved, 0);
    } else {
      EXPECT_GT(idle_points, 100);
      EXPECT_EQ(diverged, 0);
    }
  }
}

// ================================================ kind selection + factory

TEST(ArbiterFactory, SelectionHonorsTheBudgetInAreaOrder) {
  using core::ArbiterChoice;
  // A floor every structure meets picks the cheapest candidate: the flat
  // chain at word widths, the tree past them (flat is never synthesized
  // there — its fmax decays ~1/N and could only lose).
  EXPECT_EQ(core::select_arbiter_kind(16, 1.0), ArbiterKind::kFlatFsm);
  EXPECT_EQ(core::select_arbiter_kind(128, 1.0), ArbiterKind::kHierarchical);
  // An unmeetable floor falls back to the fastest structure.
  const ArbiterKind fastest = core::select_arbiter_kind(64, 1e9);
  const double hier_fmax =
      core::generate_arbiter_cached(
          {.n = 64, .kind = ArbiterKind::kHierarchical})
          .chars.fmax_mhz;
  const double prefix_fmax =
      core::generate_arbiter_cached({.n = 64, .kind = ArbiterKind::kPrefix})
          .chars.fmax_mhz;
  EXPECT_EQ(fastest, hier_fmax >= prefix_fmax ? ArbiterKind::kHierarchical
                                              : ArbiterKind::kPrefix);
  // A budget at the flat chain's own fmax keeps flat; just above loses it.
  const double flat_fmax =
      core::generate_arbiter_cached({.n = 64}).chars.fmax_mhz;
  EXPECT_EQ(core::select_arbiter_kind(64, flat_fmax), ArbiterKind::kFlatFsm);
  EXPECT_NE(core::select_arbiter_kind(64, flat_fmax + 1.0),
            ArbiterKind::kFlatFsm);
  EXPECT_THROW((void)core::select_arbiter_kind(16, 0.0), CheckError);
  EXPECT_THROW((void)core::select_arbiter_kind(0, 1.0), CheckError);

  EXPECT_EQ(core::resolve_arbiter_choice(ArbiterChoice::kPrefix, 16, 0.0),
            ArbiterKind::kPrefix);
  EXPECT_EQ(core::resolve_arbiter_choice(ArbiterChoice::kAuto, 16, 1.0),
            ArbiterKind::kFlatFsm);
  EXPECT_THROW(
      (void)core::resolve_arbiter_choice(ArbiterChoice::kAuto, 16, 0.0),
      CheckError);
}

TEST(ArbiterFactory, BuildsTheMatchingSubclassWithTypedViews) {
  using core::SystemArbiterSpec;
  auto flat = core::make_system_arbiter(8, SystemArbiterSpec{});
  ASSERT_NE(flat.rr, nullptr);
  EXPECT_EQ(flat.rr, flat.arbiter.get());
  EXPECT_EQ(flat.kind, ArbiterKind::kFlatFsm);

  SystemArbiterSpec wide_spec;
  wide_spec.kind = ArbiterKind::kFlatFsm;
  auto wide = core::make_system_arbiter(128, wide_spec);
  ASSERT_NE(wide.rr, nullptr) << "one Fig. 5 model at every width";
  EXPECT_EQ(wide.rr, wide.arbiter.get());

  SystemArbiterSpec hier_spec;
  hier_spec.kind = ArbiterKind::kHierarchical;
  hier_spec.arity = 2;
  auto hier = core::make_system_arbiter(96, hier_spec);
  ASSERT_NE(dynamic_cast<HierarchicalArbiter*>(hier.arbiter.get()), nullptr);
  EXPECT_EQ(hier.kind, ArbiterKind::kHierarchical);
  EXPECT_EQ(hier.rr, nullptr);

  SystemArbiterSpec prefix_spec;
  prefix_spec.kind = ArbiterKind::kPrefix;
  auto prefix = core::make_system_arbiter(96, prefix_spec);
  ASSERT_NE(dynamic_cast<PrefixArbiter*>(prefix.arbiter.get()), nullptr);

  core::SystemArbiterSpec dmr;
  dmr.self_check = core::CheckMode::kDuplicate;
  ASSERT_NE(core::make_system_arbiter(8, dmr).sc, nullptr);
  dmr.kind = ArbiterKind::kPrefix;
  EXPECT_THROW((void)core::make_system_arbiter(8, dmr), CheckError)
      << "self-checking is flat-only";

  // The self-checking service path covers the full word width: one F/C
  // state *word* pair per copy past 32 ports, same factory entry point the
  // fault-tolerant service uses.
  for (const auto& [mode, copies] :
       {std::pair{core::CheckMode::kDuplicate, 2},
        std::pair{core::CheckMode::kTmr, 3}}) {
    for (const int n : {48, 64}) {
      core::SystemArbiterSpec spec;
      spec.self_check = mode;
      auto sys = core::make_system_arbiter(n, spec);
      ASSERT_NE(sys.sc, nullptr) << core::to_string(mode) << " n=" << n;
      EXPECT_EQ(sys.sc, sys.arbiter.get());
      EXPECT_EQ(sys.rr, nullptr) << "typed views are exclusive";
      EXPECT_EQ(sys.sc->num_copies(), copies);
      // Error-net side view: a single corrupted copy trips the comparator
      // on the next step and the resync clears it.
      EXPECT_FALSE(sys.sc->error());
      sys.sc->inject_bit_flip(copies - 1, 3);  // second F-word token bit
      (void)sys.sc->step(0b101ull);
      EXPECT_TRUE(sys.sc->error()) << core::to_string(mode) << " n=" << n;
      EXPECT_GE(sys.sc->error_cycles(), 1u);
      if (mode == core::CheckMode::kDuplicate) {
        EXPECT_EQ(sys.sc->resyncs(), 1u) << "DMR reloads the reset code";
      }
      (void)sys.sc->step(0b101ull);
      EXPECT_FALSE(sys.sc->error()) << "copies reconverge within one step";
    }
  }
  // Past the word width there is no per-copy state-word model: refuse.
  core::SystemArbiterSpec sc65;
  sc65.self_check = core::CheckMode::kTmr;
  EXPECT_THROW((void)core::make_system_arbiter(65, sc65), CheckError);
  // ... and the other scalable structures stay un-replicable too.
  core::SystemArbiterSpec sc_hier;
  sc_hier.self_check = core::CheckMode::kDuplicate;
  sc_hier.kind = ArbiterKind::kHierarchical;
  EXPECT_THROW((void)core::make_system_arbiter(16, sc_hier), CheckError);

  // rr preemption is honoured past one request word: a holder at port 70
  // keeps its grant for max_hold_cycles, then port 127 preempts it.
  core::SystemArbiterSpec held;
  held.rr.max_hold_cycles = 4;
  ASSERT_NE(core::make_system_arbiter(8, held).rr, nullptr);
  auto wide_held = core::make_system_arbiter(128, held);
  ASSERT_NE(wide_held.rr, nullptr);
  std::vector<std::uint64_t> req = {0, 1ull << 6};  // port 70 alone
  EXPECT_EQ(wide_held.arbiter->step_wide(req), 70);
  req[1] |= 1ull << 63;  // port 127 joins
  for (int c = 1; c < held.rr.max_hold_cycles; ++c)
    EXPECT_EQ(wide_held.arbiter->step_wide(req), 70) << "hold cycle " << c;
  EXPECT_EQ(wide_held.arbiter->step_wide(req), 127) << "holder preempted";
  EXPECT_EQ(wide_held.rr->last_grant_words(),
            (std::vector<std::uint64_t>{0, 1ull << 63}));

  // ... and so is hardening: an SEU at bit 200 (C72) next to the holder's
  // C70 makes the register multi-hot.  Unhardened, both states' scans
  // grant (70 and 127); hardened, the step recovers to F0 and grants once.
  for (const bool harden : {false, true}) {
    core::SystemArbiterSpec hs;
    hs.rr.harden = harden;
    auto arb = core::make_system_arbiter(128, hs);
    ASSERT_NE(arb.rr, nullptr);
    const std::vector<std::uint64_t> two = {0, (1ull << 6) | (1ull << 63)};
    ASSERT_EQ(arb.arbiter->step_wide(two), 70);
    arb.rr->inject_state_bit(200);
    EXPECT_EQ(arb.rr->state_name(), "C70+C72");
    EXPECT_EQ(arb.arbiter->step_wide(two), 70);
    const std::vector<std::uint64_t>& grants = arb.rr->last_grant_words();
    EXPECT_EQ(std::popcount(grants[0]) + std::popcount(grants[1]),
              harden ? 1 : 2);
    EXPECT_EQ(arb.rr->recoveries(), harden ? 1u : 0u);
    EXPECT_EQ(arb.rr->state_legal(), harden);
    EXPECT_EQ(arb.rr->state_name(), harden ? "C70" : "C70+C127");
  }

  // Non-round-robin policies ignore the kind machinery entirely.
  core::SystemArbiterSpec fifo;
  fifo.policy = core::Policy::kFifo;
  fifo.kind = ArbiterKind::kPrefix;
  const auto f = core::make_system_arbiter(8, fifo);
  EXPECT_EQ(f.rr, nullptr);
  EXPECT_EQ(dynamic_cast<PrefixArbiter*>(f.arbiter.get()), nullptr);
  EXPECT_NE(f.arbiter, nullptr);
}

// ======================================================== synthesis sanity

TEST(ScalableSynthesis, RegisterCountsMatchTheStructures) {
  const auto& flat = core::generate_arbiter_cached({.n = 16});
  const auto& hier = core::generate_arbiter_cached(
      {.n = 16, .kind = ArbiterKind::kHierarchical});
  const auto& prefix =
      core::generate_arbiter_cached({.n = 16, .kind = ArbiterKind::kPrefix});
  EXPECT_EQ(flat.chars.ffs, 32u);  // 2N one-hot Fi/Ci bits
  EXPECT_EQ(hier.chars.ffs, static_cast<std::size_t>(
                                core::make_hier_shape(16, 4).num_state_bits()));
  EXPECT_EQ(prefix.chars.ffs, 16u);  // N-bit one-hot pointer
  for (const auto* g : {&flat, &hier, &prefix}) {
    EXPECT_GT(g->chars.fmax_mhz, 0.0);
    EXPECT_GT(g->chars.clbs, 0u);
    EXPECT_EQ(g->chars.n, 16);
  }
}

TEST(ScalableSynthesis, HierarchyBeatsTheFlatChainAtN64) {
  const auto& flat = core::generate_arbiter_cached({.n = 64});
  const auto& hier = core::generate_arbiter_cached(
      {.n = 64, .kind = ArbiterKind::kHierarchical});
  const auto& prefix =
      core::generate_arbiter_cached({.n = 64, .kind = ArbiterKind::kPrefix});
  // The ISSUE headline: the flat chain's O(N) scan caps its fmax, the
  // tree overtakes it from N = 64 (bench_arbiter_scaling sweeps further).
  EXPECT_GT(hier.chars.fmax_mhz, flat.chars.fmax_mhz);
  EXPECT_GT(prefix.chars.fmax_mhz, flat.chars.fmax_mhz);
  EXPECT_LT(hier.chars.lut_depth, flat.chars.lut_depth);
}

}  // namespace
}  // namespace rcarb
