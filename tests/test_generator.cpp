#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>

#include "core/generator.hpp"
#include "core/policy.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace rcarb::core {
namespace {

TEST(Generator, CharacteristicsArePopulated) {
  const GeneratedArbiter g = generate_arbiter({.n = 4});
  EXPECT_EQ(g.chars.n, 4);
  EXPECT_GT(g.chars.clbs, 0u);
  EXPECT_GT(g.chars.luts, 0u);
  EXPECT_EQ(g.chars.ffs, 8u);  // one-hot: 2N registers
  EXPECT_GT(g.chars.fmax_mhz, 0.0);
  EXPECT_EQ(g.chars.overhead_cycles, kProtocolOverheadCycles);
  EXPECT_EQ(g.chars.encoding, synth::Encoding::kOneHot);
}

TEST(Generator, SynplifyForcesOneHotEvenWhenCompactRequested) {
  const GeneratedArbiter g =
      generate_arbiter({.n = 4,
                        .flow = synth::FlowKind::kSynplifyLike,
                        .encoding = synth::Encoding::kCompact});
  EXPECT_EQ(g.chars.encoding, synth::Encoding::kOneHot);
}

TEST(Generator, CompactUsesFewerRegisters) {
  const GeneratedArbiter oh = generate_arbiter({.n = 6});
  const GeneratedArbiter cp =
      generate_arbiter({.n = 6, .encoding = synth::Encoding::kCompact});
  EXPECT_EQ(oh.chars.ffs, 12u);
  EXPECT_EQ(cp.chars.ffs, 4u);  // ceil(log2(12))
}

TEST(Generator, AreaGrowsMonotonicallyWithN) {
  std::size_t prev = 0;
  for (int n = 2; n <= 10; n += 2) {
    const GeneratedArbiter g = generate_arbiter({.n = n});
    EXPECT_GE(g.chars.clbs + 2, prev) << "n=" << n;  // small tolerance
    prev = g.chars.clbs;
  }
}

TEST(Generator, FmaxDecaysWithN) {
  const GeneratedArbiter small = generate_arbiter({.n = 2});
  const GeneratedArbiter big = generate_arbiter({.n = 10});
  EXPECT_GT(small.chars.fmax_mhz, big.chars.fmax_mhz);
  // The paper's band: a 10-input arbiter still clocks above a ~6 MHz
  // design clock by a wide margin.
  EXPECT_GT(big.chars.fmax_mhz, 10.0);
}

TEST(Generator, BehavioralModeIsLargerThanStructural) {
  // The ablation the benches report: generic two-level synthesis of the
  // Fig. 5 case statement costs more area than the factored chain.
  const GeneratedArbiter s = generate_arbiter({.n = 6});
  const GeneratedArbiter b =
      generate_arbiter({.n = 6, .mode = GeneratorMode::kBehavioral});
  EXPECT_LT(s.chars.clbs, b.chars.clbs);
}

TEST(SynthMemo, MemoizesBySize) {
  // What the partitioners price against: one characterization per N.
  const ArbiterCharacteristics& a = generate_arbiter_cached({.n = 4}).chars;
  const ArbiterCharacteristics& b = generate_arbiter_cached({.n = 4}).chars;
  EXPECT_EQ(&a, &b) << "same object must be returned from cache";
  EXPECT_EQ(generate_arbiter_cached({.n = 6}).chars.n, 6);
}

TEST(SynthMemo, MatchesDirectGeneration) {
  const GeneratedArbiter direct = generate_arbiter({.n = 5});
  EXPECT_EQ(generate_arbiter_cached({.n = 5}).chars.clbs, direct.chars.clbs);
  EXPECT_DOUBLE_EQ(generate_arbiter_cached({.n = 5}).chars.fmax_mhz,
                   direct.chars.fmax_mhz);
}

TEST(Generator, ToStringNames) {
  EXPECT_STREQ(to_string(GeneratorMode::kStructural), "structural");
  EXPECT_STREQ(to_string(GeneratorMode::kBehavioral), "behavioral");
}

TEST(SynthMemo, CachedResultMatchesFreshSynthesis) {
  // The memo must be transparent: every characterization field of a cached
  // arbiter equals a fresh (uncached) run of the same spec, for one spec
  // per generator family.
  const ArbiterSpec specs[] = {
      {.n = 7, .encoding = synth::Encoding::kCompact},
      {.n = 3, .mode = GeneratorMode::kBehavioral, .harden = true},
      {.n = 4, .check = CheckMode::kDuplicate},
      {.n = 16, .kind = ArbiterKind::kHierarchical, .arity = 4},
      {.n = 16, .kind = ArbiterKind::kPrefix},
      {.n = 4, .policy = Policy::kPriority, .mode = GeneratorMode::kBehavioral},
  };
  for (const ArbiterSpec& spec : specs) {
    SCOPED_TRACE(std::string(to_string(spec.kind)) + " " +
                 to_string(spec.policy) + " " + to_string(spec.mode) +
                 " n=" + std::to_string(spec.n));
    const GeneratedArbiter& cached = generate_arbiter_cached(spec);
    const GeneratedArbiter fresh = generate_arbiter(spec);
    EXPECT_EQ(cached.chars.n, fresh.chars.n);
    EXPECT_EQ(cached.chars.encoding, fresh.chars.encoding);
    EXPECT_EQ(cached.chars.flow, fresh.chars.flow);
    EXPECT_EQ(cached.chars.clbs, fresh.chars.clbs);
    EXPECT_EQ(cached.chars.luts, fresh.chars.luts);
    EXPECT_EQ(cached.chars.ffs, fresh.chars.ffs);
    EXPECT_EQ(cached.chars.lut_depth, fresh.chars.lut_depth);
    EXPECT_DOUBLE_EQ(cached.chars.fmax_mhz, fresh.chars.fmax_mhz);
    EXPECT_EQ(cached.chars.aig_ands, fresh.chars.aig_ands);
    EXPECT_EQ(cached.synth.netlist.num_luts(), fresh.synth.netlist.num_luts());
    EXPECT_EQ(cached.synth.netlist.num_dffs(), fresh.synth.netlist.num_dffs());
  }
}

TEST(SynthMemo, SameKeyReturnsSameObjectAndCountsHits) {
  const ArbiterSpec gray9{.n = 9, .encoding = synth::Encoding::kGray};
  const SynthMemoStats before = synth_memo_stats();
  const GeneratedArbiter& a = generate_arbiter_cached(gray9);
  const GeneratedArbiter& b = generate_arbiter_cached(gray9);
  EXPECT_EQ(&a, &b) << "one synthesis per configuration per process";
  const SynthMemoStats after = synth_memo_stats();
  EXPECT_GE(after.hits, before.hits + 1);
  // Exactly-one-miss can't be asserted (another test may have primed the
  // key), but misses never move by more than the one candidate key here.
  EXPECT_LE(after.misses, before.misses + 1);
}

TEST(SynthMemo, SynplifyEncodingRequestsAliasToOneHot) {
  // Synplify-like flows force one-hot, so requesting compact or gray under
  // them must share the one-hot entry instead of synthesizing three times.
  const auto synplify = [](synth::Encoding e) -> const GeneratedArbiter& {
    return generate_arbiter_cached(
        {.n = 5, .flow = synth::FlowKind::kSynplifyLike, .encoding = e});
  };
  const GeneratedArbiter& oh = synplify(synth::Encoding::kOneHot);
  EXPECT_EQ(&oh, &synplify(synth::Encoding::kCompact));
  EXPECT_EQ(&oh, &synplify(synth::Encoding::kGray));
}

TEST(SynthMemo, BehavioralCacheKeyIncludesHardening) {
  const ArbiterSpec plain_spec{.n = 3, .mode = GeneratorMode::kBehavioral};
  ArbiterSpec hard_spec = plain_spec;
  hard_spec.harden = true;
  const synth::SynthResult& plain = generate_arbiter_cached(plain_spec).synth;
  const synth::SynthResult& hard = generate_arbiter_cached(hard_spec).synth;
  EXPECT_NE(&plain, &hard);
  // Recovery logic costs area: the hardened netlist is strictly larger.
  EXPECT_GT(hard.netlist.num_luts(), plain.netlist.num_luts());
  EXPECT_EQ(&plain, &generate_arbiter_cached(plain_spec).synth);
}

TEST(SynthMemo, EquivalentRequestsShareOneEntry) {
  // The flat kind (as kind selection asks for it, carrying whatever tree
  // arity the caller configured) and the Express one-hot structural
  // round-robin (as the Fig. 6/7 benches ask for it) are one netlist, so
  // they are one memo entry.
  for (const int n : {2, 8, 16, 20}) {
    const GeneratedArbiter& flat = generate_arbiter_cached(
        {.n = n, .kind = ArbiterKind::kFlatFsm, .arity = 2});
    const GeneratedArbiter& rr =
        generate_arbiter_cached({.n = n,
                                 .policy = Policy::kRoundRobin,
                                 .flow = synth::FlowKind::kExpressLike,
                                 .encoding = synth::Encoding::kOneHot,
                                 .mode = GeneratorMode::kStructural});
    EXPECT_EQ(&flat, &rr) << "n=" << n;
    // The plain behavioral netlist is the same entry whether the caller
    // went through the forward or built the spec.
    EXPECT_EQ(&synthesize_round_robin_cached(n, synth::Encoding::kOneHot,
                                             /*harden=*/false),
              &generate_arbiter_cached(
                   {.n = n, .mode = GeneratorMode::kBehavioral})
                   .synth)
        << "n=" << n;
  }
}

TEST(SynthMemo, DistinctSpecsStayDistinct) {
  const std::pair<ArbiterSpec, ArbiterSpec> pairs[] = {
      {{.n = 6, .flow = synth::FlowKind::kSynplifyLike}, {.n = 6}},
      {{.n = 3, .mode = GeneratorMode::kBehavioral, .harden = true},
       {.n = 3, .mode = GeneratorMode::kBehavioral}},
      {{.n = 16, .kind = ArbiterKind::kHierarchical, .arity = 2},
       {.n = 16, .kind = ArbiterKind::kHierarchical, .arity = 4}},
      {{.n = 4, .check = CheckMode::kDuplicate},
       {.n = 4, .check = CheckMode::kTmr}},
  };
  for (const auto& [a, b] : pairs)
    EXPECT_NE(&generate_arbiter_cached(a), &generate_arbiter_cached(b))
        << to_string(a.kind) << " n=" << a.n;
}

TEST(SynthMemo, CanonicalRefusesWhatNoGeneratorImplements) {
  using synth::Encoding;
  using synth::FlowKind;
  constexpr auto kBehavioral = GeneratorMode::kBehavioral;
  constexpr auto kHier = ArbiterKind::kHierarchical;
  const ArbiterSpec refused[] = {
      {.n = 0},
      {.n = kMaxWideInputs + 1},
      // Self-checking copies wrap the structural Express-like Fig. 5 core.
      {.n = 4, .kind = kHier, .check = CheckMode::kDuplicate},
      {.n = 4, .kind = ArbiterKind::kPrefix, .check = CheckMode::kTmr},
      {.n = 4, .mode = kBehavioral, .check = CheckMode::kDuplicate},
      {.n = 4, .flow = FlowKind::kSynplifyLike, .check = CheckMode::kTmr},
      // Hardening is an FSM-elaboration option.
      {.n = 4, .harden = true},
      // Other policies only exist as FSMs.
      {.n = 4, .policy = Policy::kPriority},
      {.n = 4, .policy = Policy::kFifo, .kind = kHier, .mode = kBehavioral},
      // The scalable kinds are structural, Express-like and one-hot.
      {.n = 4, .kind = kHier, .mode = kBehavioral},
      {.n = 4, .kind = ArbiterKind::kPrefix, .encoding = Encoding::kCompact},
      {.n = 4, .kind = kHier, .flow = FlowKind::kSynplifyLike},
      {.n = 4, .kind = kHier, .arity = 5},
  };
  for (const ArbiterSpec& spec : refused) {
    SCOPED_TRACE(std::string(to_string(spec.kind)) + " " +
                 to_string(spec.check) + " n=" + std::to_string(spec.n));
    const SynthMemoStats before = synth_memo_stats();
    EXPECT_THROW((void)canonical(spec), CheckError);
    EXPECT_THROW((void)generate_arbiter_cached(spec), CheckError);
    EXPECT_THROW((void)generate_arbiter(spec), CheckError);
    EXPECT_EQ(synth_memo_stats().misses, before.misses)
        << "a refused spec must not reach the memo";
  }
}

TEST(SynthMemo, ConcurrentRequestsShareOneSynthesis) {
  // Hammer one cold key plus a few warm ones from 4 workers; every caller
  // must observe the same entry address (the mutex + once_flag discipline),
  // and the run must be clean under TSan.
  std::atomic<const GeneratedArbiter*> seen{nullptr};
  std::atomic<int> mismatches{0};
  parallel_for_each(
      16,
      [&](std::size_t i) {
        const GeneratedArbiter& g = generate_arbiter_cached(
            {.n = 11,
             .mode = i % 2 == 0 ? GeneratorMode::kStructural
                                : GeneratorMode::kBehavioral});
        if (i % 2 == 0) {
          const GeneratedArbiter* expected = nullptr;
          if (!seen.compare_exchange_strong(expected, &g) && expected != &g)
            mismatches.fetch_add(1);
        }
      },
      /*jobs=*/4);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace rcarb::core
