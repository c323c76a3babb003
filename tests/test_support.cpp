#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "support/backoff.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace rcarb {
namespace {

TEST(Check, ThrowsCheckErrorWithContext) {
  try {
    RCARB_CHECK(1 == 2, "math is broken");
    FAIL() << "expected a throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(RCARB_CHECK(true, "fine"));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInIsInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceZeroAndCertain) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Rng, RejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), CheckError);
  EXPECT_THROW(rng.next_in(3, 2), CheckError);
  EXPECT_THROW(rng.chance(3, 2), CheckError);
}

// 64x64 -> 128 multiply decomposed into 32-bit limbs — an independent
// reference for the __int128 path inside Rng::next_below.
void mul_64x64(std::uint64_t a, std::uint64_t b, std::uint64_t& hi,
               std::uint64_t& lo) {
  const std::uint64_t a_lo = a & 0xffffffffull, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffull, b_hi = b >> 32;
  const std::uint64_t p0 = a_lo * b_lo;
  const std::uint64_t p1 = a_lo * b_hi;
  const std::uint64_t p2 = a_hi * b_lo;
  const std::uint64_t p3 = a_hi * b_hi;
  const std::uint64_t mid = p1 + (p0 >> 32) + (p2 & 0xffffffffull);
  lo = (p0 & 0xffffffffull) | (mid << 32);
  hi = p3 + (p2 >> 32) + (mid >> 32);
}

/// Lemire's bounded rejection written out by hand, drawing from `rng`.
std::uint64_t reference_bounded(Rng& rng, std::uint64_t bound) {
  std::uint64_t hi = 0, lo = 0;
  mul_64x64(rng.next_u64(), bound, hi, lo);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
    while (lo < threshold) mul_64x64(rng.next_u64(), bound, hi, lo);
  }
  return hi;
}

TEST(Rng, NextBelowMatchesIndependentReference) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  7,
                                  1000,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63) - 1,
                                  1ull << 63,
                                  (1ull << 63) + 1,
                                  kMax - 1,
                                  kMax};
  for (const std::uint64_t bound : bounds) {
    Rng impl(2026), ref(2026);
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(impl.next_below(bound), reference_bounded(ref, bound))
          << "bound=" << bound << " draw " << i;
    }
    // Same number of raw draws consumed: the streams are still in sync.
    EXPECT_EQ(impl.next_u64(), ref.next_u64()) << "bound=" << bound;
  }
}

TEST(Rng, NextBelowBoundOneReturnsZeroAndConsumesOneDraw) {
  Rng a(9), b(9);
  EXPECT_EQ(a.next_below(1), 0u);
  (void)b.next_u64();
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowHugeBoundsStayInRangeAndReachUpperHalf) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t huge[] = {1ull << 63, (1ull << 63) + 1, kMax - 1,
                                kMax};
  for (const std::uint64_t bound : huge) {
    Rng rng(17);
    bool upper_half = false;
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t v = rng.next_below(bound);
      ASSERT_LT(v, bound);
      if (v >= (1ull << 62)) upper_half = true;
    }
    EXPECT_TRUE(upper_half) << "bound=" << bound;
  }
}

TEST(Rng, NextInFullSignedRangeIsPassThrough) {
  constexpr std::int64_t kLo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kHi = std::numeric_limits<std::int64_t>::max();
  Rng a(21), b(21);
  // span == 2^64 degenerates to a raw draw; no bias, no UB.
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(a.next_in(kLo, kHi), static_cast<std::int64_t>(b.next_u64()));
}

TEST(Rng, NextInSpanCrossingSignBoundary) {
  constexpr std::int64_t kLo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kHi = std::numeric_limits<std::int64_t>::max();
  Rng rng(23);
  bool negative = false, positive = false;
  // span == 2^64 - 1: the old `lo + (int64)offset` form was signed
  // overflow for any offset past 2^63 - 1.
  for (int i = 0; i < 400; ++i) {
    const std::int64_t v = rng.next_in(kLo, kHi - 1);
    ASSERT_GE(v, kLo);
    ASSERT_LE(v, kHi - 1);
    if (v < 0) negative = true;
    if (v > 0) positive = true;
  }
  EXPECT_TRUE(negative);
  EXPECT_TRUE(positive);
  // Degenerate one-value ranges at both extremes.
  EXPECT_EQ(rng.next_in(kLo, kLo), kLo);
  EXPECT_EQ(rng.next_in(kHi, kHi), kHi);
  for (int i = 0; i < 50; ++i) {
    const std::int64_t v = rng.next_in(kLo, kLo + 1);
    ASSERT_TRUE(v == kLo || v == kLo + 1);
    const std::int64_t w = rng.next_in(kHi - 1, kHi);
    ASSERT_TRUE(w == kHi - 1 || w == kHi);
  }
}

TEST(Rng, DeriveSeedDeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(42, 7), derive_seed(42, 7));
  std::set<std::uint64_t> seen;
  for (const std::uint64_t master : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    for (std::uint64_t i = 0; i < 1000; ++i)
      seen.insert(derive_seed(master, i));
  }
  // 4 masters x 1000 indices, no collisions — cells get distinct streams.
  EXPECT_EQ(seen.size(), 4000u);
  // The derived seed is not the master itself (index 0 included).
  EXPECT_NE(derive_seed(42, 0), 42u);
}

TEST(Table, RendersAlignedColumns) {
  Table t("demo");
  t.set_header({"N", "value"});
  t.add_row({"2", "10"});
  t.add_row({"10", "3"});
  const std::string s = t.render();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("| N  | value |"), std::string::npos);
  EXPECT_NE(s.find("| 10 | 3     |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRowArity) {
  Table t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(Table, FmtFixedFormatsDecimals) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 1), "2.0");
}

TEST(Text, JoinEmptyAndNonEmpty) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

TEST(Text, IsIdentifier) {
  EXPECT_TRUE(is_identifier("req0"));
  EXPECT_TRUE(is_identifier("Grant_1"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier("a-b"));
}

TEST(Text, IndentPreservesEmptyLines) {
  EXPECT_EQ(indent("a\n\nb\n", 2), "  a\n\n  b\n");
}

TEST(Text, SignalName) {
  EXPECT_EQ(signal_name("req", 3), "req3");
}


TEST(ExpBackoff, DoublesThenSaturatesAtTheLimitForAnyRoundCount) {
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  for (int round = 0; round < 31; ++round)
    EXPECT_EQ(exp_backoff(1, kIntMax, round), std::uint64_t{1} << round);
  // Past 2^31 the delay sits on the limit; far past 64 the shift would be
  // undefined, so the exponent must saturate instead of wrapping.
  for (const int round : {31, 32, 62, 63, 64, 65, 1000, 1 << 30})
    EXPECT_EQ(exp_backoff(1, kIntMax, round), kIntMax) << "round " << round;
  EXPECT_EQ(exp_backoff(8, 256, 0), 8u);
  EXPECT_EQ(exp_backoff(8, 256, 5), 256u);
  EXPECT_EQ(exp_backoff(0, 256, 80), 0u);
  EXPECT_EQ(exp_backoff(~std::uint64_t{0}, ~std::uint64_t{0}, 1),
            ~std::uint64_t{0});
}

}  // namespace
}  // namespace rcarb
