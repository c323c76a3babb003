// Bounded exponential backoff, shared by the rcsim retry protocol and the
// service's client retries.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

namespace rcarb {

/// The delay of backoff round `round` (>= 0): `base` doubled once per
/// earlier round, capped at `limit`.  The exponent saturates: `base <<
/// round` is undefined once the shift reaches 64 (x86's masked shift
/// silently cycles back to short delays), and any shift that would pass
/// the limit lands on the limit anyway — so every round count is defined,
/// and no intermediate value can overflow.
[[nodiscard]] constexpr std::uint64_t exp_backoff(std::uint64_t base,
                                                  std::uint64_t limit,
                                                  int round) {
  if (base == 0) return 0;
  if (round >= std::countl_zero(base)) return limit;
  return std::min(base << round, limit);
}

}  // namespace rcarb
