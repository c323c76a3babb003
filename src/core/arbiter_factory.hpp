// Arbiter kind selection and the single system-layer arbiter factory.
//
// Three synthesizable round-robin structures (core/hier.hpp) carry
// pre-characterized area/fmax from the synthesis memo
// (generate_arbiter_cached).  This module is the one audited construction
// path the system layers (src/service, src/rcsim) share:
//
//  * ArbiterChoice: what an options struct asks for — an explicit kind or
//    kAuto, which resolves from the port count and an fmax budget using
//    the pre-characterized cache (select_arbiter_kind).
//  * make_system_arbiter: builds the behavioral arbiter for a resolved
//    kind plus the policy/self-check/hardening switches the simulators
//    need.  Grants and SEU injection go through core::Arbiter for every
//    kind; typed side pointers remain only for what is flat-specific
//    (register legality, hardened recoveries, the self-check error net).
#pragma once

#include <cstdint>
#include <memory>

#include "core/hier.hpp"
#include "core/policy.hpp"
#include "core/selfcheck.hpp"

namespace rcarb::core {

/// What an options struct requests: a concrete structure, or kAuto to let
/// select_arbiter_kind pick from the port count and a timing budget.
enum class ArbiterChoice : std::uint8_t {
  kAuto,          // resolve from (n, fmax budget) via the synthesis memo
  kFlatFsm,       // Fig. 5 chain (RoundRobinArbiter at every width)
  kHierarchical,  // tree-of-arbiters
  kPrefix,        // Kogge-Stone thermometer-mask
};

[[nodiscard]] const char* to_string(ArbiterChoice c);

/// Picks the cheapest structure whose pre-characterized fmax meets
/// `timing_budget_mhz` (> 0 required), consulting generate_arbiter_cached
/// in area order: flat, then hierarchical, then prefix.  Flat candidates
/// are only considered up to 64 ports — past that the chain's fmax decays
/// ~1/N and synthesizing it just to rule it out would dominate the caller.
/// When nothing meets the budget the fastest structure wins.
[[nodiscard]] ArbiterKind select_arbiter_kind(int n, double timing_budget_mhz,
                                             int arity = 4);

/// Maps a choice to a concrete kind: explicit choices pass through (the
/// budget is ignored); kAuto runs select_arbiter_kind and therefore
/// requires timing_budget_mhz > 0.
[[nodiscard]] ArbiterKind resolve_arbiter_choice(ArbiterChoice choice, int n,
                                                double timing_budget_mhz,
                                                int arity = 4);

/// Everything a system layer configures about one arbiter instance.  The
/// kind must already be resolved (no kAuto here): resolution happens once
/// at the options boundary, construction is pure.
struct SystemArbiterSpec {
  Policy policy = Policy::kRoundRobin;
  /// Round-robin structure; ignored for non-round-robin policies.
  ArbiterKind kind = ArbiterKind::kFlatFsm;
  int arity = 4;  // tree arity, kHierarchical only
  /// Preemption/hardening; flat-only, honoured at every width — the
  /// scalable kinds have no one-hot register to harden and no hold
  /// counter, so these are ignored there.
  RoundRobinOptions rr;
  /// Replication; flat-only (the self-checking netlists duplicate the
  /// Fig. 5 core) and capped at 64 ports (the behavioral model compares
  /// per-copy F/C state words).  Combining it with a non-flat kind or a
  /// wider resource CHECK-fails.
  CheckMode self_check = CheckMode::kNone;
  std::uint64_t seed = 1;  // kRandom policy only
};

/// A constructed arbiter plus typed views into it.  At most one side
/// pointer is set, when the flat round-robin or the self-checking
/// subclass was built; both alias `arbiter` and share its lifetime.
struct SystemArbiter {
  std::unique_ptr<Arbiter> arbiter;
  ArbiterKind kind = ArbiterKind::kFlatFsm;
  RoundRobinArbiter* rr = nullptr;
  SelfCheckingArbiter* sc = nullptr;
};

/// The single construction path for system-layer arbiters (service engine
/// and rcsim, both first-build and post-quarantine regeneration).
[[nodiscard]] SystemArbiter make_system_arbiter(int n,
                                                const SystemArbiterSpec& spec);

}  // namespace rcarb::core
