// Threaded wide-lane SEU replica batches.
//
// The fault campaign's netlist-level inner loop is a *replica batch*: R
// replicas of one arbiter netlist replay a shared request stream, each
// replica carrying its own SEU (a register bit flipped at a
// replica-specific cycle).  Before its SEU a replica *is* the fault-free
// ("golden") run, and once all of its DFFs hold the golden values again
// every later grant is the golden grant.  So one call simulates the
// golden run once, on the calling thread, and then only the cycles where
// replicas can differ from it (fault dropping, after Ulrich & Baker's
// concurrent fault simulation): replicas are sorted by SEU cycle and
// packed `lanes` at a time into netlist::WideLaneSimulator passes (64..512
// lanes per pass, SIMD kernel chosen at runtime) that run on
// support/parallel.hpp's ordered_map_reduce worker pool.  A pass starts
// from the golden registers at its earliest SEU cycle s and stops at the
// first cycle e after its last SEU at which every lane's DFFs equal the
// golden run's (or at the end of the stream).  Each lane folds only its
// grants of [s, e), one chunk of 64 / grants cycles at a time (a 64x64 bit
// transpose plus byte-table lookups), as d.  With H the golden fold of
// [0, s), S the golden fold of [e, C) and G grants per cycle, its
// checksum is (H * 31^(G(e-s)) + d) * 31^(G(C-e)) + S, exactly, since the
// fold is Horner's rule mod 2^64 (DESIGN.md section 15).
//
// Determinism contract: every replica's grant-stream checksum is a pure
// function of (netlist, request stream, that replica's SEU) — lanes never
// interact, and passes are fixed slices of the SEU-cycle-sorted index
// (a stable sort, so ties keep replica order) — so `checksums` and
// `folded` are byte-identical across RCARB_JOBS=1 vs N, across lane
// widths 64/256/512, across SIMD tiers, and against R scalar
// netlist::Simulator runs.  The cross-width test suite and
// bench_sim_throughput's checksum tie pin all of this.  Only the
// `*_seconds` fields (wall times) are outside the contract.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/wide_simulator.hpp"
#include "support/cpu.hpp"

namespace rcarb::fault {

/// One replica's SEU: flip `state[state_bit]` after the grants of
/// `cycle` are sampled (before the clock edge).
struct ReplicaSeu {
  std::uint32_t cycle = 0;
  std::uint32_t state_bit = 0;
};

/// A batch of SEU replicas over one netlist.  `requests[c]` carries the
/// cycle-c request pattern in its low req.size() bits, shared by every
/// replica; `grant` lists the 1..64 nets each checksum folds per cycle;
/// `seu` holds one entry per replica (its size is the replica count R).
struct ReplicaBatchSpec {
  const netlist::Netlist* netlist = nullptr;
  std::vector<netlist::NetId> req;
  std::vector<netlist::NetId> grant;
  std::vector<netlist::NetId> state;
  std::vector<std::uint64_t> requests;
  std::vector<ReplicaSeu> seu;
};

struct ReplicaBatchOptions {
  /// Lanes per simulator pass: a multiple of 64 in [64, 512].
  std::size_t lanes = netlist::WideLaneSimulator::kMaxLanes;
  /// Caps the SIMD kernel (default: the machine tier under $RCARB_SIMD).
  std::optional<SimdTier> tier;
  /// Worker threads for the batch fan-out: 0 = $RCARB_JOBS default,
  /// 1 = exact serial path (support/parallel.hpp semantics).
  int jobs = 0;
};

struct ReplicaBatchResult {
  /// Per-replica grant-stream checksum, replica order (the scalar
  /// Simulator fold: c = c * 31 + (grant_i ? i + 1 : 0) per grant per
  /// cycle).
  std::vector<std::uint64_t> checksums;
  /// FNV-style fold of `checksums` in replica order — one word to compare
  /// across engines, widths, tiers and job counts.
  std::uint64_t folded = 0;
  /// LUT evaluations summed over the pass simulators: the golden-register
  /// load and every stepped cycle.  The golden pass runs on the scalar
  /// netlist::Simulator and is not counted.
  std::uint64_t luts_evaluated = 0;
  /// Lane-cycles the passes stepped: (e - s) * lanes summed over passes.
  /// The replica-cycles a call delivers are R * requests.size(); replicas
  /// whose SEU lies at or past the end of the stream take no pass.
  std::uint64_t simulated_lane_cycles = 0;
  /// Wide-lane passes run: ceil(replicas with an in-run SEU / lanes).
  std::size_t batches = 0;
  std::size_t lanes = 0;
  /// SIMD kernel the passes dispatched to (kScalar when no pass ran).
  SimdTier kernel_tier = SimdTier::kScalar;
  /// Summed wall time of the passes' cycle loops minus their chunk folds:
  /// golden-register load, stimulus, settle, grant capture, SEU pokes,
  /// clock and the rejoin compare (excludes simulator construction, the
  /// golden pass and `fold_seconds`).  Outside the determinism contract.
  double kernel_seconds = 0.0;
  /// Summed wall time of the streamed checksum chunk folds, which run
  /// inside the cycle loops but are timed apart from `kernel_seconds`.
  /// Outside the determinism contract.
  double fold_seconds = 0.0;
  /// Wall time of the serial golden pass (its own field: it is in neither
  /// `kernel_seconds` nor `fold_seconds`).  Outside the determinism
  /// contract.
  double golden_seconds = 0.0;
};

/// Runs all R = spec.seu.size() replicas and returns their checksums.
/// See the file comment for the determinism contract.
[[nodiscard]] ReplicaBatchResult run_replica_batch(
    const ReplicaBatchSpec& spec, const ReplicaBatchOptions& options = {});

}  // namespace rcarb::fault
