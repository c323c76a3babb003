#include "fault/replica_batch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>

#include "support/check.hpp"
#include "support/parallel.hpp"

namespace rcarb::fault {

namespace {

using netlist::NetId;
using netlist::WideLaneSimulator;

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Constants of one chunk fold.  A chunk is `bits` consecutive grant
/// positions k (cycle-major, grant-minor) of one replica, position k
/// carrying v_k = (grant i of k set ? i + 1 : 0).  Folding it the scalar
/// way, c = c * 31 + v_k for k = 0..bits-1, equals
///   c * 31^bits + sum_k v_k * 31^(bits-1-k)   (mod 2^64),
/// so with the chunk's grant bits transposed into one `bits`-bit pattern
/// per lane, the sum is eight byte-table lookups: table[j][b] sums the
/// position weights (i + 1) * 31^(bits-1-k) of the set bits of byte j.
struct ChunkFold {
  std::size_t bits = 0;
  std::uint64_t scale = 1;  // 31^bits
  std::array<std::array<std::uint64_t, 256>, 8> table{};
};

ChunkFold make_chunk_fold(std::size_t bits, std::size_t num_grants) {
  std::array<std::uint64_t, 64> weight{};
  std::uint64_t power = 1;
  for (std::size_t k = bits; k-- > 0;) {
    weight[k] = (k % num_grants + 1) * power;
    power *= 31;
  }
  ChunkFold fold;
  fold.bits = bits;
  fold.scale = power;
  for (std::size_t j = 0; j < 8; ++j)
    for (unsigned b = 1; b < 256; ++b) {
      const auto low = static_cast<std::size_t>(std::countr_zero(b));
      fold.table[j][b] = fold.table[j][b & (b - 1)] + weight[8 * j + low];
    }
  return fold;
}

/// The two folds of a run: whole chunks, and the final partial chunk of
/// cycles % chunk_cycles cycles (bits = 0 when there is none).
struct RunFolds {
  std::size_t chunk_cycles = 0;
  ChunkFold full;
  ChunkFold tail;
};

/// In-place 64x64 bit-matrix transpose: afterwards bit k of a[l] is what
/// bit l of a[k] was.  Six rounds of block swaps, halving the block edge.
void transpose64(std::uint64_t a[64]) {
  std::uint64_t mask = 0x00000000ffffffffull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j)
    for (unsigned base = 0; base < 64; base += 2 * j)
      for (unsigned k = base; k < base + j; ++k) {
        const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & mask;
        a[k + j] ^= t;
        a[k] ^= t << j;
      }
}

/// Folds one buffered chunk (`fold.bits` grant rows of `words` words each)
/// into the first `active` lanes' checksums.
void fold_chunk(const ChunkFold& fold, const std::uint64_t* rows,
                std::size_t words, std::size_t active,
                std::uint64_t* checksums) {
  for (std::size_t w = 0; w * 64 < active; ++w) {
    std::uint64_t block[64] = {};
    for (std::size_t k = 0; k < fold.bits; ++k) block[k] = rows[k * words + w];
    transpose64(block);
    const std::size_t lanes = std::min<std::size_t>(64, active - w * 64);
    std::uint64_t* out = checksums + w * 64;
    for (std::size_t l = 0; l < lanes; ++l) {
      std::uint64_t sum = 0;
      for (std::size_t j = 0; j < 8; ++j)
        sum += fold.table[j][(block[l] >> (8 * j)) & 0xff];
      out[l] = out[l] * fold.scale + sum;
    }
  }
}

/// One replica's SEU resolved to its batch lane.
struct LanePoke {
  std::uint32_t cycle = 0;
  std::uint32_t lane = 0;
  std::uint32_t state_bit = 0;
};

/// One batch's map() output: checksums for its active replicas plus the
/// instrumentation the reducer aggregates.
struct BatchOut {
  std::vector<std::uint64_t> checksums;
  std::uint64_t luts_evaluated = 0;
  SimdTier kernel_tier = SimdTier::kScalar;
  double kernel_seconds = 0.0;
  double fold_seconds = 0.0;
};

BatchOut run_one_batch(const ReplicaBatchSpec& spec,
                       const ReplicaBatchOptions& options,
                       const RunFolds& folds, std::size_t first_replica,
                       std::size_t active) {
  using Clock = std::chrono::steady_clock;
  const std::size_t cycles = spec.requests.size();
  const std::size_t num_grants = spec.grant.size();

  // This batch's SEUs inside the run, cycle-sorted (lane order within a
  // cycle).
  std::vector<LanePoke> pokes;
  pokes.reserve(active);
  for (std::size_t l = 0; l < active; ++l) {
    const ReplicaSeu& seu = spec.seu[first_replica + l];
    if (seu.cycle < cycles)
      pokes.push_back(
          {seu.cycle, static_cast<std::uint32_t>(l), seu.state_bit});
  }
  std::ranges::stable_sort(pokes, {}, &LanePoke::cycle);

  WideLaneSimulator sim(*spec.netlist, options.lanes, options.tier);
  const std::size_t words = sim.words();
  // One chunk of grant rows, row (cycle % chunk_cycles) * grants + i: a few
  // KB at 512 lanes, so capture and fold stay in L1.
  std::vector<std::uint64_t> chunk(folds.full.bits * words);
  BatchOut out;
  out.checksums.assign(active, 0);
  auto timed_fold = [&](const ChunkFold& fold) {
    const auto t = Clock::now();
    fold_chunk(fold, chunk.data(), words, active, out.checksums.data());
    out.fold_seconds += std::chrono::duration<double>(Clock::now() - t).count();
  };
  const std::uint64_t evals_before = sim.luts_evaluated();

  const auto t0 = Clock::now();
  sim.reset();
  auto next_poke = pokes.begin();
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::uint64_t req = spec.requests[c];
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input_all(spec.req[i], (req >> i) & 1);
    sim.settle();
    const std::size_t slot = c % folds.chunk_cycles;
    for (std::size_t i = 0; i < num_grants; ++i)
      sim.get(spec.grant[i],
              chunk.data() + (slot * num_grants + i) * words);
    for (; next_poke != pokes.end() && next_poke->cycle == c; ++next_poke) {
      const NetId net = spec.state[next_poke->state_bit];
      sim.poke_register_lane(net, next_poke->lane,
                             !sim.get_lane(net, next_poke->lane));
    }
    sim.clock();
    if (slot + 1 == folds.chunk_cycles) timed_fold(folds.full);
  }
  if (folds.tail.bits != 0) timed_fold(folds.tail);
  out.kernel_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count() -
      out.fold_seconds;
  out.luts_evaluated = sim.luts_evaluated() - evals_before;
  out.kernel_tier = sim.kernel_tier();
  return out;
}

}  // namespace

ReplicaBatchResult run_replica_batch(const ReplicaBatchSpec& spec,
                                     const ReplicaBatchOptions& options) {
  RCARB_CHECK(spec.netlist != nullptr, "replica batch needs a netlist");
  RCARB_CHECK(!spec.seu.empty(), "replica batch needs at least one replica");
  RCARB_CHECK(spec.req.size() <= 64,
              "replica batch request streams carry <= 64 request bits");
  RCARB_CHECK(!spec.grant.empty() && spec.grant.size() <= 64,
              "replica batch checksums fold 1..64 grant bits per cycle");
  for (const ReplicaSeu& seu : spec.seu)
    RCARB_CHECK(seu.state_bit < spec.state.size(),
                "replica SEU targets a state bit outside the register");
  const std::size_t lanes = options.lanes;
  RCARB_CHECK(lanes >= 64 && lanes <= WideLaneSimulator::kMaxLanes &&
                  lanes % 64 == 0,
              "replica batch lanes must be a multiple of 64 in [64, 512]");

  const std::size_t replicas = spec.seu.size();
  const std::size_t batches = (replicas + lanes - 1) / lanes;
  const std::size_t num_grants = spec.grant.size();
  RunFolds folds;
  folds.chunk_cycles = 64 / num_grants;
  folds.full = make_chunk_fold(folds.chunk_cycles * num_grants, num_grants);
  folds.tail = make_chunk_fold(
      spec.requests.size() % folds.chunk_cycles * num_grants, num_grants);

  ReplicaBatchResult result;
  result.batches = batches;
  result.lanes = lanes;
  result.checksums.reserve(replicas);
  ordered_map_reduce<BatchOut>(
      batches,
      [&](std::size_t b) {
        const std::size_t first = b * lanes;
        const std::size_t active = std::min(lanes, replicas - first);
        return run_one_batch(spec, options, folds, first, active);
      },
      [&](std::size_t, BatchOut out) {
        for (const std::uint64_t checksum : out.checksums) {
          result.checksums.push_back(checksum);
          result.folded = result.folded * kFnvPrime + checksum;
        }
        result.luts_evaluated += out.luts_evaluated;
        result.kernel_tier = out.kernel_tier;
        result.kernel_seconds += out.kernel_seconds;
        result.fold_seconds += out.fold_seconds;
      },
      options.jobs);
  return result;
}

}  // namespace rcarb::fault
