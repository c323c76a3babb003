#include "fault/replica_batch.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <span>

#include "netlist/simulator.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace rcarb::fault {

namespace {

using netlist::NetId;
using netlist::WideLaneSimulator;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The byte tables of the chunk fold.  A chunk is `bits` consecutive grant
/// positions k (cycle-major, grant-minor) of one replica, position k
/// carrying v_k = (grant i of k set ? i + 1 : 0).  Folding it the scalar
/// way, c = c * 31 + v_k for k = 0..bits-1, equals
///   c * 31^bits + sum_k v_k * 31^(bits-1-k)   (mod 2^64),
/// so with the chunk's grant bits transposed into one `bits`-bit pattern
/// per lane, the sum is eight byte-table lookups: table[j][b] sums the
/// position weights (i + 1) * 31^(bits-1-k) of the set bits of byte j.
struct ChunkFold {
  std::size_t bits = 0;
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
  for (std::size_t j = 0; j < 8; ++j)
    for (unsigned b = 1; b < 256; ++b) {
      const auto low = static_cast<std::size_t>(std::countr_zero(b));
      fold.table[j][b] = fold.table[j][b & (b - 1)] + weight[8 * j + low];
    }
  return fold;
}

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

/// Folds `rows` buffered grant rows (`words` words each, rows <= fold.bits
/// and a multiple of the grant count) into the first `active` lanes'
/// checksums; `scale` is 31^rows.  A short chunk is placed at the end of
/// the transposed block: there its position k weighs 31^(rows-1-k), so
/// one table serves every chunk length.
void fold_chunk(const ChunkFold& fold, std::size_t rows, std::uint64_t scale,
                const std::uint64_t* chunk, std::size_t words,
                std::size_t active, std::uint64_t* checksums) {
  const std::size_t offset = fold.bits - rows;
  for (std::size_t w = 0; w * 64 < active; ++w) {
    std::uint64_t block[64] = {};
    for (std::size_t k = 0; k < rows; ++k)
      block[offset + k] = chunk[k * words + w];
    transpose64(block);
    const std::size_t lanes = std::min<std::size_t>(64, active - w * 64);
    std::uint64_t* out = checksums + w * 64;
    for (std::size_t l = 0; l < lanes; ++l) {
      std::uint64_t sum = 0;
      for (std::size_t j = 0; j < 8; ++j)
        sum += fold.table[j][(block[l] >> (8 * j)) & 0xff];
      out[l] = out[l] * scale + sum;
    }
  }
}

/// The fault-free run of the whole stream.  Every replica is this run
/// until its SEU, and is this run again from the first cycle at which all
/// of its DFFs hold the fault-free values.
struct GoldenRun {
  /// `dff_q` lists Netlist::dffs()' q nets; row c of `dffs` (dff_words
  /// words, bit i = dff_q[i]) holds their values at the start of cycle c,
  /// for c in [0, C].
  std::vector<NetId> dff_q;
  std::size_t dff_words = 0;
  std::vector<std::uint64_t> dffs;
  /// head[c]: the checksum fold of cycles [0, c); suffix[c]: the fold of
  /// cycles [c, C) started from 0; power[k] = 31^(grants * k).  C + 1
  /// entries each.
  std::vector<std::uint64_t> head;
  std::vector<std::uint64_t> suffix;
  std::vector<std::uint64_t> power;

  [[nodiscard]] bool dff(std::size_t cycle, std::size_t i) const {
    return (dffs[cycle * dff_words + i / 64] >> (i % 64)) & 1u;
  }
};

/// Runs the golden pass on the one-scenario Simulator (a full topo pass
/// per settle beats a 64-lane engine carrying 63 idle lanes) and fills
/// every table, each sized once.
GoldenRun run_golden(const ReplicaBatchSpec& spec) {
  const netlist::Netlist& nl = *spec.netlist;
  const std::size_t cycles = spec.requests.size();
  GoldenRun g;
  for (const netlist::Dff& dff : nl.dffs()) g.dff_q.push_back(dff.q);
  g.dff_words = (g.dff_q.size() + 63) / 64;
  g.dffs.assign((cycles + 1) * g.dff_words, 0);
  g.head.assign(cycles + 1, 0);
  g.suffix.assign(cycles + 1, 0);
  g.power.assign(cycles + 1, 1);
  std::uint64_t step = 1;
  for (std::size_t i = 0; i < spec.grant.size(); ++i) step *= 31;
  for (std::size_t k = 1; k <= cycles; ++k) g.power[k] = g.power[k - 1] * step;

  netlist::Simulator sim(nl);
  auto record = [&](std::size_t c) {
    std::uint64_t* row = g.dffs.data() + c * g.dff_words;
    for (std::size_t i = 0; i < g.dff_q.size(); ++i)
      if (sim.get(g.dff_q[i])) row[i / 64] |= std::uint64_t{1} << (i % 64);
  };
  for (std::size_t c = 0; c < cycles; ++c) {
    record(c);
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input(spec.req[i], (spec.requests[c] >> i) & 1);
    sim.settle();
    std::uint64_t h = g.head[c];
    for (std::size_t i = 0; i < spec.grant.size(); ++i)
      h = h * 31 + (sim.get(spec.grant[i]) ? i + 1 : 0);
    g.head[c + 1] = h;
    sim.clock();
  }
  record(cycles);
  // head[C] = head[c] * 31^(G(C-c)) + suffix[c], all mod 2^64.
  for (std::size_t c = 0; c <= cycles; ++c)
    g.suffix[c] = g.head[cycles] - g.head[c] * g.power[cycles - c];
  return g;
}

/// One pass's instrumentation, summed by the reducer.
struct PassOut {
  std::uint64_t luts_evaluated = 0;
  std::uint64_t cycles = 0;  // e - s
  SimdTier kernel_tier = SimdTier::kScalar;
  double kernel_seconds = 0.0;
  double fold_seconds = 0.0;
};

/// Simulates one pass: `replicas` (ascending SEU cycle, lane l = the l-th)
/// from the golden state at the first one's SEU cycle s until the first
/// cycle e after the last SEU at which every lane's DFFs equal the golden
/// run's, or C.  Writes each lane's checksum
///   (head[s] * 31^(G(e-s)) + d) * 31^(G(C-e)) + suffix[e]
/// to checksums[replica], d being the lane's own fold of [s, e).
PassOut run_pass(const ReplicaBatchSpec& spec,
                 const ReplicaBatchOptions& options, const GoldenRun& golden,
                 const ChunkFold& fold,
                 std::span<const std::uint32_t> replicas,
                 std::uint64_t* checksums) {
  const std::size_t cycles = spec.requests.size();
  const std::size_t num_grants = spec.grant.size();
  const std::size_t chunk_cycles = fold.bits / num_grants;
  const std::size_t active = replicas.size();
  const std::size_t first = spec.seu[replicas.front()].cycle;
  const std::size_t last_seu = spec.seu[replicas.back()].cycle;
  const std::size_t num_dffs = golden.dff_q.size();

  WideLaneSimulator sim(*spec.netlist, options.lanes, options.tier);
  const std::size_t words = sim.words();
  // One chunk of grant rows, row (cycle - s) % chunk_cycles * grants + i: a
  // few KB at 512 lanes, so capture and fold stay in L1.
  std::vector<std::uint64_t> chunk(fold.bits * words);
  // Register rows handed to poke_registers: the golden snapshot, then each
  // cycle's flipped state rows.
  std::vector<std::uint64_t> rows(std::max(num_dffs, spec.state.size()) *
                                  words);
  std::vector<NetId> poked;
  std::vector<std::uint64_t> sums(active, golden.head[first]);
  PassOut out;
  auto timed_fold = [&](std::size_t chunk_rows) {
    const auto t = Clock::now();
    fold_chunk(fold, chunk_rows, golden.power[chunk_rows / num_grants],
               chunk.data(), words, active, sums.data());
    out.fold_seconds += seconds_since(t);
  };
  auto rejoined = [&](std::size_t c) {
    std::uint64_t* row = rows.data();
    for (std::size_t i = 0; i < num_dffs; ++i) {
      sim.get(golden.dff_q[i], row);
      const std::uint64_t want = golden.dff(c, i) ? ~std::uint64_t{0} : 0;
      for (std::size_t w = 0; w < words; ++w)
        if (row[w] != want) return false;
    }
    return true;
  };
  const std::uint64_t evals_before = sim.luts_evaluated();

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < num_dffs; ++i)
    std::fill_n(rows.data() + i * words, words,
                golden.dff(first, i) ? ~std::uint64_t{0} : 0);
  sim.poke_registers(golden.dff_q, rows.data());
  std::size_t next = 0;  // first lane whose SEU is still ahead
  std::size_t c = first;
  std::size_t slot = 0;
  for (;;) {
    const std::uint64_t req = spec.requests[c];
    for (std::size_t i = 0; i < spec.req.size(); ++i)
      sim.set_input_all(spec.req[i], (req >> i) & 1);
    sim.settle();
    for (std::size_t i = 0; i < num_grants; ++i)
      sim.get(spec.grant[i], chunk.data() + (slot * num_grants + i) * words);
    // This cycle's SEUs: one XOR mask per state net, one settle.
    poked.clear();
    for (; next < active && spec.seu[replicas[next]].cycle == c; ++next) {
      const NetId net = spec.state[spec.seu[replicas[next]].state_bit];
      const auto k = static_cast<std::size_t>(
          std::ranges::find(poked, net) - poked.begin());
      if (k == poked.size()) {
        poked.push_back(net);
        sim.get(net, rows.data() + k * words);
      }
      rows[k * words + next / 64] ^= std::uint64_t{1} << (next % 64);
    }
    if (!poked.empty()) sim.poke_registers(poked, rows.data());
    sim.clock();
    ++c;
    if (++slot == chunk_cycles) {
      timed_fold(fold.bits);
      slot = 0;
    }
    if (c == cycles || (c > last_seu && rejoined(c))) break;
  }
  if (slot != 0) timed_fold(slot * num_grants);
  out.kernel_seconds = seconds_since(t0) - out.fold_seconds;
  out.luts_evaluated = sim.luts_evaluated() - evals_before;
  out.cycles = c - first;
  out.kernel_tier = sim.kernel_tier();
  for (std::size_t l = 0; l < active; ++l)
    checksums[replicas[l]] =
        sums[l] * golden.power[cycles - c] + golden.suffix[c];
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
  RCARB_CHECK(spec.seu.size() <= UINT32_MAX,
              "replica batch indexes replicas with 32 bits");
  for (const ReplicaSeu& seu : spec.seu)
    RCARB_CHECK(seu.state_bit < spec.state.size(),
                "replica SEU targets a state bit outside the register");
  const std::size_t lanes = options.lanes;
  RCARB_CHECK(lanes >= 64 && lanes <= WideLaneSimulator::kMaxLanes &&
                  lanes % 64 == 0,
              "replica batch lanes must be a multiple of 64 in [64, 512]");

  const std::size_t replicas = spec.seu.size();
  const std::size_t cycles = spec.requests.size();
  const std::size_t num_grants = spec.grant.size();
  const ChunkFold fold =
      make_chunk_fold(64 / num_grants * num_grants, num_grants);

  ReplicaBatchResult result;
  result.lanes = lanes;
  const auto t_golden = Clock::now();
  const GoldenRun golden = run_golden(spec);
  result.golden_seconds = seconds_since(t_golden);

  // Stable counting sort of the replicas by SEU cycle; SEUs at or past the
  // end of the run share bucket C and sort last.
  std::vector<std::uint32_t> order(replicas);
  std::size_t in_run = 0;
  {
    std::vector<std::uint32_t> start(cycles + 2, 0);
    for (const ReplicaSeu& seu : spec.seu)
      ++start[std::min<std::size_t>(seu.cycle, cycles) + 1];
    for (std::size_t c = 0; c <= cycles; ++c) start[c + 1] += start[c];
    in_run = start[cycles];
    for (std::size_t r = 0; r < replicas; ++r)
      order[start[std::min<std::size_t>(spec.seu[r].cycle, cycles)]++] =
          static_cast<std::uint32_t>(r);
  }

  // Replicas whose SEU never lands keep the golden checksum; each pass
  // overwrites its own replicas' slots.
  result.checksums.assign(replicas, golden.head[cycles]);
  result.batches = (in_run + lanes - 1) / lanes;
  ordered_map_reduce<PassOut>(
      result.batches,
      [&](std::size_t b) {
        const std::size_t begin = b * lanes;
        const std::span<const std::uint32_t> slice(
            order.data() + begin, std::min(lanes, in_run - begin));
        return run_pass(spec, options, golden, fold, slice,
                        result.checksums.data());
      },
      [&](std::size_t, const PassOut& out) {
        result.luts_evaluated += out.luts_evaluated;
        result.simulated_lane_cycles += out.cycles * lanes;
        result.kernel_tier = out.kernel_tier;
        result.kernel_seconds += out.kernel_seconds;
        result.fold_seconds += out.fold_seconds;
      },
      options.jobs);
  for (const std::uint64_t checksum : result.checksums)
    result.folded = result.folded * kFnvPrime + checksum;
  return result;
}

}  // namespace rcarb::fault
