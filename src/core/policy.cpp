#include "core/policy.hpp"

#include <bit>

#include "support/check.hpp"

namespace rcarb::core {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kRoundRobin: return "round-robin";
    case Policy::kFifo: return "fifo";
    case Policy::kPriority: return "priority";
    case Policy::kRandom: return "random";
  }
  return "?";
}

namespace {

std::size_t word_count(int n) { return static_cast<std::size_t>(n + 63) / 64; }

void set_bit(std::vector<std::uint64_t>& words, std::size_t bit) {
  words[bit >> 6] |= 1ull << (bit & 63u);
}

}  // namespace

Arbiter::Arbiter(int n, int max_ports) : n_(n) {
  // N=1 is degenerate (the sole requester always wins) but well-defined;
  // the self-checking model checks cover it.
  RCARB_CHECK(n >= 1 && n <= max_ports,
              "arbiter size must be in [1, " + std::to_string(max_ports) +
                  "]");
  top_mask_ = n % 64 == 0 ? ~0ull : (1ull << (n % 64)) - 1;
  grant_.assign(word_count(n), 0);
}

void Arbiter::inject_state_bit(int) {
  RCARB_CHECK(false, describe() + " models no SEU-exposed state register");
}

// ---------------------------------------------------------------- RoundRobin

RoundRobinArbiter::RoundRobinArbiter(int n, RoundRobinOptions options)
    : Arbiter(n, kMaxWideInputs),
      options_(options),
      reg_(2 * word_count(n), 0),
      next_reg_(2 * word_count(n), 0) {
  RCARB_CHECK(options.max_hold_cycles >= 0, "negative max_hold_cycles");
  load_reset_state();
}

int RoundRobinArbiter::scan(std::span<const std::uint64_t> requests,
                            int from) const {
  const std::size_t last = words() - 1;
  const auto word = [&](std::size_t w) {
    return w == last ? requests[w] & top_mask_ : requests[w];
  };
  // Pass 1 covers [from, n), pass 2 wraps to [0, from).  Pass 2 may read
  // from's own word whole: pass 1 found no request at or past `from`.
  const std::size_t first = static_cast<std::size_t>(from) >> 6;
  std::uint64_t r = word(first) & (~0ull << (static_cast<unsigned>(from) & 63u));
  for (std::size_t w = first;;) {
    if (r != 0) return static_cast<int>(w * 64) + std::countr_zero(r);
    if (++w > last) break;
    r = word(w);
  }
  for (std::size_t w = 0; w <= first; ++w)
    if ((r = word(w)) != 0)
      return static_cast<int>(w * 64) + std::countr_zero(r);
  return -1;
}

int RoundRobinArbiter::transition(std::span<const std::uint64_t> requests) {
  if (hot_count_ != 1) {
    if (!options_.harden) {
      // Zero-hot: no state recognizer fires; the machine is dead.
      return hot_count_ == 0 ? -1 : step_multi_hot(requests);
    }
    // Hardened register bank: any non-one-hot code loads the reset state
    // F0 — the safe all-free state — and arbitration resumes in the same
    // step (recovery within one cycle, matching the hardened netlist).
    load_reset_state();
    held_cycles_ = 0;
    ++recoveries_;
  }

  const auto [index, in_c] = state_of(hot_bit_);

  // Future-work preemption: a saturated holder loses its turn when someone
  // else is waiting; the scan then starts past it (and reaches the holder
  // itself last, so finding it means nobody else waits).
  int granted = -1;
  if (in_c && options_.max_hold_cycles > 0 &&
      held_cycles_ >= options_.max_hold_cycles) {
    const int j = scan(requests, next_port(index));
    if (j != index) granted = j;
  }
  if (granted >= 0) {
    held_cycles_ = 1;
  } else {
    // Fig. 5: cyclic scan from the priority index (identical for Ci and
    // Fi).  No requests: Fi stays, Ci retires to F(i+1).
    granted = scan(requests, index);
    if (granted < 0) {
      held_cycles_ = 0;
      move_hot_bit(state_bit(in_c ? next_port(index) : index, false));
      return -1;
    }
    held_cycles_ = (in_c && granted == index) ? held_cycles_ + 1 : 1;
  }
  move_hot_bit(state_bit(granted, true));
  return granted;
}

void RoundRobinArbiter::move_hot_bit(std::size_t bit) {
  // One-hot: the hot bit's word holds nothing else.
  reg_[hot_bit_ >> 6] = 0;
  hot_bit_ = bit;
  set_bit(reg_, bit);
}

void RoundRobinArbiter::load_reset_state() {
  std::fill(reg_.begin(), reg_.end(), 0);
  reg_[0] = 1;  // F0
  hot_count_ = 1;
  hot_bit_ = 0;
}

void RoundRobinArbiter::recount() {
  hot_count_ = 0;
  for (std::size_t w = 0; w < reg_.size(); ++w) {
    if (reg_[w] == 0) continue;
    hot_count_ += std::popcount(reg_[w]);
    hot_bit_ = w * 64 + static_cast<std::size_t>(std::countr_zero(reg_[w]));
  }
}

int RoundRobinArbiter::step_multi_hot(
    std::span<const std::uint64_t> requests) {
  // Multi-hot: every hot state's single-literal recognizer fires, so the
  // register ORs all their successors and every scan winner is granted at
  // once — mutual exclusion is gone.  Faithful to the unhardened one-hot
  // netlist.
  std::fill(next_reg_.begin(), next_reg_.end(), 0);
  for (std::size_t w = 0; w < reg_.size(); ++w) {
    for (std::uint64_t bits = reg_[w]; bits != 0; bits &= bits - 1) {
      const auto [i, in_c] =
          state_of(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      const int j = scan(requests, i);
      if (j >= 0) {
        set_bit(next_reg_, state_bit(j, true));
        set_grant(j);
      } else {
        set_bit(next_reg_, state_bit(in_c ? next_port(i) : i, false));
      }
    }
  }
  reg_.swap(next_reg_);
  recount();
  held_cycles_ = 0;
  for (std::size_t w = 0; w < words(); ++w)
    if (last_grant_words()[w] != 0)
      return static_cast<int>(w * 64) +
             std::countr_zero(last_grant_words()[w]);
  return -1;
}

void RoundRobinArbiter::reset_state() {
  load_reset_state();
  held_cycles_ = 0;
}

std::string RoundRobinArbiter::describe() const {
  return "round-robin(" + std::to_string(n_) + ")";
}

std::string RoundRobinArbiter::state_name() const {
  std::string name;
  for (std::size_t w = 0; w < reg_.size(); ++w) {
    for (std::uint64_t bits = reg_[w]; bits != 0; bits &= bits - 1) {
      const auto [i, in_c] =
          state_of(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      if (!name.empty()) name += '+';
      name += (in_c ? "C" : "F") + std::to_string(i);
    }
  }
  return name.empty() ? "none" : name;
}

std::uint64_t RoundRobinArbiter::state_bits() const {
  RCARB_CHECK(n_ <= 32, "state_bits requires 2n <= 64");
  return reg_[0] | (reg_[1] << n_);
}

RoundRobinArbiter::StateWords RoundRobinArbiter::state_words() const {
  RCARB_CHECK(n_ <= 64, "state_words requires n <= 64");
  return {reg_[0], reg_[1]};
}

bool RoundRobinArbiter::state_legal() const { return hot_count_ == 1; }

bool RoundRobinArbiter::idle_fixed_point() const {
  return hot_count_ == 1 && !state_of(hot_bit_).in_c && held_cycles_ == 0;
}

void RoundRobinArbiter::inject_state_bit(int bit) {
  RCARB_CHECK(bit >= 0 && bit < 2 * n_, "state bit out of range");
  const std::size_t b = state_bit(bit < n_ ? bit : bit - n_, bit >= n_);
  reg_[b >> 6] ^= 1ull << (b & 63u);
  recount();
}

// ---------------------------------------------------------------------- FIFO

FifoArbiter::FifoArbiter(int n) : Arbiter(n, 64) {}

int FifoArbiter::transition(std::span<const std::uint64_t> words) {
  const std::uint64_t requests = word_requests(words);
  // Newly asserted requests join the queue in index order (simultaneous
  // arrivals tie-break by index, as a hardware FIFO arbiter would).
  for (int t = 0; t < n_; ++t) {
    const std::uint64_t bit = 1ull << t;
    if ((requests & bit) && !(enqueued_ & bit) && holder_ != t) {
      queue_.push_back(t);
      enqueued_ |= bit;
    }
  }

  // Holder keeps the grant while it requests.
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return holder_;
  holder_ = -1;

  // Otherwise serve the oldest still-live request.
  while (!queue_.empty()) {
    const int t = queue_.front();
    queue_.pop_front();
    enqueued_ &= ~(1ull << t);
    if ((requests >> t) & 1u) {
      holder_ = t;
      return t;
    }
  }
  return -1;
}

void FifoArbiter::reset_state() {
  queue_.clear();
  enqueued_ = 0;
  holder_ = -1;
}

std::string FifoArbiter::describe() const {
  return "fifo(" + std::to_string(n_) + ")";
}

// ------------------------------------------------------------------ Priority

PriorityArbiter::PriorityArbiter(int n) : Arbiter(n, 64) {}

int PriorityArbiter::transition(std::span<const std::uint64_t> words) {
  const std::uint64_t requests = word_requests(words);
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return holder_;
  holder_ = -1;
  if (requests == 0) return -1;
  holder_ = std::countr_zero(requests);  // lowest index = highest priority
  return holder_;
}

void PriorityArbiter::reset_state() { holder_ = -1; }

std::string PriorityArbiter::describe() const {
  return "priority(" + std::to_string(n_) + ")";
}

// -------------------------------------------------------------------- Random

RandomArbiter::RandomArbiter(int n, std::uint64_t seed)
    : Arbiter(n, 64), seed_(seed), rng_(seed) {}

int RandomArbiter::transition(std::span<const std::uint64_t> words) {
  const std::uint64_t requests = word_requests(words);
  if (holder_ >= 0 && ((requests >> holder_) & 1u)) return holder_;
  holder_ = -1;
  const int waiting = std::popcount(requests);
  if (waiting == 0) return -1;
  auto pick = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(waiting)));
  for (int t = 0; t < n_; ++t) {
    if (!((requests >> t) & 1u)) continue;
    if (pick-- == 0) {
      holder_ = t;
      return t;
    }
  }
  RCARB_ASSERT(false, "unreachable: requests were nonzero");
  return -1;
}

void RandomArbiter::reset_state() {
  rng_ = Rng(seed_);
  holder_ = -1;
}

std::string RandomArbiter::describe() const {
  return "random(" + std::to_string(n_) + ")";
}

// ------------------------------------------------------------------- Factory

std::unique_ptr<Arbiter> make_arbiter(Policy policy, int n,
                                      std::uint64_t seed) {
  switch (policy) {
    case Policy::kRoundRobin:
      return std::make_unique<RoundRobinArbiter>(n);
    case Policy::kFifo:
      return std::make_unique<FifoArbiter>(n);
    case Policy::kPriority:
      return std::make_unique<PriorityArbiter>(n);
    case Policy::kRandom:
      return std::make_unique<RandomArbiter>(n, seed);
  }
  RCARB_CHECK(false, "unknown policy");
  return nullptr;
}

}  // namespace rcarb::core
