// Behavioral arbitration policies.
//
// The paper examines random, FIFO, round-robin and priority-based
// contention resolution (Sec. 4) and selects round-robin.  Every policy is
// available here as a cycle-level behavioral model with a common interface:
// present the request vector, receive at most one grant.  A grant persists
// while its task keeps requesting (the Fig. 8 protocol releases by
// deasserting Req); the policies differ in whom they pick next.
//
// The round-robin model implements Fig. 5 *exactly* (states Ci/Fi, cyclic
// scan from the priority index) at every width up to kMaxWideInputs, and
// is proven equivalent to the synthesized FSM netlist in the test suite.
// The paper's future-work preemption appears as
// RoundRobinOptions::max_hold_cycles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace rcarb::core {

/// Contention-resolution technique (paper Sec. 4).
enum class Policy : std::uint8_t {
  kRoundRobin,  // cyclic order (the paper's choice)
  kFifo,        // order of request arrival
  kPriority,    // statically-determined weighed order (index = priority)
  kRandom,      // uniformly random among requesters
};

[[nodiscard]] const char* to_string(Policy p);

/// Fixed protocol cost of one arbitered burst (Fig. 8: assert Req, ...,
/// deassert Req) when the grant is immediate.
inline constexpr int kProtocolOverheadCycles = 2;

/// Largest request-vector width of the wide (vector-request) arbiters:
/// RoundRobinArbiter and the scalable kinds in core/hier.hpp.  The other
/// policies stay capped at 64.
inline constexpr int kMaxWideInputs = 4096;

/// Observation hook over the request/grant wire traffic of one arbiter.
/// Implementations (src/obs) derive wait/hold/fairness metrics from the raw
/// stream without the arbiter knowing what is measured.
class ArbiterObserver {
 public:
  virtual ~ArbiterObserver() = default;
  /// Called once per step with the words-encoded request vector the
  /// arbiter sampled (bit i of word i/64 = port i; bits past the arbiter's
  /// width may carry garbage and must be ignored) and the resulting grant
  /// (-1 = none).  The span is valid only for the call.
  virtual void on_step(std::span<const std::uint64_t> requests,
                       int grant) = 0;
};

/// Cycle-level behavioral arbiter.  Every kind runs through one entry,
/// step_wide, which calls the kind's transition once, records the grant
/// words and notifies the observer once.
class Arbiter {
 public:
  virtual ~Arbiter() = default;

  /// One clock cycle over a words-encoded request vector (bit i of word
  /// i/64 = port i; at least ceil(n/64) words, bits past the width are
  /// ignored).  Returns the granted port, or -1 when no grant is issued.
  /// At most one port is ever granted in a legal state (mutual
  /// exclusion).  With no observer attached the hook costs one pointer
  /// test.
  int step_wide(std::span<const std::uint64_t> requests) {
    RCARB_CHECK(requests.size() >= grant_.size(),
                "request vector narrower than the arbiter");
    std::fill(grant_.begin(), grant_.end(), 0);
    const int granted = transition(requests);
    if (granted >= 0) set_grant(granted);
    if (observer_ != nullptr) observer_->on_step(requests, granted);
    return granted;
  }

  /// step_wide over one request word (bit i = task i); arbiters wider
  /// than 64 ports CHECK-fail.
  int step(std::uint64_t requests) { return step_wide({&requests, 1}); }

  /// Grants asserted by the last step, words-encoded.  Legal states assert
  /// at most one; an unhardened multi-hot round-robin register can assert
  /// several (the mutual-exclusion violation a fault campaign must
  /// surface), and a self-checking wrapper reports its gated or voted
  /// grants.
  [[nodiscard]] const std::vector<std::uint64_t>& last_grant_words() const {
    return grant_;
  }

  /// Attaches (or detaches, with nullptr) a borrowed observer.
  void set_observer(ArbiterObserver* observer) { observer_ = observer; }

  /// Returns to the reset state.
  void reset() {
    std::fill(grant_.begin(), grant_.end(), 0);
    reset_state();
  }

  /// True when a step on an all-zero request vector would grant nobody
  /// and leave every register as it is, so a host may account any number
  /// of idle cycles without stepping them.  The default is false: a kind
  /// that does not say so (the LFSR arbiter, whose register advances every
  /// step) is always stepped.
  [[nodiscard]] virtual bool idle_fixed_point() const { return false; }

  /// Bits of the SEU-exposed state register; 0 for kinds that model none.
  [[nodiscard]] virtual int num_state_bits() const { return 0; }
  /// SEU injection: XOR one bit of the state register
  /// (0 <= bit < num_state_bits()).
  virtual void inject_state_bit(int bit);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  /// 1 <= n <= max_ports: 64 for the word-width kinds, kMaxWideInputs for
  /// the vector-request ones.
  Arbiter(int n, int max_ports);
  /// The kind's transition over at least ceil(n/64) request words.  The
  /// grant words arrive cleared and the returned port is set afterwards;
  /// a transition only sets grants beyond it (multi-hot, voted).
  virtual int transition(std::span<const std::uint64_t> requests) = 0;
  virtual void reset_state() = 0;
  /// Request word 0 masked to the width: the whole request vector of a
  /// word-width (n <= 64) kind.
  [[nodiscard]] std::uint64_t word_requests(
      std::span<const std::uint64_t> requests) const {
    return requests[0] & top_mask_;
  }
  [[nodiscard]] std::size_t words() const { return grant_.size(); }
  void set_grant(int port) {
    grant_[static_cast<std::size_t>(port) >> 6] |=
        1ull << (static_cast<unsigned>(port) & 63u);
  }
  void or_grant_word(std::size_t w, std::uint64_t bits) { grant_[w] |= bits; }

  int n_;
  std::uint64_t top_mask_;  // the ports of the last request word

 private:
  std::vector<std::uint64_t> grant_;
  ArbiterObserver* observer_ = nullptr;
};

/// Options for the round-robin model.
struct RoundRobinOptions {
  /// 0 disables preemption (the paper's presented form).  Otherwise a
  /// holder that keeps its request beyond this many consecutive granted
  /// cycles is preempted while other requests are pending (the paper's
  /// future-work extension, ensuring no task "never relinquishes").
  int max_hold_cycles = 0;
  /// Illegal-state recovery.  The one-hot Fig. 5 register is SEU-exposed: a
  /// single flip leaves it zero-hot (dead — no grants ever again) or
  /// multi-hot (several states active at once — mutual exclusion breaks).
  /// Hardened, step() detects a non-one-hot register and recovers to the
  /// safe all-free reset state F0 within that same step.
  bool harden = false;
};

/// Fig. 5 round-robin arbiter for 1 <= n <= kMaxWideInputs.  The 2N states
/// Ci/Fi live in an explicit one-hot register (bit i = Fi, bit n+i = Ci),
/// held as ceil(n/64) F words and as many C words, so single-event upsets
/// can be injected and the hardened recovery modeled bit-exactly against
/// the synthesized netlist at any width.
class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(int n, RoundRobinOptions options = {});
  [[nodiscard]] std::string describe() const override;

  /// The register's hot states as "Fi"/"Ci" names in bit order, joined by
  /// '+': "C2" in a legal state, "F0+F4" multi-hot, "none" zero-hot.
  [[nodiscard]] std::string state_name() const;

  /// The one-hot state register: bit i = Fi, bit n+i = Ci.  Requires
  /// n <= 32 (2n bits must fit one word).
  [[nodiscard]] std::uint64_t state_bits() const;

  /// The state register as separate words (f = Fi one-hots, c = Ci
  /// one-hots) — the full-width form of state_bits(), valid for every
  /// n <= 64.  The self-checking wrapper compares/votes these so its
  /// replicas are not capped at 32 ports.
  struct StateWords {
    std::uint64_t f = 0;
    std::uint64_t c = 0;
    [[nodiscard]] bool operator==(const StateWords&) const = default;
  };
  [[nodiscard]] StateWords state_words() const;

  /// True when the register holds exactly one hot bit.
  [[nodiscard]] bool state_legal() const;

  /// A legal free state Fi: an idle step keeps it (Ci retires to F(i+1)
  /// on its first idle step and stays there).
  [[nodiscard]] bool idle_fixed_point() const override;

  /// The 2n bits of the one-hot register (bit i = Fi, bit n+i = Ci).
  [[nodiscard]] int num_state_bits() const override { return 2 * n_; }
  void inject_state_bit(int bit) override;

  /// Illegal-state recoveries performed so far (hardened mode only).
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

 protected:
  int transition(std::span<const std::uint64_t> requests) override;
  void reset_state() override;

 private:
  /// First requesting port cyclically at or after `from`, or -1.
  [[nodiscard]] int scan(std::span<const std::uint64_t> requests,
                         int from) const;
  int step_multi_hot(std::span<const std::uint64_t> requests);
  /// Legal register: moves the one hot bit to reg_ bit `bit`.
  void move_hot_bit(std::size_t bit);
  void load_reset_state();
  /// Re-derives hot_count_/hot_bit_ after an arbitrary register change.
  void recount();
  [[nodiscard]] int next_port(int i) const { return i + 1 == n_ ? 0 : i + 1; }
  /// Register bit of state Fi (in_c false) or Ci, as an index into reg_,
  /// and back.
  [[nodiscard]] std::size_t state_bit(int i, bool in_c) const {
    return (in_c ? words() * 64 : 0) + static_cast<std::size_t>(i);
  }
  struct State {
    int index;
    bool in_c;
  };
  [[nodiscard]] State state_of(std::size_t bit) const {
    const bool in_c = bit >= words() * 64;
    return {static_cast<int>(bit - (in_c ? words() * 64 : 0)), in_c};
  }

  RoundRobinOptions options_;
  // Words [0, W) hold the Fi one-hots, [W, 2W) the Ci one-hots
  // (W = ceil(n/64)); reset = F0.
  std::vector<std::uint64_t> reg_;
  std::vector<std::uint64_t> next_reg_;  // multi-hot successor scratch
  // Hot bits in reg_, kept exact by every register write, so a legal step
  // finds its state without reading the register; hot_bit_ is the reg_
  // bit index of the hot state while hot_count_ == 1.
  int hot_count_ = 1;
  std::size_t hot_bit_ = 0;
  std::uint64_t recoveries_ = 0;
  int held_cycles_ = 0;
};

/// FIFO arbiter: requests are served in arrival order.
class FifoArbiter final : public Arbiter {
 public:
  explicit FifoArbiter(int n);
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] bool idle_fixed_point() const override {
    return queue_.empty() && holder_ < 0;
  }

 protected:
  int transition(std::span<const std::uint64_t> requests) override;
  void reset_state() override;

 private:
  std::deque<int> queue_;
  std::uint64_t enqueued_ = 0;  // bitmask of tasks currently in the queue
  int holder_ = -1;
};

/// Static-priority arbiter: lowest index wins among waiters.
class PriorityArbiter final : public Arbiter {
 public:
  explicit PriorityArbiter(int n);
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] bool idle_fixed_point() const override {
    return holder_ < 0;
  }

 protected:
  int transition(std::span<const std::uint64_t> requests) override;
  void reset_state() override;

 private:
  int holder_ = -1;
};

/// Random arbiter: uniform among requesters (deterministic given the seed).
class RandomArbiter final : public Arbiter {
 public:
  RandomArbiter(int n, std::uint64_t seed);
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] bool idle_fixed_point() const override {
    return holder_ < 0;
  }

 protected:
  int transition(std::span<const std::uint64_t> requests) override;
  void reset_state() override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  int holder_ = -1;
};

/// Factory over the Policy enum.  `seed` is only used by kRandom.
[[nodiscard]] std::unique_ptr<Arbiter> make_arbiter(Policy policy, int n,
                                                    std::uint64_t seed = 1);

}  // namespace rcarb::core
