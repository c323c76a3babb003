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
#include <string>
#include <vector>

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
  /// Called once per step() with the sampled request vector (masked to the
  /// arbiter's width) and the resulting grant (-1 = none).
  virtual void on_step(std::uint64_t requests, int grant) = 0;
  /// Called once per step_wide() on a wide (vector-request) arbiter with
  /// the words-encoded request vector (bit i of word i/64 = port i; bits
  /// past the arbiter's width may carry garbage and must be ignored).  The
  /// default narrows to the first word, exact for widths <= 64.
  virtual void on_step_wide(const std::vector<std::uint64_t>& requests,
                            int grant) {
    on_step(requests.empty() ? 0 : requests[0], grant);
  }
};

/// Cycle-level behavioral arbiter.
class Arbiter {
 public:
  virtual ~Arbiter() = default;

  /// One clock cycle: presents the request vector (bit i = task i) and
  /// returns the granted task index, or -1 when no grant is issued.  At
  /// most one task is ever granted (mutual exclusion).  With no observer
  /// attached the hook costs one pointer test.
  int step(std::uint64_t requests) {
    // Wide arbiters (n > 64) accept every bit of the word; the rest are
    // masked to their width (the >= keeps the shift in range for both).
    requests &= (n_ >= 64) ? ~0ull : ((1ull << n_) - 1);
    const int granted = do_step(requests);
    if (observer_ != nullptr) observer_->on_step(requests, granted);
    return granted;
  }

  /// One clock cycle over a words-encoded request vector (bit i of word
  /// i/64 = port i).  The base implementation serves word-width arbiters
  /// by forwarding to step() (and CHECK-fails past 64 ports); WideArbiter
  /// overrides it, notifies observers through on_step_wide, and accepts up
  /// to kMaxWideInputs.
  virtual int step_wide(const std::vector<std::uint64_t>& requests);

  /// Attaches (or detaches, with nullptr) a borrowed observer.
  void set_observer(ArbiterObserver* observer) { observer_ = observer; }

  /// Returns to the reset state.
  virtual void reset() = 0;

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  explicit Arbiter(int n);
  /// Wide-arbiter constructor tag: lifts the 64-input cap to
  /// kMaxWideInputs.  Word-request step() only addresses the first 64
  /// ports of a wide arbiter; subclasses expose a vector-request entry.
  struct WideTag {};
  Arbiter(WideTag, int n);
  /// Policy-specific transition; `requests` is already width-masked.
  virtual int do_step(std::uint64_t requests) = 0;
  /// For step_wide overrides: fires the observer's wide hook.
  void notify_wide(const std::vector<std::uint64_t>& requests, int granted) {
    if (observer_ != nullptr) observer_->on_step_wide(requests, granted);
  }
  int n_;

 private:
  ArbiterObserver* observer_ = nullptr;
};

/// Shared plumbing of the vector-request arbiters (RoundRobinArbiter and
/// the scalable kinds in core/hier.hpp): up to kMaxWideInputs ports, a
/// words-encoded grant vector, and both entry points routed into one
/// transition, step_wide_impl.  The word step() addresses ports 0..63.
class WideArbiter : public Arbiter {
 public:
  /// One cycle over a words-encoded request vector (bit i of word i/64 =
  /// port i; bits past the width are ignored).  Returns the granted port
  /// or -1.
  int step_wide(const std::vector<std::uint64_t>& requests) final;

  /// Grants asserted by the last step, words-encoded.
  [[nodiscard]] const std::vector<std::uint64_t>& last_grant_words() const {
    return grant_;
  }

 protected:
  explicit WideArbiter(int n);
  int do_step(std::uint64_t requests) final;
  /// The kind's transition over at least words() request words.  grant_
  /// arrives cleared; the transition sets the bits it asserts.
  virtual int step_wide_impl(const std::vector<std::uint64_t>& requests) = 0;
  [[nodiscard]] std::size_t words() const { return grant_.size(); }
  void clear_grant() { std::fill(grant_.begin(), grant_.end(), 0); }
  void set_grant(int port) {
    grant_[static_cast<std::size_t>(port) >> 6] |=
        1ull << (static_cast<unsigned>(port) & 63u);
  }

 private:
  int advance(const std::vector<std::uint64_t>& requests) {
    clear_grant();
    return step_wide_impl(requests);
  }
  std::vector<std::uint64_t> grant_;
  // The word entry's request vector: do_step writes word 0 only, so the
  // words past it stay zero from construction on.
  std::vector<std::uint64_t> req_scratch_;
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
class RoundRobinArbiter final : public WideArbiter {
 public:
  explicit RoundRobinArbiter(int n, RoundRobinOptions options = {});
  void reset() override;
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

  /// SEU injection: XOR one bit of the state register (0 <= bit < 2n).
  void inject_bit_flip(int bit);

  /// Word 0 of last_grant_words(): the grants among ports 0..63 asserted
  /// by the last step.  Legal states assert at most one; an unhardened
  /// multi-hot register can assert several (the mutual-exclusion violation
  /// a fault campaign must surface).
  [[nodiscard]] std::uint64_t last_grant_mask() const {
    return last_grant_words()[0];
  }

  /// Illegal-state recoveries performed so far (hardened mode only).
  [[nodiscard]] std::uint64_t recoveries() const { return recoveries_; }

 protected:
  int step_wide_impl(const std::vector<std::uint64_t>& requests) override;

 private:
  /// First requesting port cyclically at or after `from`, or -1.
  [[nodiscard]] int scan(const std::vector<std::uint64_t>& requests,
                         int from) const;
  int step_multi_hot(const std::vector<std::uint64_t>& requests);
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
  std::uint64_t top_mask_;  // the ports of the last request word
  std::uint64_t recoveries_ = 0;
  int held_cycles_ = 0;
};

/// FIFO arbiter: requests are served in arrival order.
class FifoArbiter final : public Arbiter {
 public:
  explicit FifoArbiter(int n);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

 protected:
  int do_step(std::uint64_t requests) override;

 private:
  std::deque<int> queue_;
  std::uint64_t enqueued_ = 0;  // bitmask of tasks currently in the queue
  int holder_ = -1;
};

/// Static-priority arbiter: lowest index wins among waiters.
class PriorityArbiter final : public Arbiter {
 public:
  explicit PriorityArbiter(int n);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

 protected:
  int do_step(std::uint64_t requests) override;

 private:
  int holder_ = -1;
};

/// Random arbiter: uniform among requesters (deterministic given the seed).
class RandomArbiter final : public Arbiter {
 public:
  RandomArbiter(int n, std::uint64_t seed);
  void reset() override;
  [[nodiscard]] std::string describe() const override;

 protected:
  int do_step(std::uint64_t requests) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  int holder_ = -1;
};

/// Factory over the Policy enum.  `seed` is only used by kRandom.
[[nodiscard]] std::unique_ptr<Arbiter> make_arbiter(Policy policy, int n,
                                                    std::uint64_t seed = 1);

}  // namespace rcarb::core
