#include "rcsim/system_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>

#include "support/backoff.hpp"
#include "support/check.hpp"

namespace rcarb::rcsim {

namespace {

using tg::Op;
using tg::OpCode;
using tg::TaskId;

/// Per-logical-channel receiver register (Fig. 3: a register per receiving
/// end whose enable comes from the source keeps earlier transfers alive).
struct ChannelReg {
  bool valid = false;
  std::int64_t value = 0;
};

/// Naive alternative: one register per physical channel; `writer` records
/// which logical channel wrote last so corrupted reads can be counted.
struct NaiveReg {
  bool valid = false;
  std::int64_t value = 0;
  int writer = -1;
};

struct LoopFrame {
  std::size_t begin_pc = 0;  // index of the kLoopBegin op
  std::int64_t remaining = 0;
};

/// A stuck-at fault window over one arbiter line.
struct StuckWindow {
  fault::FaultKind kind = fault::FaultKind::kReqStuck0;
  std::size_t arbiter = 0;
  int port = 0;
  std::uint64_t from = 0;
  std::uint64_t until = 0;  // exclusive

  [[nodiscard]] bool active(std::uint64_t cycle) const {
    return cycle >= from && cycle < until;
  }
};

enum class Repair : std::uint8_t { kNone, kBank, kChannel, kInPlace };

/// One resource's quarantine lifecycle (Fig. 8's batch boundary bounds the
/// drain; the remap plan is frozen at drain completion and applied when the
/// priced reconfiguration stall elapses).
struct QuarCtx {
  degrade::QuarantineState state = degrade::QuarantineState::kHealthy;
  std::uint64_t deadline = 0;  // drain timeout, then reconfig end
  bool drain_aborted = false;
  std::size_t record = 0;  // index into SimResult::quarantine_events
  Repair repair = Repair::kNone;
  int target = -1;         // live bank / phys channel after remap
  std::vector<int> moved;  // segments (kBank) or channels (kChannel)
};

/// One arbiter of a run: the behavioral model behind its typed views, its
/// metric probe, and the cycle state the phases keep for it.  Indexed like
/// ArbitrationPlan::arbiters (regenerated arbiters append to both).
struct ArbiterRecord {
  core::SystemArbiter hw;
  std::unique_ptr<obs::ArbiterProbe> probe;  // null unless arbiter_metrics
  int holder = -1;                  // port holding the grant, -1 none
  std::uint64_t requests = 0;       // Req wire, rebuilt every cycle
  std::uint64_t pending = 0;        // requests + backoff waiters
  std::uint64_t grant_mask = 0;     // grants as the tasks see them
  std::uint64_t force_release = 0;  // requests masked for one sample
  std::uint64_t prev_recoveries = 0;
  std::uint64_t hold_since = 0;
  int hold_streak = 0;
  bool hung_reported = false;
  void reset_hold() {
    hold_streak = 0;
    hung_reported = false;
  }
  bool was_illegal = false;
  bool holder_accessed = false;
  // The last sample stepped on a zero request word and asserted no grant,
  // so the probe's next idle step is a no-op.
  bool sampled_idle = false;
  // A plain arbiter wedged by a latch-up: its register is re-frozen to the
  // (illegal) all-zero code before every sample — reset and hardening
  // cannot clear a latch-up, only reconfiguration can.
  bool latched_plain = false;
  bool retired = false;  // replaced after a quarantine; no longer clocked
};

}  // namespace

const char* to_string(DiagKind k) {
  switch (k) {
    case DiagKind::kBankConflict: return "bank-conflict";
    case DiagKind::kChannelConflict: return "channel-conflict";
    case DiagKind::kProtocolViolation: return "protocol-violation";
    case DiagKind::kOutOfBounds: return "out-of-bounds";
    case DiagKind::kIllegalFsmState: return "illegal-fsm-state";
    case DiagKind::kMultipleGrants: return "multiple-grants";
    case DiagKind::kFsmRecovery: return "fsm-recovery";
    case DiagKind::kHungGrant: return "hung-grant";
    case DiagKind::kWatchdogRecovery: return "watchdog-recovery";
    case DiagKind::kDataCorruption: return "data-corruption";
    case DiagKind::kDeadlock: return "deadlock";
    case DiagKind::kNoProgress: return "no-progress";
    case DiagKind::kMaxCycles: return "max-cycles";
    case DiagKind::kQuarantine: return "quarantine";
    case DiagKind::kRemap: return "remap";
    case DiagKind::kCapacityExhausted: return "capacity-exhausted";
    case DiagKind::kRejected: return "rejected";
    case DiagKind::kTimedOut: return "timed-out";
    case DiagKind::kShed: return "shed";
  }
  return "?";
}

std::string SimDiagnostic::format() const {
  std::string s = std::string(to_string(kind)) + "@" + std::to_string(cycle);
  if (task >= 0) s += " task=" + std::to_string(task);
  if (resource >= 0) s += " resource=" + std::to_string(resource);
  if (!detail.empty()) s += ": " + detail;
  return s;
}

std::size_t SimResult::count(DiagKind k) const {
  return static_cast<std::size_t>(std::count_if(
      diagnostics.begin(), diagnostics.end(),
      [k](const SimDiagnostic& d) { return d.kind == k; }));
}

struct SystemSimulator::TaskCtx {
  TaskId id = 0;
  bool in_run = false;
  bool started = false;
  bool finished = false;
  std::size_t pc = 0;
  std::int64_t regs[tg::kNumRegs] = {};
  std::vector<LoopFrame> loops;
  std::int64_t compute_left = 0;  // remaining busy cycles of a kCompute
  int waiting_on = 0;  // unfinished in-run control predecessors
  // Arbitration protocol state.
  int requesting = -1;  // resource whose Req line this task asserts (-1 none)
  // Resource whose request was auto-deasserted during send backpressure
  // (the sender re-arbitrates once the receiver register frees up).
  int dropped_request = -1;
  std::uint64_t request_since = 0;
  // Protocol-level retry: after retry_timeout granless cycles the task
  // deasserts Req and re-asserts once the bounded backoff expires.
  int retry_resource = -1;
  std::uint64_t retry_until = 0;
  // Overload control (SimOptions::admission_limit / retry_budget).
  int retry_rounds = 0;          // backoff rounds this burst
  // Delay of the next backoff round: 1 cycle, doubling per round.
  [[nodiscard]] std::uint64_t backoff(int limit) const {
    return exp_backoff(1, static_cast<std::uint64_t>(limit), retry_rounds);
  }
  bool budget_spent = false;     // kTimedOut fired; now waiting patiently
  bool reject_reported = false;  // one kRejected diagnostic per burst
  // Resources this task drives without inserted Req/Rel ops (it was the
  // sole client pre-remap, so the insertion pass elided its protocol);
  // the simulator retrofits a per-access Req / release instead.
  std::vector<int> implicit_protocol;
  [[nodiscard]] bool implicit_for(int resource) const {
    return std::find(implicit_protocol.begin(), implicit_protocol.end(),
                     resource) != implicit_protocol.end();
  }
  TaskStats stats;
};

SystemSimulator::SystemSimulator(tg::TaskGraph graph, core::Binding binding,
                                 core::ArbitrationPlan plan,
                                 SimOptions options)
    : graph_(std::move(graph)),
      binding_(std::move(binding)),
      plan_(std::move(plan)),
      options_(options) {
  graph_.validate();
  memory_.resize(graph_.num_segments());
  for (tg::SegmentId s = 0; s < graph_.num_segments(); ++s)
    memory_[s].assign(graph_.segment(s).words, 0);
}

void SystemSimulator::write_segment(tg::SegmentId s,
                                    const std::vector<std::int64_t>& words) {
  RCARB_CHECK(s < memory_.size(), "segment out of range");
  RCARB_CHECK(words.size() <= graph_.segment(s).words,
              "segment preload larger than the segment");
  memory_[s].assign(graph_.segment(s).words, 0);
  std::copy(words.begin(), words.end(), memory_[s].begin());
}

const std::vector<std::int64_t>& SystemSimulator::segment_data(
    tg::SegmentId s) const {
  RCARB_CHECK(s < memory_.size(), "segment out of range");
  return memory_[s];
}

obs::TraceMeta SystemSimulator::trace_meta() const {
  obs::TraceMeta m;
  m.task_names.reserve(graph_.num_tasks());
  for (TaskId t = 0; t < graph_.num_tasks(); ++t)
    m.task_names.push_back(graph_.task(t).name);
  m.arbiter_names.reserve(plan_.arbiters.size());
  for (const core::ArbiterInstance& a : plan_.arbiters)
    m.arbiter_names.push_back(a.resource_name);
  const int n_res = static_cast<int>(binding_.num_resources());
  m.resource_names.reserve(static_cast<std::size_t>(n_res));
  for (int r = 0; r < n_res; ++r)
    m.resource_names.push_back(binding_.resource_name(r));
  return m;
}

/// One call of run(): the state the cycle loop carries, built once by the
/// constructor, and the named phases one step() advances in order.
class SystemSimulator::Engine {
 public:
  Engine(SystemSimulator& sim, const std::vector<TaskId>& tasks)
      : sim_(sim), tasks_(tasks) {
    result_.tasks.resize(graph_.num_tasks());
    // Metric probes borrow arbiter_obs elements, so it is reserved once, up
    // front, with room for the arbiters the degradation supervisor may
    // regenerate (at most one per quarantined resource): mid-run appends
    // never reallocate under the existing probes' pointers.
    if (opt_.arbiter_metrics)
      result_.arbiter_obs.reserve(plan_.arbiters.size() +
                                  binding_.num_resources());
    for (const core::ArbiterInstance& inst : plan_.arbiters)
      install_arbiter(inst);
    split_faults();

    ctx_.resize(graph_.num_tasks());
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) ctx_[t].id = t;
    for (TaskId t : tasks_) {
      RCARB_CHECK(t < graph_.num_tasks(), "task out of range");
      ctx_[t].in_run = true;
    }
    // Tasks outside the run count as finished predecessors.
    for (const auto& [pred, succ] : graph_.control_deps())
      if (ctx_[pred].in_run && ctx_[succ].in_run) ++ctx_[succ].waiting_on;
    for (const TaskCtx& c : ctx_)
      if (c.in_run && c.waiting_on == 0) ++ready_;
    chan_reg_.resize(graph_.num_channels());
    naive_reg_.resize(binding_.num_phys_channels);
    bank_user_.resize(binding_.num_banks);
    chan_user_.resize(binding_.num_phys_channels);

    const auto nr = static_cast<std::size_t>(num_res_);
    quar_.resize(nr);
    res_failed_.assign(nr, 0);
    resource_fwd_.resize(nr);
    std::iota(resource_fwd_.begin(), resource_fwd_.end(), 0);
    if (degrade_on_)
      strike_tracker_ = degrade::StrikeTracker(nr, opt_.degrade.strikes,
                                               opt_.degrade.strike_window);
  }

  /// Simulates one cycle.  False once the run is over: every task has
  /// finished, or max_cycles / the no-progress window stopped it.
  bool step() {
    if (finished_count_ >= tasks_.size() || !within_limits()) return false;
    if (const std::uint64_t h = quiet_cycles(); h > 0) {
      skip(h);
      return true;
    }
    inject_faults();
    if (degrade_on_) supervise();
    sample_arbiters();
    start_tasks();
    execute_tasks();
    rebuild_requests();
    if (opt_.watchdog_timeout > 0) watchdog();
    account_serving();
    ++cycle_;
    return true;
  }

  /// The run's statistics (call once, after the last step()).
  SimResult finish() {
    result_.cycles = cycle_;
    for (TaskId t = 0; t < graph_.num_tasks(); ++t)
      result_.tasks[t] = ctx_[t].stats;
    for (ArbiterRecord& rec : arbs_) {
      if (rec.probe == nullptr) continue;
      rec.probe->finish();
      rec.hw.arbiter->set_observer(nullptr);
    }
    return std::move(result_);
  }

 private:
  // ---------------------------------------------------------------- set-up

  // The one construction site of a run's arbiters: the initial plan walk and
  // the post-quarantine regeneration both come through here, so the option
  // set (hardening, preemption, self-check, seed, kind) and the stats/probe
  // wiring can never drift between first build and reconfiguration.
  void install_arbiter(const core::ArbiterInstance& inst) {
    const int n = static_cast<int>(inst.ports.size());
    // Request, grant and force-release lines are one uint64_t word per
    // arbiter (bit = port), so wider arbiters cannot be represented.
    RCARB_CHECK(n <= 64, "rcsim arbiters top out at 64 ports (one request "
                         "word per arbiter); arbiter for " +
                             inst.resource_name + " has " +
                             std::to_string(n));
    core::SystemArbiterSpec spec;
    spec.policy = inst.policy;
    // kAuto follows the plan's per-instance resolved kind; an explicit
    // SimOptions choice overrides it for every instance.
    spec.kind = opt_.arbiter_kind == core::ArbiterChoice::kAuto
                    ? inst.kind
                    : core::resolve_arbiter_choice(opt_.arbiter_kind, n,
                                                   /*timing_budget_mhz=*/0.0,
                                                   opt_.arbiter_arity);
    spec.arity = opt_.arbiter_arity;
    spec.rr = core::RoundRobinOptions{opt_.rr_max_hold, opt_.harden};
    spec.self_check = opt_.self_check;
    spec.seed = opt_.seed;
    ArbiterRecord& rec = arbs_.emplace_back();
    rec.hw = core::make_system_arbiter(n, spec);

    ArbiterStats st;
    st.resource_name = inst.resource_name;
    st.ports = n;
    st.kind = rec.hw.kind;
    result_.arbiters.push_back(st);
    if (opt_.arbiter_metrics) {
      obs::ArbiterMetrics& m = result_.arbiter_obs.emplace_back();
      m.name = inst.resource_name;
      m.kind = core::to_string(st.kind);
      m.ports = n;
      rec.probe = std::make_unique<obs::ArbiterProbe>(&m);
      rec.hw.arbiter->set_observer(rec.probe.get());
    }
    if (opt_.record_request_trace) result_.request_trace.emplace_back();
  }

  void split_faults() {
    chan_corrupt_.resize(binding_.num_phys_channels);
    chan_corrupt_next_.assign(binding_.num_phys_channels, 0);
    const auto valid_arbiter = [&](int a) {
      return a >= 0 && static_cast<std::size_t>(a) < arbs_.size();
    };
    for (const fault::FaultEvent& e : opt_.faults) {
      switch (e.kind) {
        case fault::FaultKind::kFsmBitFlip:
          if (valid_arbiter(e.arbiter)) flips_.push_back(e);
          break;
        case fault::FaultKind::kReqStuck0:
        case fault::FaultKind::kReqStuck1:
        case fault::FaultKind::kGrantStuck0:
        case fault::FaultKind::kGrantDrop:
          if (valid_arbiter(e.arbiter) && e.port >= 0 &&
              e.port <
                  result_.arbiters[static_cast<std::size_t>(e.arbiter)].ports)
            stucks_.push_back({e.kind, static_cast<std::size_t>(e.arbiter),
                               e.port, e.cycle, e.cycle + e.duration});
          break;
        case fault::FaultKind::kChannelCorrupt:
          if (e.channel >= 0 &&
              static_cast<std::size_t>(e.channel) < chan_corrupt_.size())
            chan_corrupt_[static_cast<std::size_t>(e.channel)].push_back(
                {e.cycle, e.xor_mask});
          break;
        case fault::FaultKind::kPermanentStuckChannel:
          if (e.channel >= 0 &&
              static_cast<std::size_t>(e.channel) < binding_.num_phys_channels)
            perm_res_.push_back(
                {e.cycle, binding_.channel_resource(e.channel)});
          break;
        case fault::FaultKind::kBankFailure:
          if (e.bank >= 0 &&
              static_cast<std::size_t>(e.bank) < binding_.num_banks)
            perm_res_.push_back({e.cycle, binding_.bank_resource(e.bank)});
          break;
        case fault::FaultKind::kArbiterLatchup:
          if (valid_arbiter(e.arbiter))
            latchups_.push_back({e.cycle, static_cast<std::size_t>(e.arbiter)});
          break;
      }
    }
    std::stable_sort(
        flips_.begin(), flips_.end(),
        [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
          return a.cycle < b.cycle;
        });
    for (auto& q : chan_corrupt_) std::stable_sort(q.begin(), q.end());
    std::stable_sort(perm_res_.begin(), perm_res_.end());
    std::stable_sort(latchups_.begin(), latchups_.end());
  }

  int driven_resource(const tg::Op& op) const {
    switch (op.code) {
      case OpCode::kLoad:
      case OpCode::kStore: {
        const int bank =
            binding_.segment_to_bank[static_cast<std::size_t>(op.b)];
        return bank < 0 ? -1 : binding_.bank_resource(bank);
      }
      case OpCode::kSend: {
        const int phys =
            binding_.channel_to_phys[static_cast<std::size_t>(op.b)];
        return phys < 0 ? -1 : binding_.channel_resource(phys);
      }
      default:
        return -1;
    }
  }

  // ------------------------------------------------------ quiet stretches

  // How many cycles from cycle_ on are quiet (DESIGN.md §17): every running
  // task is inside a compute with two or more cycles left and holds no Req,
  // retry or backoff state; no task is ready to start; no quarantine is
  // open; and every live arbiter last stepped idle into the fixed point of
  // its idle step.  Stepping a quiet cycle only counts the computes down,
  // so the stretch runs until the first compute is one cycle from retiring,
  // the next scheduled fault or stuck-window edge, or max_cycles.  0 when
  // cycle_ is not quiet.
  std::uint64_t quiet_cycles() const {
    if (ready_ > 0) return 0;
    std::uint64_t h = opt_.max_cycles - cycle_;
    bool running = false;
    for (TaskId t : tasks_) {
      const TaskCtx& c = ctx_[t];
      if (!c.started || c.finished) continue;
      if (c.compute_left < 2 || c.requesting >= 0 || c.retry_resource >= 0)
        return 0;
      h = std::min(h, static_cast<std::uint64_t>(c.compute_left - 1));
      running = true;
    }
    // Without a running compute nothing marks progress, and the
    // no-progress window must see every cycle.
    if (!running) return 0;
    for (const ArbiterRecord& rec : arbs_)
      if (!rec.retired && (!rec.sampled_idle || rec.was_illegal ||
                           !rec.hw.arbiter->idle_fixed_point()))
        return 0;
    if (degrade_on_)
      for (const QuarCtx& q : quar_)
        if (q.state == degrade::QuarantineState::kDraining ||
            q.state == degrade::QuarantineState::kReconfiguring)
          return 0;
    const auto until = [&](std::uint64_t at) {
      h = std::min(h, at > cycle_ ? at - cycle_ : 0);
    };
    if (flip_next_ < flips_.size()) until(flips_[flip_next_].cycle);
    if (perm_next_ < perm_res_.size()) until(perm_res_[perm_next_].first);
    if (latch_next_ < latchups_.size()) until(latchups_[latch_next_].first);
    // A window's opening cycle emits its fault event, so it is stepped; an
    // open stuck-1 window is a request.  Closing edges need no bound: only
    // a stuck-1 line changes what an idle arbiter samples.
    for (const StuckWindow& w : stucks_) {
      if (w.from >= cycle_)
        until(w.from);
      else if (w.kind == fault::FaultKind::kReqStuck1 && w.active(cycle_))
        return 0;
    }
    return h;
  }

  // Accounts h quiet cycles as h steps would: the computes count down,
  // every live arbiter samples h zero words, and each cycle serves unless
  // the stretch's (constant) degraded predicate holds.
  void skip(std::uint64_t h) {
    for (TaskId t : tasks_) {
      TaskCtx& c = ctx_[t];
      if (c.started && !c.finished)
        c.compute_left -= static_cast<std::int64_t>(h);
    }
    if (opt_.record_request_trace)
      for (std::size_t a = 0; a < arbs_.size(); ++a)
        if (!arbs_[a].retired)
          result_.request_trace[a].insert(result_.request_trace[a].end(), h,
                                          0);
    account_serving(h);
    cycle_ += h;
    last_progress_cycle_ = cycle_ - 1;
    result_.skipped_cycles += h;
  }

  // ---------------------------------------------------------- cycle phases

  bool within_limits() {
    if (cycle_ >= opt_.max_cycles) {
      result_.deadlocked = true;
      fail(DiagKind::kMaxCycles, -1, -1,
           [] { return std::string("simulation exceeded max_cycles"); });
      return false;
    }
    if (cycle_ - last_progress_cycle_ >= opt_.no_progress_window) {
      result_.deadlocked = true;
      attribute_stall();
      if (opt_.strict) RCARB_CHECK(false, result_.diagnostics.back().format());
      return false;
    }
    return true;
  }

  // Applies the faults scheduled for this cycle: state-register upsets,
  // permanent resource failures and arbiter latch-ups.
  void inject_faults() {
    while (flip_next_ < flips_.size() && flips_[flip_next_].cycle <= cycle_) {
      const fault::FaultEvent& e = flips_[flip_next_++];
      const auto a = static_cast<std::size_t>(e.arbiter);
      // Upsets land in the kind's register layout: the one-hot F/C pair of
      // the flat kinds (copy 0 of a self-checking one), the packed
      // pointer/held registers of the scalable kinds; the other policies
      // model no register.
      core::Arbiter& arb = *arbs_[a].hw.arbiter;
      const int bits = arb.num_state_bits();
      if (bits == 0) continue;
      arb.inject_state_bit(e.bit >= 0 ? e.bit % bits : 0);
      trace(obs::TraceKind::kFault, -1, static_cast<int>(a),
            plan_.arbiters[a].resource, static_cast<std::int64_t>(e.kind));
    }
    while (perm_next_ < perm_res_.size() &&
           perm_res_[perm_next_].first <= cycle_) {
      const int r = perm_res_[perm_next_++].second;
      if (failed(r)) continue;
      res_failed_[static_cast<std::size_t>(r)] = 1;
      const fault::FaultKind kind =
          binding_.resource_is_bank(r)
              ? fault::FaultKind::kBankFailure
              : fault::FaultKind::kPermanentStuckChannel;
      trace(obs::TraceKind::kFault, -1, -1, r,
            static_cast<std::int64_t>(kind));
    }
    while (latch_next_ < latchups_.size() &&
           latchups_[latch_next_].first <= cycle_) {
      const std::size_t a = latchups_[latch_next_++].second;
      const core::SystemArbiter& hw = arbs_[a].hw;
      if (hw.sc != nullptr) {
        hw.sc->latch_up(0);  // freeze copy 0's register at its current state
      } else if (hw.rr != nullptr && result_.arbiters[a].ports <= 32) {
        // A latched plain register is modeled as frozen at the illegal
        // all-zero code: the FSM grants nobody, and neither reset nor
        // hardening clears a latch-up (it is re-frozen before every
        // sample) — only reconfiguration can.
        arbs_[a].latched_plain = true;
      }
      trace(obs::TraceKind::kFault, -1, static_cast<int>(a),
            plan_.arbiters[a].resource,
            static_cast<std::int64_t>(fault::FaultKind::kArbiterLatchup));
    }
  }

  // Arbiters sample the request lines asserted in prior cycles, as seen
  // through any active stuck-at faults.
  void sample_arbiters() {
    for (std::size_t a = 0; a < arbs_.size(); ++a) {
      ArbiterRecord& rec = arbs_[a];
      if (rec.retired) continue;
      std::uint64_t grant_suppress = 0;
      const std::uint64_t eff = effective_requests(a, grant_suppress);
      if (opt_.record_request_trace) result_.request_trace[a].push_back(eff);
      if (rec.hw.rr != nullptr) check_register(a);

      const int g = rec.hw.arbiter->step(eff);
      const std::uint64_t mask = rec.hw.arbiter->last_grant_words()[0];
      collect_evidence(a, mask);
      rec.grant_mask = mask & ~grant_suppress;
      rec.sampled_idle = eff == 0 && mask == 0;
      account_grant(a, g);
    }
  }

  // The request word arbiter `a` steps on this cycle: the Req wire through
  // stuck-at faults, quarantine gating and the watchdog's force-release.
  // Stuck grant lines are returned in `grant_suppress`.
  std::uint64_t effective_requests(std::size_t a,
                                   std::uint64_t& grant_suppress) {
    ArbiterRecord& rec = arbs_[a];
    std::uint64_t eff = rec.requests;
    for (const StuckWindow& w : stucks_) {
      if (w.arbiter != a || !w.active(cycle_)) continue;
      if (sink_ != nullptr && cycle_ == w.from)
        trace(obs::TraceKind::kFault,
              static_cast<int>(
                  plan_.arbiters[a].ports[static_cast<std::size_t>(w.port)]),
              static_cast<int>(a), plan_.arbiters[a].resource,
              static_cast<std::int64_t>(w.kind));
      const std::uint64_t bit = 1ull << w.port;
      switch (w.kind) {
        case fault::FaultKind::kReqStuck0: eff &= ~bit; break;
        case fault::FaultKind::kReqStuck1: eff |= bit; break;
        case fault::FaultKind::kGrantStuck0:
        case fault::FaultKind::kGrantDrop: grant_suppress |= bit; break;
        default: break;
      }
    }
    // Latch-up freeze: re-assert the frozen all-zero state before the
    // register samples, so reset/hardening cannot clear it.
    if (rec.latched_plain && rec.hw.rr != nullptr) {
      std::uint64_t bits = rec.hw.rr->state_bits();
      while (bits != 0) {
        rec.hw.rr->inject_state_bit(std::countr_zero(bits));
        bits &= bits - 1;
      }
    }
    // Quarantine gating: a draining resource only lets its current holder's
    // request through (so the in-flight burst can reach its <=M batch
    // boundary); a reconfiguring or capacity-exhausted resource is offline
    // entirely.
    if (degrade_on_) {
      const auto st =
          quar_[static_cast<std::size_t>(plan_.arbiters[a].resource)].state;
      if (st == degrade::QuarantineState::kDraining) {
        eff &= rec.holder >= 0 ? (1ull << rec.holder) : 0ull;
      } else if (st == degrade::QuarantineState::kReconfiguring ||
                 st == degrade::QuarantineState::kCapacityExhausted) {
        eff = 0;
      }
    }
    // The watchdog's force-release masks the request *inside* the arbiter,
    // downstream of any stuck-at fault on the physical Req line — applied
    // before the stuck-1 OR, a phantom stuck-1 holder could never be
    // evicted.
    eff &= ~rec.force_release;
    rec.force_release = 0;
    return eff;
  }

  // Unhardened illegal registers are reported when they appear.
  void check_register(std::size_t a) {
    ArbiterRecord& rec = arbs_[a];
    const bool illegal = !rec.hw.rr->state_legal();
    if (illegal && !rec.was_illegal) {
      ++result_.illegal_fsm_states;
      diagnose(DiagKind::kIllegalFsmState, -1, plan_.arbiters[a].resource, [&] {
        return "arbiter " + plan_.arbiters[a].resource_name +
               " state register left the one-hot set (state=" +
               rec.hw.rr->state_name() + ")";
      });
    }
    rec.was_illegal = illegal;
    // Without a checker the illegal register is invisible to the supervisor
    // (no error wire — the monitor here is simulator omniscience), but the
    // availability metric still records the outage.
    if (illegal) degraded_cycle_ = true;
  }

  // What the arbiter's own hardware reports after the step: the self-check
  // error wire, copy resyncs, hardened recoveries and multi-hot grants.
  void collect_evidence(std::size_t a, std::uint64_t mask) {
    ArbiterRecord& rec = arbs_[a];
    const int resource = plan_.arbiters[a].resource;
    // Self-checking arbiters expose a real error wire: every comparator-high
    // cycle is supervisor evidence (and a service gap under DMR, whose
    // grants are gated by ~error).
    if (core::SelfCheckingArbiter* sc = rec.hw.sc; sc != nullptr) {
      if (sc->error()) {
        ++result_.self_check_errors;
        degraded_cycle_ = true;
        if (!rec.was_illegal) {
          ++result_.illegal_fsm_states;
          diagnose(DiagKind::kIllegalFsmState, -1, resource, [&] {
            return "self-checking arbiter " + plan_.arbiters[a].resource_name +
                   " raised its error output (copy state mismatch)";
          });
        }
        rec.was_illegal = true;
        supervisor_strike(resource, degrade::StrikeSource::kSelfCheckError);
      } else {
        rec.was_illegal = false;
      }
      const std::uint64_t rs = sc->resyncs();
      if (rs != rec.prev_recoveries) {
        result_.self_check_resyncs += rs - rec.prev_recoveries;
        rec.prev_recoveries = rs;
      }
    }

    if (core::RoundRobinArbiter* rr = rec.hw.rr; rr != nullptr) {
      const std::uint64_t recoveries = rr->recoveries();
      if (recoveries != rec.prev_recoveries) {
        result_.fsm_recoveries += recoveries - rec.prev_recoveries;
        rec.prev_recoveries = recoveries;
        diagnose(DiagKind::kFsmRecovery, -1, resource, [&] {
          return "hardened arbiter " + plan_.arbiters[a].resource_name +
                 " recovered to the all-free reset state";
        });
      }
      if (std::popcount(mask) > 1) {
        ++result_.multi_grant_cycles;
        if (result_.multi_grant_cycles == 1 || result_.diagnostics.empty() ||
            result_.diagnostics.back().kind != DiagKind::kMultipleGrants)
          diagnose(DiagKind::kMultipleGrants, -1, resource, [&] {
            return "arbiter " + plan_.arbiters[a].resource_name + " asserted " +
                   std::to_string(std::popcount(mask)) +
                   " grants at once (mutual exclusion violated)";
          });
      }
    }
  }

  // Grant-holder bookkeeping: grant counts, hold streaks and the granted
  // task's wait.
  void account_grant(std::size_t a, int g) {
    ArbiterRecord& rec = arbs_[a];
    ArbiterStats& st = result_.arbiters[a];
    const core::ArbiterInstance& inst = plan_.arbiters[a];
    const int prev = rec.holder;
    if (sink_ != nullptr && g != prev && prev >= 0)
      trace(obs::TraceKind::kGrantEnd,
            static_cast<int>(inst.ports[static_cast<std::size_t>(prev)]),
            static_cast<int>(a), inst.resource,
            static_cast<std::int64_t>(cycle_ - rec.hold_since));
    if (g >= 0) {
      ++st.granted_cycles;
      if (g != prev) {
        ++st.grants;
        rec.reset_hold();
        rec.hold_since = cycle_;
      }
      // Wait accounting: the granted task's wait ends now.
      const TaskId t = inst.ports[static_cast<std::size_t>(g)];
      std::uint64_t waited = 0;
      if (ctx_[t].requesting >= 0) {
        waited = cycle_ - ctx_[t].request_since;
        st.max_wait = std::max(st.max_wait, waited);
      }
      if (sink_ != nullptr && g != prev)
        trace(obs::TraceKind::kGrant, static_cast<int>(t), static_cast<int>(a),
              inst.resource, static_cast<std::int64_t>(waited));
    } else {
      rec.reset_hold();
    }
    rec.holder = g;
    rec.holder_accessed = false;
  }

  // Starts the tasks whose in-run predecessors have finished.
  void start_tasks() {
    if (ready_ == 0) return;
    for (TaskId t : tasks_) {
      TaskCtx& c = ctx_[t];
      if (c.started || c.waiting_on > 0) continue;
      --ready_;
      c.started = true;
      c.stats.ran = true;
      c.stats.start_cycle = cycle_;
      trace(obs::TraceKind::kTaskStart, static_cast<int>(t), -1, -1, 0);
    }
  }

  // Executes one cycle of every running task.
  void execute_tasks() {
    std::fill(bank_user_.begin(), bank_user_.end(), -1);
    std::fill(chan_user_.begin(), chan_user_.end(), -1);
    for (TaskId t : tasks_) {
      TaskCtx& c = ctx_[t];
      if (c.started && !c.finished) execute_task(c);
    }
  }

  // Retires zero-cost control ops freely and executes at most one costed op
  // per cycle, then keeps draining zero-cost ops (so a task whose last
  // costed op retires this cycle also finishes this cycle).
  void execute_task(TaskCtx& c) {
    const auto& ops = graph_.task(c.id).program.ops();
    bool spent_cycle = false;
    if (c.compute_left > 0) {
      --c.compute_left;
      last_progress_cycle_ = cycle_;
      if (c.compute_left > 0) return;
      ++c.pc;
      ++c.stats.ops_retired;
      spent_cycle = true;  // zero-cost ops may still drain below
    }
    int control_budget = 64;
    while (!c.finished) {
      if (c.pc >= ops.size()) {
        finish_task(c);
        break;
      }
      const Op& op = ops[c.pc];
      const bool zero_cost =
          op.code == OpCode::kLoopBegin || op.code == OpCode::kLoopBeginVar ||
          op.code == OpCode::kLoopEnd || op.code == OpCode::kHalt ||
          (op.code == OpCode::kCompute && op.imm == 0);
      if (spent_cycle && !zero_cost) break;
      switch (op.code) {
        case OpCode::kLoopBegin:
        case OpCode::kLoopBeginVar:
        case OpCode::kLoopEnd:
        case OpCode::kHalt:
        case OpCode::kCompute:
          if (exec_control(c, op, ops, control_budget)) spent_cycle = true;
          continue;
        case OpCode::kAcquire: exec_acquire(c, op); break;
        case OpCode::kRelease: exec_release(c, op); break;
        case OpCode::kLoad:
        case OpCode::kStore: exec_memory(c, op); break;
        case OpCode::kSend: exec_send(c, op); break;
        case OpCode::kRecv: exec_recv(c, op); break;
        default: exec_register(c, op); break;
      }
      spent_cycle = true;  // every non-control op takes the cycle
    }
  }

  void finish_task(TaskCtx& c) {
    const TaskId t = c.id;
    c.finished = true;
    c.stats.finish_cycle = cycle_;
    ++finished_count_;
    for (const auto& [pred, succ] : graph_.control_deps())
      if (pred == t && ctx_[succ].in_run && --ctx_[succ].waiting_on == 0)
        ++ready_;
    trace(obs::TraceKind::kTaskFinish, static_cast<int>(t), -1, -1, 0);
    if (c.requesting >= 0)
      fail(DiagKind::kProtocolViolation, static_cast<int>(t), c.requesting,
           [&] {
             return "task " + graph_.task(t).name +
                    " finished while still requesting " +
                    binding_.resource_name(c.requesting);
           });
  }

  // Loops, halt and compute.  Returns true when the op took the cycle.
  bool exec_control(TaskCtx& c, const Op& op, const std::vector<Op>& ops,
                    int& control_budget) {
    switch (op.code) {
      case OpCode::kLoopBegin:
      case OpCode::kLoopBeginVar: {
        RCARB_CHECK(--control_budget > 0, "zero-cost op runaway");
        const std::int64_t trip = op.code == OpCode::kLoopBegin
                                      ? op.imm
                                      : std::max<std::int64_t>(0, c.regs[op.a]);
        if (trip == 0) {
          // Skip to the matching end.
          int depth = 1;
          std::size_t pc = c.pc + 1;
          while (depth > 0) {
            if (ops[pc].code == OpCode::kLoopBegin ||
                ops[pc].code == OpCode::kLoopBeginVar)
              ++depth;
            if (ops[pc].code == OpCode::kLoopEnd) --depth;
            ++pc;
          }
          c.pc = pc;
        } else {
          c.loops.push_back({c.pc, trip});
          ++c.pc;
        }
        last_progress_cycle_ = cycle_;
        return false;
      }
      case OpCode::kLoopEnd: {
        RCARB_CHECK(--control_budget > 0, "zero-cost op runaway");
        RCARB_ASSERT(!c.loops.empty(), "loop_end without frame");
        LoopFrame& frame = c.loops.back();
        if (--frame.remaining > 0) {
          c.pc = frame.begin_pc + 1;
        } else {
          c.loops.pop_back();
          ++c.pc;
        }
        last_progress_cycle_ = cycle_;
        return false;
      }
      case OpCode::kHalt:
        c.pc = ops.size();
        return false;
      default:  // kCompute
        if (op.imm == 0) {
          RCARB_CHECK(--control_budget > 0, "zero-cost op runaway");
          ++c.pc;
          ++c.stats.ops_retired;
          return false;
        }
        c.compute_left = op.imm - 1;  // this cycle is the first
        if (c.compute_left == 0) ++c.pc, ++c.stats.ops_retired;
        last_progress_cycle_ = cycle_;
        return true;
    }
  }

  // The Req:=1 cycle of Fig. 8 (or a refused / backing-off attempt at it).
  void exec_acquire(TaskCtx& c, const Op& op) {
    const TaskId t = c.id;
    // Programs bake resource ids in at insertion time; resolve() translates
    // ids retired by an online remap to the live one.
    const int res_a = resolve(op.a);
    if (c.requesting >= 0 && c.requesting != res_a) {
      fail(DiagKind::kProtocolViolation, static_cast<int>(t), res_a, [&] {
        return "task " + graph_.task(t).name +
               " acquires a second resource while holding one";
      });
      ++result_.protocol_violations;
    }
    if (c.requesting != res_a) {
      if (c.retry_resource == res_a && cycle_ < c.retry_until) {
        // Backing off after an admission refusal: the acquire op replays (pc
        // does not advance) once the backoff expires.
        ++c.stats.grant_wait_cycles;
        return;
      }
      if (admission_full(c, res_a)) {
        admission_reject(c, res_a);
        return;
      }
      if (c.retry_resource == res_a) ++result_.retries;
    }
    c.requesting = res_a;
    c.request_since = cycle_;
    c.retry_resource = -1;
    ++c.stats.acquires;
    if (sink_ != nullptr)
      trace(obs::TraceKind::kRequest, static_cast<int>(t),
            arbiter_port(t, res_a).first, res_a, 0);
    ++c.pc;
    ++c.stats.ops_retired;
    last_progress_cycle_ = cycle_;
  }

  // The Req:=0 cycle of Fig. 8.
  void exec_release(TaskCtx& c, const Op& op) {
    const TaskId t = c.id;
    const int res_a = resolve(op.a);
    if (c.requesting != res_a) {
      fail(DiagKind::kProtocolViolation, static_cast<int>(t), res_a, [&] {
        return "task " + graph_.task(t).name +
               " releases a resource it does not hold";
      });
      ++result_.protocol_violations;
    }
    c.requesting = -1;
    c.retry_resource = -1;
    if (sink_ != nullptr)
      trace(obs::TraceKind::kRelease, static_cast<int>(t),
            arbiter_port(t, res_a).first, res_a, 0);
    ++c.pc;
    ++c.stats.ops_retired;
    last_progress_cycle_ = cycle_;
  }

  // The shared prologue of a bank or channel access: wait for the grant,
  // then fail-stop on dead hardware.  A dead bank acknowledges nothing and
  // a stuck channel latches nothing, so the op does not retire: it replays
  // on the survivor once the remap lands, and data is stalled, never
  // silently corrupted.  True when the access stalls this cycle.
  bool access_stalls(TaskCtx& c, int resource, bool arbitrated,
                     degrade::StrikeSource src) {
    if (arbitrated && await_grant(c, resource)) return true;
    if (resource >= 0 && failed(resource)) {
      supervisor_strike(resource, src);
      degraded_cycle_ = true;
      return true;
    }
    if (arbitrated) note_access(c.id, resource);
    return false;
  }

  // Loads and stores against single-port banks.
  void exec_memory(TaskCtx& c, const Op& op) {
    const TaskId t = c.id;
    const int resource = driven_resource(op);
    const auto [ai, port] = arbiter_port(t, resource);
    if (access_stalls(c, resource, ai >= 0 && port >= 0,
                      degrade::StrikeSource::kBankFailure))
      return;
    // Single-port bank conflict detection.
    const int bank = binding_.segment_to_bank[static_cast<std::size_t>(op.b)];
    if (bank >= 0) {
      int& user = bank_user_[static_cast<std::size_t>(bank)];
      if (user >= 0 && user != static_cast<int>(t)) {
        ++result_.bank_conflicts;
        fail(DiagKind::kBankConflict, static_cast<int>(t),
             binding_.bank_resource(bank), [&] {
               return "bank conflict on " +
                      binding_.bank_names[static_cast<std::size_t>(bank)] +
                      " between " +
                      graph_.task(static_cast<TaskId>(user)).name + " and " +
                      graph_.task(t).name;
             });
      }
      user = static_cast<int>(t);
    }
    auto& mem = memory_[static_cast<std::size_t>(op.b)];
    const std::int64_t addr = c.regs[op.c] + op.imm;
    if (addr < 0 || static_cast<std::size_t>(addr) >= mem.size()) {
      fail(DiagKind::kOutOfBounds, static_cast<int>(t), resource, [&] {
        return "task " + graph_.task(t).name + " address " +
               std::to_string(addr) + " out of segment " +
               graph_.segment(static_cast<std::size_t>(op.b)).name;
      });
      // Non-strict mode: drop the access.
    } else if (op.code == OpCode::kLoad) {
      c.regs[op.a] = mem[static_cast<std::size_t>(addr)];
    } else {
      mem[static_cast<std::size_t>(addr)] = c.regs[op.a];
    }
    implicit_release(c, resource);
    ++c.stats.mem_accesses;
    ++c.pc;
    ++c.stats.ops_retired;
    last_progress_cycle_ = cycle_;
  }

  // Sends into the receiver-side channel registers (Fig. 3).
  void exec_send(TaskCtx& c, const Op& op) {
    const TaskId t = c.id;
    const auto ch = static_cast<std::size_t>(op.b);
    if (ch < opt_.tdm_slots.size() && opt_.tdm_slots[ch].second > 0) {
      const auto [slot, period] = opt_.tdm_slots[ch];
      if (cycle_ % static_cast<std::uint64_t>(period) !=
          static_cast<std::uint64_t>(slot)) {
        ++c.stats.grant_wait_cycles;  // waiting for the time slot
        return;
      }
    }
    const int resource = driven_resource(op);
    const auto [ai, port] = arbiter_port(t, resource);
    const bool naive = opt_.naive_shared_channel_register &&
                       binding_.channel_to_phys[ch] >= 0;
    // Receiver-side backpressure comes first: the sender can see its
    // receiver's ready line regardless of the channel grant, and — so no one
    // starves behind a blocked holder — it deasserts its own channel request
    // while stalled.
    if (!naive && chan_reg_[ch].valid) {
      if (c.requesting >= 0 && c.requesting == resource) {
        c.dropped_request = c.requesting;
        c.requesting = -1;
      }
      ++c.stats.backpressure_cycles;
      return;
    }
    if (!naive && c.dropped_request == resource && c.requesting != resource &&
        ai >= 0 && port >= 0) {
      // Re-assert the request dropped during backpressure (one cycle, like
      // the Fig. 8 Req:=1 step).
      c.requesting = resource;
      c.dropped_request = -1;
      c.request_since = cycle_;
      return;
    }
    if (access_stalls(c, resource, ai >= 0 && port >= 0,
                      degrade::StrikeSource::kChannelFailure))
      return;
    const int phys = binding_.channel_to_phys[ch];
    std::int64_t value = c.regs[op.a];
    if (phys >= 0) deliver_word(c, phys, value);
    if (naive) {
      // The broken baseline clobbers silently (that is its point).
      NaiveReg& reg = naive_reg_[static_cast<std::size_t>(phys)];
      reg.valid = true;
      reg.value = value;
      reg.writer = op.b;
    } else {
      chan_reg_[ch].valid = true;
      chan_reg_[ch].value = value;
    }
    implicit_release(c, resource);
    ++c.stats.channel_ops;
    ++c.pc;
    ++c.stats.ops_retired;
    last_progress_cycle_ = cycle_;
  }

  // Drives `value` onto physical channel `phys`: conflict detection, then
  // any armed corruption fault hits the word on the wire.
  void deliver_word(TaskCtx& c, int phys, std::int64_t& value) {
    const TaskId t = c.id;
    const auto p = static_cast<std::size_t>(phys);
    int& user = chan_user_[p];
    if (user >= 0 && user != static_cast<int>(t)) {
      ++result_.channel_conflicts;
      fail(DiagKind::kChannelConflict, static_cast<int>(t),
           binding_.channel_resource(phys), [&] {
             return "channel conflict on " + binding_.phys_channel_names[p] +
                    " between " + graph_.task(static_cast<TaskId>(user)).name +
                    " and " + graph_.task(t).name;
           });
    }
    user = static_cast<int>(t);

    auto& armed = chan_corrupt_[p];
    std::size_t& next = chan_corrupt_next_[p];
    if (next >= armed.size() || armed[next].first > cycle_) return;
    const std::uint64_t mask = armed[next].second;
    ++next;
    if (opt_.harden && std::popcount(mask) == 1) {
      // SECDED corrects the single-bit upset in place.
      ++result_.corrected_words;
      diagnose(DiagKind::kDataCorruption, static_cast<int>(t),
               binding_.channel_resource(phys), [&] {
                 return "single-bit corruption on " +
                        binding_.phys_channel_names[p] + " corrected by SECDED";
               });
    } else {
      value = static_cast<std::int64_t>(static_cast<std::uint64_t>(value) ^
                                        mask);
      ++result_.corrupted_words;
      diagnose(DiagKind::kDataCorruption, static_cast<int>(t),
               binding_.channel_resource(phys), [&] {
                 return "corrupted word on " + binding_.phys_channel_names[p] +
                        " delivered (parity detected, no ECC)";
               });
    }
  }

  // Receives from the channel register; waiting or consuming both take the
  // cycle.
  void exec_recv(TaskCtx& c, const Op& op) {
    const auto ch = static_cast<std::size_t>(op.b);
    const int phys = binding_.channel_to_phys[ch];
    bool got = false;
    if (opt_.naive_shared_channel_register && phys >= 0) {
      // The broken single-register baseline has no per-target valid
      // handshake: receivers sample whatever the register holds, so a later
      // transfer on a merged channel is read in place of an earlier one
      // (counted as a clobbered read).
      NaiveReg& reg = naive_reg_[static_cast<std::size_t>(phys)];
      if (reg.valid) {
        if (reg.writer != op.b) ++result_.clobbered_reads;
        c.regs[op.a] = reg.value;
        got = true;
      }
    } else if (chan_reg_[ch].valid) {
      c.regs[op.a] = chan_reg_[ch].value;
      chan_reg_[ch].valid = false;
      got = true;
    }
    if (!got) return;
    ++c.stats.channel_ops;
    ++c.pc;
    ++c.stats.ops_retired;
    last_progress_cycle_ = cycle_;
  }

  // Single-cycle register ops.
  void exec_register(TaskCtx& c, const Op& op) {
    std::int64_t* r = c.regs;
    switch (op.code) {
      case OpCode::kLoadImm: r[op.a] = op.imm; break;
      case OpCode::kMov: r[op.a] = r[op.b]; break;
      case OpCode::kAdd: r[op.a] = r[op.b] + r[op.c]; break;
      case OpCode::kSub: r[op.a] = r[op.b] - r[op.c]; break;
      case OpCode::kMul: r[op.a] = r[op.b] * r[op.c]; break;
      case OpCode::kMulQ: r[op.a] = (r[op.b] * r[op.c]) >> op.imm; break;
      case OpCode::kShr: r[op.a] = r[op.b] >> op.imm; break;
      case OpCode::kShl:
        r[op.a] = static_cast<std::int64_t>(static_cast<std::uint64_t>(r[op.b])
                                            << op.imm);
        break;
      case OpCode::kAddImm: r[op.a] = r[op.b] + op.imm; break;
      default:
        RCARB_CHECK(false, "unhandled opcode in simulator");
    }
    ++c.pc;
    ++c.stats.ops_retired;
    last_progress_cycle_ = cycle_;
  }

  // ------------------------------------------------ Fig. 8 request edge

  // Protocol retry bookkeeping shared by the arbitrated access ops: returns
  // true when the access must wait this cycle (stall, backoff, or the Req
  // re-assertion cycle), false when it may proceed.
  bool await_grant(TaskCtx& c, int resource) {
    const TaskId t = c.id;
    if (c.requesting != resource) {
      if (c.retry_resource == resource)
        return reassert_after_backoff(c, resource);
      if (c.implicit_for(resource)) {
        if (admission_full(c, resource)) {
          admission_reject(c, resource);
          return true;
        }
        // Retrofitted protocol: the access attempt is the Req:=1 cycle.
        c.requesting = resource;
        c.request_since = cycle_;
        c.retry_resource = -1;
        ++c.stats.acquires;
        if (sink_ != nullptr)
          trace(obs::TraceKind::kRequest, static_cast<int>(t),
                arbiter_port(t, resource).first, resource, 0);
        return true;
      }
      fail(DiagKind::kProtocolViolation, static_cast<int>(t), resource, [&] {
        return "task " + graph_.task(t).name + " accesses arbitrated " +
               binding_.resource_name(resource) + " without requesting it";
      });
      ++result_.protocol_violations;
      return false;
    }
    if (has_grant(t, resource)) {
      c.retry_rounds = 0;
      c.budget_spent = false;
      c.reject_reported = false;
      return false;
    }
    // No grant.  With retry enabled, give the attempt up after the timeout
    // and back off boundedly (Req:=0 for backoff cycles).
    const int rt = plan_.retry_timeout;
    if (rt > 0 && !c.budget_spent &&
        cycle_ - c.request_since >= static_cast<std::uint64_t>(rt)) {
      c.requesting = -1;
      c.retry_resource = resource;
      const std::uint64_t delay = c.backoff(plan_.retry_backoff_limit);
      c.retry_until = cycle_ + delay;
      const int ai = arbiter_port(t, resource).first;
      if (ai >= 0) {
        if (!result_.arbiter_obs.empty())
          ++result_.arbiter_obs[static_cast<std::size_t>(ai)].backoffs;
        trace(obs::TraceKind::kBackoff, static_cast<int>(t), ai, resource,
              static_cast<std::int64_t>(delay));
      }
      note_backoff_round(c, resource);
      return true;
    }
    ++c.stats.grant_wait_cycles;  // stall, request stays up
    return true;
  }

  // Backing off, or re-asserting Req once the backoff has expired.
  bool reassert_after_backoff(TaskCtx& c, int resource) {
    if (cycle_ < c.retry_until) return true;
    if (admission_full(c, resource)) {
      admission_reject(c, resource);  // extends the backoff
      return true;
    }
    c.requesting = resource;
    c.retry_resource = -1;
    c.request_since = cycle_;
    ++result_.retries;
    const int ai = arbiter_port(c.id, resource).first;
    if (ai >= 0) {
      if (!result_.arbiter_obs.empty())
        ++result_.arbiter_obs[static_cast<std::size_t>(ai)].retries;
      trace(obs::TraceKind::kRetry, static_cast<int>(c.id), ai, resource, 0);
    }
    return true;
  }

  // A backoff round is one Req-drop (retry timeout or admission refusal);
  // once the per-burst budget is spent the client stops churning its Req
  // line and waits with the request held — a typed diagnostic instead of a
  // livelock, and never a deadlock.
  void note_backoff_round(TaskCtx& c, int resource) {
    ++c.retry_rounds;
    if (opt_.retry_budget <= 0 || c.budget_spent ||
        c.retry_rounds < opt_.retry_budget)
      return;
    c.budget_spent = true;
    ++result_.budget_exhausted;
    diagnose(DiagKind::kTimedOut, static_cast<int>(c.id), resource, [&] {
      return "task " + graph_.task(c.id).name + " spent its retry budget (" +
             std::to_string(opt_.retry_budget) + ") on " +
             binding_.resource_name(resource) +
             "; falling back to a held request";
    });
  }

  // Admission control: refuse a newcomer while the arbiter's previous-cycle
  // request wire already carries admission_limit other requesters.  A
  // budget-exhausted client bypasses the check — it must eventually be
  // allowed to wait in line, or a persistently full wire could starve it
  // forever.
  bool admission_full(const TaskCtx& c, int resource) const {
    if (opt_.admission_limit <= 0 || c.budget_spent) return false;
    const auto [ai, port] = arbiter_port(c.id, resource);
    if (ai < 0 || port < 0) return false;
    const std::uint64_t others =
        arbs_[static_cast<std::size_t>(ai)].requests & ~(1ull << port);
    return std::popcount(others) >= opt_.admission_limit;
  }

  // Refused at the request edge: bounded exponential backoff, then the
  // request op replays.
  void admission_reject(TaskCtx& c, int resource) {
    c.retry_resource = resource;
    c.retry_until = cycle_ + c.backoff(plan_.retry_backoff_limit);
    ++result_.admission_rejects;
    if (!c.reject_reported) {
      c.reject_reported = true;
      diagnose(DiagKind::kRejected, static_cast<int>(c.id), resource, [&] {
        return "admission control refused " + graph_.task(c.id).name + " on " +
               binding_.resource_name(resource) + " (limit " +
               std::to_string(opt_.admission_limit) + ")";
      });
    }
    note_backoff_round(c, resource);
  }

  // Req:=0 right after a retrofitted access retires, so the arbiter rotates
  // per access instead of pinning the grant until task end.
  void implicit_release(TaskCtx& c, int resource) {
    if (resource >= 0 && c.requesting == resource && c.implicit_for(resource))
      c.requesting = -1;
  }

  bool has_grant(TaskId t, int resource) const {
    const auto [ai, port] = arbiter_port(t, resource);
    if (ai < 0) return true;    // unarbitrated resource
    if (port < 0) return true;  // task elided from the arbiter
    return ((arbs_[static_cast<std::size_t>(ai)].grant_mask >> port) & 1u) != 0;
  }

  void note_access(TaskId t, int resource) {
    const auto [ai, port] = arbiter_port(t, resource);
    if (ai < 0 || port < 0) return;
    ArbiterRecord& rec = arbs_[static_cast<std::size_t>(ai)];
    if (rec.holder == port) rec.holder_accessed = true;
  }

  // Rebuilds the request lines from the tasks' protocol state.  `pending`
  // additionally counts waiters in a retry backoff: their Req wire is down,
  // but they are still starved behind the holder.  (Senders that dropped
  // their request under receiver backpressure are *not* pending — they could
  // not proceed even with the grant.)
  void rebuild_requests() {
    for (ArbiterRecord& rec : arbs_) {
      rec.requests = 0;
      rec.pending = 0;
    }
    for (TaskId t : tasks_) {
      const TaskCtx& c = ctx_[t];
      if (c.finished) continue;
      if (c.requesting >= 0) {
        const auto [ai, port] = arbiter_port(t, c.requesting);
        if (ai >= 0 && port >= 0) {
          ArbiterRecord& rec = arbs_[static_cast<std::size_t>(ai)];
          rec.requests |= 1ull << port;
          rec.pending |= 1ull << port;
        }
      } else if (c.retry_resource >= 0) {
        const auto [ai, port] = arbiter_port(t, c.retry_resource);
        if (ai >= 0 && port >= 0)
          arbs_[static_cast<std::size_t>(ai)].pending |= 1ull << port;
      }
    }
  }

  // Hung-grant watchdog.  A holder that keeps the grant without retiring a
  // single access while peers wait is hung (stuck grant line, phantom
  // stuck-1 requester, crashed holder...).
  void watchdog() {
    for (std::size_t a = 0; a < arbs_.size(); ++a) {
      ArbiterRecord& rec = arbs_[a];
      const int h = rec.holder;
      if (h < 0 || rec.retired) continue;
      const core::ArbiterInstance& inst = plan_.arbiters[a];
      if (degrade_on_) {
        const auto st = quar_[static_cast<std::size_t>(inst.resource)].state;
        if (st == degrade::QuarantineState::kDraining ||
            st == degrade::QuarantineState::kReconfiguring) {
          // The quarantine drain masks the peers' requests, so the holder's
          // apparent idle-hold is the supervisor's doing — not a hung grant.
          // Counting these cycles would trip the watchdog mid-drain and
          // force-release the very burst the drain is waiting out (the
          // supervisor's own drain_timeout bounds it).
          rec.reset_hold();
          continue;
        }
      }
      const bool others_waiting = (rec.pending & ~(1ull << h)) != 0;
      if (rec.holder_accessed || !others_waiting) {
        rec.reset_hold();
        continue;
      }
      if (++rec.hold_streak < opt_.watchdog_timeout) continue;
      const TaskId holder_task = inst.ports[static_cast<std::size_t>(h)];
      if (!rec.hung_reported) {
        rec.hung_reported = true;
        ++result_.hung_grants;
        supervisor_strike(inst.resource, degrade::StrikeSource::kWatchdogTrip);
        if (!result_.arbiter_obs.empty())
          ++result_.arbiter_obs[a].watchdog_fires;
        diagnose(DiagKind::kHungGrant, static_cast<int>(holder_task),
                 inst.resource, [&] {
                   return "grant on " + inst.resource_name +
                          " pinned on idle " +
                          graph_.task(holder_task).name + " for " +
                          std::to_string(rec.hold_streak) +
                          " cycles while peers wait";
                 });
      }
      if (opt_.harden) {
        // Force-release: suppress the hung holder's request for one sample
        // so the round-robin scan moves past it.
        rec.force_release = 1ull << h;
        ++result_.watchdog_releases;
        if (!result_.arbiter_obs.empty())
          ++result_.arbiter_obs[a].watchdog_releases;
        diagnose(DiagKind::kWatchdogRecovery, static_cast<int>(holder_task),
                 inst.resource, [&] {
                   return "watchdog force-released " +
                          graph_.task(holder_task).name + " on " +
                          inst.resource_name;
                 });
        rec.reset_hold();
      }
    }
  }

  // Serving-cycle (availability) accounting over `cycles` cycles that share
  // one verdict.  A cycle serves unless a quarantine was in progress, an
  // access failed, or a live task is stuck against a failed /
  // capacity-exhausted resource.
  void account_serving(std::uint64_t cycles = 1) {
    if (degrade_on_ || perm_next_ > 0 || latch_next_ > 0) {
      if (!degraded_cycle_) {
        for (TaskId t : tasks_) {
          const TaskCtx& c = ctx_[t];
          if (!c.started || c.finished) continue;
          int res = c.requesting >= 0       ? c.requesting
                    : c.retry_resource >= 0 ? c.retry_resource
                                            : c.dropped_request;
          const auto& ops = graph_.task(t).program.ops();
          if (res < 0 && c.pc < ops.size()) res = driven_resource(ops[c.pc]);
          if (res >= 0 && res < num_res_ &&
              (failed(res) ||
               quar_[static_cast<std::size_t>(res)].state ==
                   degrade::QuarantineState::kCapacityExhausted)) {
            degraded_cycle_ = true;
            break;
          }
        }
      }
      if (!degraded_cycle_) result_.serving_cycles += cycles;
    } else {
      result_.serving_cycles += cycles;  // no permanent fault active yet
    }
    degraded_cycle_ = false;
  }

  // ------------------------------------------------ degradation supervisor
  //
  // rcsim keeps its own quarantine FSM rather than degrade::ResourceSupervisor:
  // the repair is chosen from hardware liveness (res_failed_) and a bank /
  // channel remap plan frozen at the drain edge, not from the strike source.

  // One piece of permanent-fault evidence against a resource.  The K-th
  // strike within the sliding window classifies the fault as permanent and
  // opens the quarantine (kDraining).
  void supervisor_strike(int resource, degrade::StrikeSource src) {
    if (!degrade_on_ || resource < 0 || resource >= num_res_) return;
    const int r = resolve(resource);
    QuarCtx& q = quar_[static_cast<std::size_t>(r)];
    if (q.state != degrade::QuarantineState::kHealthy) return;
    ++result_.strikes;
    if (!strike_tracker_.strike(r, cycle_, src)) return;
    ++result_.quarantined;
    q.state = degrade::QuarantineState::kDraining;
    q.deadline = cycle_ + opt_.degrade.drain_timeout;
    q.record = result_.quarantine_events.size();
    degrade::QuarantineRecord rec;
    rec.resource = r;
    rec.state = degrade::QuarantineState::kDraining;
    rec.classified_cycle = cycle_;
    result_.quarantine_events.push_back(rec);
    diagnose(DiagKind::kQuarantine, -1, r, [&] {
      return "resource " + binding_.resource_name(r) +
             " classified permanently faulty (" +
             std::string(degrade::to_string(src)) +
             " strikes: " + std::to_string(opt_.degrade.strikes) + " within " +
             std::to_string(opt_.degrade.strike_window) +
             " cycles); draining in-flight bursts";
    });
    trace(obs::TraceKind::kQuarantine, -1, -1, r,
          static_cast<std::int64_t>(opt_.degrade.strikes));
  }

  // Advances every open quarantine one step: waits out the drain, freezes
  // the remap plan, waits out the priced reconfiguration stall, and finally
  // applies the group move.
  void supervise() {
    for (int r = 0; r < num_res_; ++r) {
      QuarCtx& q = quar_[static_cast<std::size_t>(r)];
      switch (q.state) {
        case degrade::QuarantineState::kDraining:
          degraded_cycle_ = true;
          drain_step(r, q);
          break;
        case degrade::QuarantineState::kReconfiguring:
          degraded_cycle_ = true;
          if (cycle_ >= q.deadline) finish_repair(r, q);
          break;
        case degrade::QuarantineState::kCapacityExhausted:
          for (const int a :
               plan_.arbiters_of_resource[static_cast<std::size_t>(r)])
            if (arbs_[static_cast<std::size_t>(a)].pending != 0)
              degraded_cycle_ = true;
          break;
        default:
          break;
      }
    }
  }

  // Waits for the resource's holders to finish their bursts, force-aborting
  // them at the drain timeout (a burst pinned on a dead resource can never
  // reach its <=M batch boundary on its own); once drained, plans the repair
  // and prices the reconfiguration stall via the synthesis memo.
  void drain_step(int r, QuarCtx& q) {
    const auto& arbs = plan_.arbiters_of_resource[static_cast<std::size_t>(r)];
    bool busy = false;
    for (const int a : arbs)
      if (arbs_[static_cast<std::size_t>(a)].holder >= 0) busy = true;
    if (busy) {
      if (cycle_ >= q.deadline) {
        if (!q.drain_aborted) {
          q.drain_aborted = true;
          ++result_.drain_aborts;
        }
        for (const int a : arbs) {
          ArbiterRecord& rec = arbs_[static_cast<std::size_t>(a)];
          if (rec.holder >= 0) rec.force_release |= 1ull << rec.holder;
        }
      }
      return;
    }
    degrade::QuarantineRecord& rec = result_.quarantine_events[q.record];
    rec.drained_cycle = cycle_;
    rec.drain_aborted = q.drain_aborted;
    trace(obs::TraceKind::kDrain, -1, -1, r, q.drain_aborted ? 1 : 0);
    // Freeze the remap plan now so the feasibility verdict (and
    // kCapacityExhausted) is known before the reconfig stall.
    if (!plan_repair(r, q)) {
      q.state = degrade::QuarantineState::kCapacityExhausted;
      rec.state = q.state;
      diagnose(DiagKind::kCapacityExhausted, -1, r, [&] {
        return "no survivor can take the load of " + binding_.resource_name(r) +
               "; its tasks stall (no remap possible)";
      });
      return;
    }
    const int live = q.repair == Repair::kInPlace ? r
                     : q.target < 0              ? r
                     : q.repair == Repair::kBank
                         ? binding_.bank_resource(q.target)
                         : binding_.channel_resource(q.target);
    const int n_ports =
        static_cast<int>(contenders(r, live == r ? -1 : live).size());
    q.state = degrade::QuarantineState::kReconfiguring;
    q.deadline = cycle_ + degrade::arbiter_reconfig_cycles(
                              opt_.degrade, n_ports, opt_.self_check);
  }

  // Chooses the repair from hardware liveness: a healthy resource behind a
  // faulty arbiter is regenerated in place; a dead bank or channel moves its
  // whole load onto one survivor.  Returns false when no survivor can take it.
  bool plan_repair(int r, QuarCtx& q) {
    if (!failed(r)) {
      // The guarded hardware is healthy (arbiter-region fault, e.g. a
      // latch-up): regenerate the arbiter in place.
      q.repair = Repair::kInPlace;
      return true;
    }
    const auto unusable = [&](int res) {
      return failed(res) || quar_[static_cast<std::size_t>(res)].state !=
                                degrade::QuarantineState::kHealthy;
    };
    if (binding_.resource_is_bank(r)) {
      std::vector<bool> dead(binding_.num_banks, false);
      for (std::size_t b = 0; b < binding_.num_banks; ++b)
        dead[b] = unusable(binding_.bank_resource(static_cast<int>(b)));
      // Bank sizes are unknown here (segments are the memory unit), so any
      // live bank fits; capacity-aware placement is the partition layer's.
      std::vector<std::size_t> seg_bytes(graph_.num_segments());
      for (tg::SegmentId s = 0; s < graph_.num_segments(); ++s)
        seg_bytes[s] = graph_.segment(s).bytes;
      const degrade::BankRemapPlan plan = degrade::plan_bank_remap(
          seg_bytes, binding_.segment_to_bank,
          std::vector<std::size_t>(binding_.num_banks, SIZE_MAX / 2), r,
          dead);
      q.repair = Repair::kBank;
      q.target = plan.moved_segments.empty() ? -1 : plan.target_bank;
      q.moved = plan.moved_segments;
      return plan.feasible;
    }
    const int dead_phys = r - static_cast<int>(binding_.num_banks);
    std::vector<bool> dead(binding_.num_phys_channels, false);
    for (std::size_t p = 0; p < binding_.num_phys_channels; ++p)
      dead[p] = unusable(binding_.channel_resource(static_cast<int>(p)));
    q.repair = Repair::kChannel;
    const degrade::ChannelRemapPlan plan = degrade::plan_channel_remap(
        binding_.channel_to_phys, binding_.num_phys_channels, dead_phys, dead);
    q.target = plan.moved_channels.empty() ? -1 : plan.target_phys;
    q.moved = plan.moved_channels;
    return plan.feasible;
  }

  // Reconfiguration done: applies the frozen group move, retires the old
  // arbiters and brings up the regenerated one on the survivor.
  void finish_repair(int r, QuarCtx& q) {
    degrade::QuarantineRecord& rec = result_.quarantine_events[q.record];
    int live = r;
    if (q.repair == Repair::kBank && q.target >= 0) {
      for (const int s : q.moved)
        binding_.segment_to_bank[static_cast<std::size_t>(s)] = q.target;
      live = binding_.bank_resource(q.target);
    } else if (q.repair == Repair::kChannel && q.target >= 0) {
      for (const int lc : q.moved)
        binding_.channel_to_phys[static_cast<std::size_t>(lc)] = q.target;
      live = binding_.channel_resource(q.target);
    }
    std::vector<TaskId> ports = contenders(r, live == r ? -1 : live);
    // A port task whose program carries no Acquire for either merged
    // resource was the sole client of its resource pre-fault — the insertion
    // pass elided its protocol ops.  It cannot follow Fig. 8 on the shared
    // survivor, so the simulator retrofits an implicit per-access
    // Req/release for it.
    for (const TaskId pt : ports) {
      bool has_protocol = false;
      for (const Op& op : graph_.task(pt).program.ops())
        if (op.code == OpCode::kAcquire) {
          const int ra = resolve(op.a);
          if (ra == live || ra == r) {
            has_protocol = true;
            break;
          }
        }
      if (!has_protocol && !ctx_[pt].implicit_for(live))
        ctx_[pt].implicit_protocol.push_back(live);
    }
    const auto retire = [&](int res) {
      for (const int a :
           plan_.arbiters_of_resource[static_cast<std::size_t>(res)])
        arbs_[static_cast<std::size_t>(a)].retired = true;
    };
    retire(r);
    if (live != r) retire(live);
    plan_.arbiters_of_resource[static_cast<std::size_t>(r)].clear();
    if (!ports.empty()) {
      core::ArbiterInstance inst;
      inst.resource = live;
      inst.resource_name = binding_.resource_name(live);
      inst.ports = std::move(ports);
      inst.policy = core::Policy::kRoundRobin;  // regenerated arbiters are RR
      // The regenerated arbiter keeps the structure in effect for this run:
      // under kAuto, the latest kind planned for the surviving resource
      // (falling back to the plan's last instance when the survivor was
      // unarbitrated before the merge); an explicit SimOptions choice is
      // re-applied by install_arbiter either way.
      inst.kind = plan_.arbiters.empty() ? core::ArbiterKind::kFlatFsm
                                         : plan_.arbiters.back().kind;
      for (const core::ArbiterInstance& prev : plan_.arbiters)
        if (prev.resource == live) inst.kind = prev.kind;
      install_arbiter(inst);
      plan_.arbiters_of_resource[static_cast<std::size_t>(live)].assign(
          1, static_cast<int>(plan_.arbiters.size()));
      plan_.arbiters.push_back(std::move(inst));
    }
    if (live != r) {
      resource_fwd_[static_cast<std::size_t>(r)] = live;
      // Translate the live protocol state of every task still pointed at the
      // retired id (ops translate lazily via resolve()).
      for (TaskId t : tasks_) {
        TaskCtx& c = ctx_[t];
        if (c.requesting == r) c.requesting = live;
        if (c.retry_resource == r) c.retry_resource = live;
        if (c.dropped_request == r) c.dropped_request = live;
      }
    }
    // An in-place repair returns the resource to service with a clean
    // strike history (as degrade::ResourceSupervisor does on kRestored), so
    // later evidence against it can quarantine it again; a remap retires
    // the dead resource for good.
    strike_tracker_.clear(r);
    const bool in_place = q.repair == Repair::kInPlace;
    rec.state = in_place ? degrade::QuarantineState::kHealthy
                         : degrade::QuarantineState::kRemapped;
    rec.restored_cycle = cycle_;
    rec.remap_target = live;
    ++result_.remaps;
    diagnose(DiagKind::kRemap, -1, r, [&] {
      return in_place
                 ? "arbiter region of " + binding_.resource_name(r) +
                       " regenerated in place; service restored"
                 : "load of " + binding_.resource_name(r) + " remapped onto " +
                       binding_.resource_name(live) + " (" +
                       std::to_string(q.moved.size()) +
                       " logical unit(s) moved); service restored";
    });
    trace(obs::TraceKind::kRemap, -1, -1, r, live);
    q.state = rec.state;
    if (in_place) q = QuarCtx{};  // ready for the next quarantine
  }

  // Every running task whose program can drive r1 or r2 — the contention set
  // of the merged resource after a remap, in deterministic (TaskId) order.
  // Derived from the programs rather than the old arbiter tables so tasks
  // that used the survivor *unarbitrated* (no contention before the remap)
  // join the regenerated arbiter instead of colliding with the movers.
  std::vector<TaskId> contenders(int r1, int r2) {
    std::vector<TaskId> ports;
    for (const TaskId t : tasks_) {
      for (const Op& op : graph_.task(t).program.ops()) {
        int dr = op.code == OpCode::kAcquire || op.code == OpCode::kRelease
                     ? op.a
                     : driven_resource(op);
        if (dr < 0) continue;  // no driven resource must not match r2 == -1
        dr = resolve(dr);
        if (dr == r1 || dr == r2) {
          ports.push_back(t);
          break;
        }
      }
    }
    std::sort(ports.begin(), ports.end());
    return ports;
  }

  int resolve(int r) {
    if (r < 0 || r >= num_res_) return r;
    int root = r;
    while (resource_fwd_[static_cast<std::size_t>(root)] != root)
      root = resource_fwd_[static_cast<std::size_t>(root)];
    while (resource_fwd_[static_cast<std::size_t>(r)] != root) {
      const int next = resource_fwd_[static_cast<std::size_t>(r)];
      resource_fwd_[static_cast<std::size_t>(r)] = root;
      r = next;
    }
    return root;
  }

  // ---------------------------------------------------- stall attribution

  // Builds the wait-for graph over outstanding waits and reports a cycle in
  // it as kDeadlock; a stall without one is reported as kNoProgress with the
  // task-state dump.
  void attribute_stall() {
    const auto num_tasks = graph_.num_tasks();
    std::vector<int> waits_on(num_tasks, -1);
    std::vector<std::string> why(num_tasks);
    for (TaskId t : tasks_) {
      const TaskCtx& c = ctx_[t];
      if (c.finished) continue;
      if (!c.started) {
        for (TaskId p : graph_.predecessors(t))
          if (ctx_[p].in_run && !ctx_[p].finished) {
            waits_on[t] = static_cast<int>(p);
            why[t] = "control dependence on " + graph_.task(p).name;
            break;
          }
        continue;
      }
      const auto& ops = graph_.task(t).program.ops();
      if (c.pc >= ops.size()) continue;
      const Op& op = ops[c.pc];
      int res = c.requesting;
      if (res < 0) res = c.retry_resource;
      if (res < 0) res = c.dropped_request;
      if (res >= 0 && (op.code == OpCode::kLoad || op.code == OpCode::kStore ||
                       op.code == OpCode::kSend)) {
        const auto [ai, port] = arbiter_port(t, res);
        if (ai >= 0 && port >= 0) {
          const int h = arbs_[static_cast<std::size_t>(ai)].holder;
          if (h >= 0 && h != port) {
            waits_on[t] = static_cast<int>(
                plan_.arbiters[static_cast<std::size_t>(ai)]
                    .ports[static_cast<std::size_t>(h)]);
            why[t] = "awaits grant of " + binding_.resource_name(res);
            continue;
          }
        }
      }
      const auto ch = static_cast<std::size_t>(op.b);
      if (op.code == OpCode::kRecv && !chan_reg_[ch].valid) {
        waits_on[t] = static_cast<int>(graph_.channel(ch).source);
        why[t] = "awaits a word on " + graph_.channel(ch).name;
        continue;
      }
      if (op.code == OpCode::kSend && !opt_.naive_shared_channel_register &&
          chan_reg_[ch].valid) {
        waits_on[t] = static_cast<int>(graph_.channel(ch).target);
        why[t] = "backpressured on " + graph_.channel(ch).name;
        continue;
      }
    }

    // Walk every chain looking for a cycle (paths are functional: at most
    // one outgoing wait edge per task).
    std::vector<char> color(num_tasks, 0);  // 0 new, 1 on path, 2 done
    for (TaskId start : tasks_) {
      std::vector<TaskId> path;
      TaskId u = start;
      while (true) {
        if (color[u] == 2) break;
        if (color[u] == 1) {
          // Cycle found: report it from u around.
          std::string detail = "wait-for cycle: ";
          const auto at = std::find(path.begin(), path.end(), u);
          for (auto it = at; it != path.end(); ++it)
            detail += graph_.task(*it).name + " (" + why[*it] + ") -> ";
          detail += graph_.task(u).name;
          diagnose(DiagKind::kDeadlock, static_cast<int>(u), ctx_[u].requesting,
                   [&] { return detail; });
          return;
        }
        color[u] = 1;
        path.push_back(u);
        if (waits_on[u] < 0 ||
            ctx_[static_cast<std::size_t>(waits_on[u])].finished)
          break;
        u = static_cast<TaskId>(waits_on[u]);
      }
      for (TaskId v : path) color[v] = 2;
    }

    // No cycle: a hang (dead arbiter, sender that never sends, ...).
    diagnose(DiagKind::kNoProgress, -1, -1, [&] { return stall_dump(why); });
  }

  std::string stall_dump(const std::vector<std::string>& why) const {
    std::string detail = "no progress for " +
                         std::to_string(opt_.no_progress_window) +
                         " cycles; task states:";
    for (TaskId t : tasks_) {
      const TaskCtx& c = ctx_[t];
      if (c.finished) continue;
      const auto& ops = graph_.task(t).program.ops();
      detail += "\n  " + graph_.task(t).name +
                (c.started ? "" : " (not started)") + " pc=" +
                std::to_string(c.pc);
      if (c.started && c.pc < ops.size())
        detail += std::string(" op=") + tg::to_string(ops[c.pc].code) +
                  " a=" + std::to_string(ops[c.pc].a) +
                  " b=" + std::to_string(ops[c.pc].b);
      detail += " requesting=" + std::to_string(c.requesting) +
                " dropped=" + std::to_string(c.dropped_request);
      if (!why[t].empty()) detail += " [" + why[t] + "]";
    }
    for (std::size_t a = 0; a < arbs_.size(); ++a) {
      const core::SystemArbiter& hw = arbs_[a].hw;
      if (arbs_[a].retired) continue;
      if (hw.rr != nullptr && !hw.rr->state_legal())
        detail += "\n  arbiter " + plan_.arbiters[a].resource_name +
                  " register illegal (state=" + hw.rr->state_name() + ")";
      else if (hw.sc != nullptr && hw.sc->error())
        detail += "\n  arbiter " + plan_.arbiters[a].resource_name +
                  " self-check error asserted";
    }
    for (int r = 0; r < num_res_; ++r)
      if (failed(r))
        detail += "\n  resource " + binding_.resource_name(r) +
                  " permanently failed (" +
                  degrade::to_string(quar_[static_cast<std::size_t>(r)].state) +
                  ")";
    return detail;
  }

  std::pair<int, int> arbiter_port(TaskId t, int resource) const {
    return plan_.port_lookup(resource, t);
  }
  [[nodiscard]] bool failed(int resource) const {
    return res_failed_[static_cast<std::size_t>(resource)] != 0;
  }

  void trace(obs::TraceKind kind, int task, int arbiter, int resource,
             std::int64_t value) const {
    if (sink_ != nullptr)
      sink_->emit({cycle_, kind, task, arbiter, resource, value});
  }
  // Diagnostic emission.  `make_detail` is a lazy builder: the detail
  // string is only formatted when someone will read it (diag_detail on, or
  // a strict run about to throw) — non-strict sweeps that merely count
  // diagnostic kinds never pay for string construction.
  template <typename MakeDetail>
  void diagnose(DiagKind kind, int task, int resource,
                MakeDetail&& make_detail) {
    result_.diagnostics.push_back(
        {kind, cycle_, task, resource,
         want_detail_ ? make_detail() : std::string()});
    trace(obs::TraceKind::kDiagnostic, task, -1, resource,
          static_cast<std::int64_t>(kind));
  }
  template <typename MakeDetail>
  void fail(DiagKind kind, int task, int resource, MakeDetail&& make_detail) {
    diagnose(kind, task, resource, make_detail);
    if (opt_.strict) RCARB_CHECK(false, result_.diagnostics.back().detail);
  }

  SystemSimulator& sim_;
  const tg::TaskGraph& graph_ = sim_.graph_;
  core::Binding& binding_ = sim_.binding_;  // remaps rewrite it
  core::ArbitrationPlan& plan_ = sim_.plan_;  // regenerated arbiters append
  SimOptions& opt_ = sim_.options_;
  std::vector<std::vector<std::int64_t>>& memory_ = sim_.memory_;
  const std::vector<TaskId>& tasks_;
  obs::TraceSink* const sink_ = opt_.trace_sink;
  const bool want_detail_ = opt_.diag_detail || opt_.strict;
  const bool degrade_on_ = opt_.degrade.enabled;
  const int num_res_ = static_cast<int>(binding_.num_resources());

  SimResult result_;
  std::vector<ArbiterRecord> arbs_;
  std::vector<TaskCtx> ctx_;
  std::vector<ChannelReg> chan_reg_;
  std::vector<NaiveReg> naive_reg_;
  // Per-cycle single-port usage: (bank or phys channel) -> first user task.
  std::vector<int> bank_user_;
  std::vector<int> chan_user_;

  std::uint64_t cycle_ = 0;
  std::uint64_t last_progress_cycle_ = 0;
  std::size_t finished_count_ = 0;
  std::size_t ready_ = 0;  // unstarted in-run tasks with waiting_on == 0
  // Set anywhere in the cycle that degradation affected service; cleared
  // after the serving-cycle accounting at the end of the cycle.
  bool degraded_cycle_ = false;

  // ---- Fault schedule, split by application point. ----
  std::vector<fault::FaultEvent> flips_;  // kFsmBitFlip, cycle-sorted
  std::vector<StuckWindow> stucks_;       // req/grant stuck-at windows
  // Per physical channel: armed corruption masks, cycle-sorted.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      chan_corrupt_;
  std::vector<std::size_t> chan_corrupt_next_;
  // Permanent faults: (cycle, resource id) activations and arbiter
  // latch-ups, applied by inject_faults() and never expiring.
  std::vector<std::pair<std::uint64_t, int>> perm_res_;
  std::vector<std::pair<std::uint64_t, std::size_t>> latchups_;
  std::size_t flip_next_ = 0;
  std::size_t perm_next_ = 0;
  std::size_t latch_next_ = 0;

  // ---- Degradation supervisor state. ----
  std::vector<QuarCtx> quar_;  // per resource
  // Resources whose hardware is permanently dead (injected kBankFailure /
  // kPermanentStuckChannel).  Maintained even with the supervisor off: the
  // stall-only baseline injects but never repairs.
  std::vector<char> res_failed_;
  // Old resource id -> live resource id after remaps (path-compressed).
  // Group-move remapping keeps this a function, so programs whose acquire/
  // release ops baked in a resource id keep working after the move.
  std::vector<int> resource_fwd_;
  degrade::StrikeTracker strike_tracker_;
};

SimResult SystemSimulator::run(const std::vector<TaskId>& tasks) {
  Engine engine(*this, tasks);
  while (engine.step()) {
  }
  return engine.finish();
}

}  // namespace rcarb::rcsim
