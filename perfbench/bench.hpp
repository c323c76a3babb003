// Shared types of the wall-clock benchmark.
//
// Every number the benchmark reports carries a label: `host` (time or memory
// of the machine running the simulator), `sim` (a deterministic figure of
// the modelled hardware, which repeats exactly for a given seed) or
// `kernel-only` (host time of the netlist cycle loops alone, which leaves
// out everything else a caller pays for).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "span.hpp"

namespace perfbench {

enum class Label : std::uint8_t { kHost, kSim, kKernelOnly };

[[nodiscard]] const char* to_string(Label label);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Label label = Label::kHost;
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run the set-up phase only and report its time (run.py starts several
  /// such processes so that set-up, which warms process-wide memos, is
  /// sampled from a cold process each time).
  bool setup_only = false;
  int jobs = 1;  // worker threads the parallel layers may use
};

/// What one workload run produced.  `end_to_end` is filled by every run;
/// `per_layer` only by the traced run.
struct Outcome {
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Most calls one timed loop records.  The sample buffer is allocated and
/// touched in full before timing starts, so the benchmark's own memory does
/// not grow with the number of calls a faster build fits into the run and
/// peak_rss_mb stays the program's figure.
constexpr std::size_t kMaxOps = std::size_t{1} << 18;

/// Calls `op()` until `seconds` of wall time have passed and at least
/// `min_ops` calls were made (or kMaxOps were); returns each call's wall
/// time in seconds.
template <typename Op>
std::vector<double> timed_loop(double seconds, std::size_t min_ops, Op&& op) {
  std::vector<double> times(kMaxOps);
  std::size_t n = 0;
  const auto start = Clock::now();
  while (n < kMaxOps && (n < min_ops || seconds_since(start) < seconds)) {
    const auto t0 = Clock::now();
    op();
    times[n++] = seconds_since(t0);
  }
  times.resize(n);
  return times;
}

/// The percentile of per-call host time that end-to-end rates and
/// per-layer host times are taken at.  Shared hosts run in fast and slow
/// phases, from seconds to tens of seconds long, as other tenants load the
/// machine.  Over 10-second windows of 0.1 s service sessions on a 4-vCPU
/// Xeon VM, the median session time spread by 15-22% (quartile distance
/// over median) while the fastest sessions spread by 2-9%.  A low
/// percentile reads the program's speed in the quiet phase; medians and
/// tails are still reported, per layer.
constexpr double kQuietPercentile = 0.01;

[[nodiscard]] inline double quiet(std::vector<double> v) {
  return percentile(std::move(v), kQuietPercentile);
}

/// Per-call wall times of one workload operation.  `plain` ran with spans
/// off; `traced` (traced run only) with them on.
struct Passes {
  std::vector<double> plain;
  std::vector<double> traced;

  /// Host time of one call on a quiet host, untraced.
  [[nodiscard]] double quiet_plain() const { return quiet(plain); }
  /// The traced run's own cost, compared at the quiet percentile.
  [[nodiscard]] double trace_overhead() const {
    return quiet(traced) / quiet(plain) - 1.0;
  }
};

/// Runs `op(tracer)` for the run's measuring time.  Untraced, every call
/// runs with spans off.  Traced, calls alternate between spans off and
/// spans on, so both halves see the same host phases and their difference
/// is the tracing overhead; each half makes at least `min_ops` calls.
template <typename Op>
Passes measure(const RunConfig& cfg, Tracer& tracer, std::size_t min_ops,
               Op&& op) {
  Tracer off(false);
  std::size_t call = 0;
  std::vector<double> times =
      timed_loop(cfg.seconds, cfg.trace ? 2 * min_ops : min_ops, [&] {
        op(cfg.trace && call++ % 2 == 1 ? tracer : off);
      });
  Passes p;
  if (!cfg.trace) {
    p.plain = std::move(times);
    return p;
  }
  for (std::size_t i = 0; i < times.size(); ++i)
    (i % 2 == 1 ? p.traced : p.plain).push_back(times[i]);
  return p;
}

// One entry point per workload.  Each runs its set-up (timed into
// Outcome::setup_s), returns early under RunConfig::setup_only, then
// measures for RunConfig::seconds and checks every output it produced.
[[nodiscard]] Outcome run_replica_campaign(const RunConfig& cfg,
                                           Tracer& tracer);
[[nodiscard]] Outcome run_service_shed(const RunConfig& cfg, Tracer& tracer);
[[nodiscard]] Outcome run_fft_image(const RunConfig& cfg, Tracer& tracer);

}  // namespace perfbench
