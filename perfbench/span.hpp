// In-memory span recorder for the traced benchmark run.
//
// A span brackets one call into a library layer: its name, start, end and
// the span that was open when it began (its parent).  Spans are kept in a
// vector and written out once, at the end of the run, as Chrome
// trace_event JSON.  A disabled Tracer records nothing: span() returns an
// inert guard, so the untraced run pays one branch per call site.
//
// Single-threaded by design: spans are opened and closed on the
// benchmark's main thread, around calls whose internal worker threads stay
// inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Closes its span when destroyed.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Opens a span named `name` (a string literal: it is stored by pointer)
  /// as a child of the innermost open span.
  [[nodiscard]] Span span(const char* name);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Per-name totals: how many spans, their summed duration, and their
  /// summed self time (duration minus the part covered by child spans).
  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Durations in seconds of every recorded span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Chrome trace_event JSON ("X" events, microsecond timestamps); each
  /// event's args carry its span id and its parent's (-1 for a root).
  void write_chrome(std::ostream& os) const;

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
  };
  [[nodiscard]] std::int64_t now_ns() const;
  void close(std::size_t index);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
};

}  // namespace perfbench
