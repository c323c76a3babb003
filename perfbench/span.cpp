#include "span.hpp"

#include <iomanip>
#include <map>

namespace perfbench {

namespace {
constexpr std::size_t kInert = static_cast<std::size_t>(-1);
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Span Tracer::span(const char* name) {
  if (!enabled_) return Span(nullptr, kInert);
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back({name, now_ns(), -1, parent});
  open_.push_back(spans_.size() - 1);
  return Span(this, spans_.size() - 1);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Guards are scoped, so spans close innermost first.
  open_.pop_back();
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Record& r : spans_)
    if (r.parent >= 0)
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    SelfTime& t = by_name[r.name];
    t.name = r.name;
    ++t.count;
    t.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    t.self_s += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-9;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : spans_)
    if (name == r.name)
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
  return out;
}

void Tracer::write_chrome(std::ostream& os) const {
  os << std::fixed << std::setprecision(3)
     << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(r.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
