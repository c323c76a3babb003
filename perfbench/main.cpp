// rcarb_perfbench: one wall-clock benchmark over every engine path.
//
//   rcarb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--setup-only] [--trace-out <file>]
//
// Prints a host fingerprint, every metric with its unit and label, and as
// its last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics untraced, the per-layer metrics traced.  With
// --setup-only it runs only the workload's set-up and prints
// {"setup_s": <seconds>}.  perfbench/run.py builds this binary and is the
// command to run; see perfbench/README.md.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/cpu.hpp"
#include "support/parallel.hpp"

#ifndef RCARB_PERFBENCH_BUILD_TYPE
#define RCARB_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const char* to_string(Label label) {
  switch (label) {
    case Label::kHost: return "host";
    case Label::kSim: return "sim";
    case Label::kKernelOnly: return "kernel-only";
  }
  return "?";
}

namespace {

struct Workload {
  const char* name;
  Outcome (*run)(const RunConfig&, Tracer&);
};

constexpr Workload kWorkloads[] = {
    {"replica_campaign", run_replica_campaign},
    {"service_shed", run_service_shed},
    {"fft_image", run_fft_image},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rcarb_perfbench: %s\nusage: rcarb_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--setup-only] [--trace-out <file>]\n",
               why);
  std::exit(2);
}

template <typename T>
T parse_number(const char* flag, const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end)
    usage((std::string("malformed value for ") + flag).c_str());
  return value;
}

/// Shortest text that reads back as the same double.
std::string num(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Peak resident set of this process so far, in MiB: VmHWM, which (unlike
/// getrusage's ru_maxrss) starts afresh at exec, so the launching process's
/// footprint does not leak into it.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

void print_host(int jobs) {
  const char* env_jobs = std::getenv("RCARB_JOBS");
  std::printf(
      "host {\"cpu\": %s, \"logical_cores\": %u, \"rcarb_jobs\": %s, "
      "\"jobs\": %d, \"simd_tier\": \"%s\", \"build_type\": \"%s\"}\n",
      quoted(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      env_jobs == nullptr ? "null" : quoted(env_jobs).c_str(), jobs,
      rcarb::to_string(rcarb::simd_tier()), RCARB_PERFBENCH_BUILD_TYPE);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-32s %16.6g %-8s [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), to_string(m.label));
}

void print_spans(const Tracer& tracer) {
  std::printf("spans (%zu recorded)\n  %-36s %8s %12s %12s\n", tracer.size(),
              "name", "count", "total_s", "self_s");
  for (const Tracer::SelfTime& t : tracer.self_times())
    std::printf("  %-36s %8zu %12.6f %12.6f\n", t.name.c_str(), t.count,
                t.total_s, t.self_s);
}

std::string result_json(const Outcome& out, const std::vector<Metric>& ms) {
  std::string json = std::string("{\"correct\": ") +
                     (out.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i)
    json += (i == 0 ? "" : ", ") + quoted(ms[i].name) + ": {\"value\": " +
            num(ms[i].value) + ", \"unit\": " + quoted(ms[i].unit) + "}";
  return json + "}}";
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Workload* workload = nullptr;
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      cfg.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, value) == 0) workload = &w;
      if (workload == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      cfg.seed = parse_number<std::uint64_t>("--seed", value);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = parse_number<double>("--seconds", value);
      if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
      have_seconds = true;
    } else if (arg == "--trace") {
      const int trace = parse_number<int>("--trace", value);
      if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
      cfg.trace = trace == 1;
      have_trace = true;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload == nullptr || !have_seed ||
      (!cfg.setup_only && (!have_seconds || !have_trace)))
    usage("--workload, --seed, --seconds and --trace are required");
  cfg.jobs = rcarb::parallel_jobs();

  Tracer tracer(cfg.trace);
  const Outcome out = workload->run(cfg, tracer);
  if (cfg.setup_only) {
    std::printf("{\"setup_s\": %s}\n", num(out.setup_s).c_str());
    return 0;
  }

  std::vector<Metric> end_to_end = out.end_to_end;
  end_to_end.push_back({"setup_s", out.setup_s, "s", Label::kHost});
  end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB", Label::kHost});
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name, static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  print_host(cfg.jobs);
  for (const std::string& note : out.notes)
    std::printf("note: %s\n", note.c_str());
  print_metrics(cfg.trace ? "end-to-end (traced run: not for comparison)"
                          : "end-to-end",
                end_to_end);
  std::vector<Metric> per_layer = out.per_layer;
  if (cfg.trace)
    per_layer.push_back({"trace.spans", static_cast<double>(tracer.size()),
                         "count", Label::kHost});
  print_metrics(cfg.trace ? "per-layer" : "per-layer (untraced subset)",
                per_layer);
  if (cfg.trace) {
    print_spans(tracer);
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      tracer.write_chrome(os);
      os.flush();
      if (!os) {
        std::fprintf(stderr, "rcarb_perfbench: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
      std::printf("trace: %s\n", trace_out.c_str());
    }
  }
  std::printf("%s\n",
              result_json(out, cfg.trace ? per_layer : end_to_end).c_str());
  return 0;
}
