/// \file perf_suite.cpp
/// The paper's section 1.5 performance-metric output for the whole suite:
/// busy time, elapsed time, busy/elapsed FLOP rates, FLOP count, memory
/// usage and communication-op count per benchmark (plus the per-segment
/// metrics the paper reports for lu/qr factor-solve and the timed code
/// segments of the application codes), and the arithmetic efficiency of
/// the linear-algebra group against the calibrated machine peak.
///
/// Besides the human-readable table, the suite emits machine-readable
/// results to BENCH_perf.json (override the path with DPF_BENCH_JSON or
/// argv[1]) so the perf trajectory across PRs is diffable. It exits 1 when
/// it cannot write that file or the trace below, so a CI step never passes
/// without its artifact.
///
/// `--smoke` runs one representative benchmark per group — a fast CI
/// smoke of the whole metric pipeline. `--only a,b,c` restricts the run to
/// the named benchmarks (the CI perf gate measures the comm-bound four
/// this way). `--reps N` runs each benchmark N
/// times and reports the best-of-N (minimum elapsed) repetition — the
/// timings at default sizes are milliseconds, so best-of-N is what makes
/// A/B comparisons (e.g. DPF_SIMD on vs off) stable. When DPF_TRACE is
/// enabled the run additionally writes a Chrome trace-event timeline
/// (DPF_TRACE_JSON, or BENCH_trace.json next to the perf JSON) and prints
/// the per-worker trace summary.

#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench/table_common.hpp"
#include "core/machine.hpp"
#include "net/net.hpp"
#include "vec/vec.hpp"
#include "trace/chrome_export.hpp"
#include "trace/summary.hpp"
#include "trace/trace.hpp"

namespace {

// One fast benchmark per group for --smoke.
constexpr const char* kSmokeSet[] = {"reduction", "lu", "diff-1D"};

bool in_smoke_set(const std::string& name) {
  for (const char* s : kSmokeSet) {
    if (name == s) return true;
  }
  return false;
}

struct Row {
  std::string name;
  std::string group;
  dpf::Metrics metrics;
  std::vector<std::pair<std::string, dpf::Metrics>> segments;
};

void json_metrics(std::FILE* f, const dpf::Metrics& m) {
  std::fprintf(f,
               "\"busy_s\": %.9f, \"elapsed_s\": %.9f, "
               "\"busy_mflops\": %.3f, \"elapsed_mflops\": %.3f, "
               "\"flops\": %lld, \"mem_bytes\": %lld, \"comm_ops\": %lld",
               m.busy_seconds, m.elapsed_seconds, m.busy_mflops(),
               m.elapsed_mflops(), static_cast<long long>(m.flop_count),
               static_cast<long long>(m.memory_bytes),
               static_cast<long long>(m.comm_op_count()));
}

void cannot_write(const std::string& path) {
  std::fprintf(stderr, "perf_suite: cannot write %s\n", path.c_str());
}

/// Writes the results JSON; false (with a message) when the file cannot be
/// written.
bool write_json(const std::string& path, int vps, double peak,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    cannot_write(path);
    return false;
  }
  std::fprintf(f,
               "{\n  \"schema_version\": 2,\n"
               "  \"machine\": {\"vps\": %d, \"peak_mflops\": %.1f, "
               "\"simd\": %s, \"net_mode\": \"%s\"},\n",
               vps, peak, dpf::vec::enabled() ? "true" : "false",
               dpf::net::mode_name(dpf::net::mode()));
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"group\": \"%s\", ",
                 r.name.c_str(), r.group.c_str());
    json_metrics(f, r.metrics);
    if (!r.segments.empty()) {
      std::fprintf(f, ", \"segments\": {");
      for (std::size_t s = 0; s < r.segments.size(); ++s) {
        std::fprintf(f, "%s\"%s\": {", s ? ", " : "",
                     r.segments[s].first.c_str());
        json_metrics(f, r.segments[s].second);
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::fclose(f) != 0) {
    cannot_write(path);
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  dpf::register_all_benchmarks();
  using namespace dpf;
  bool smoke = false;
  int reps = 1;
  const char* path_arg = nullptr;
  std::set<std::string> only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
      if (reps < 1) reps = 1;
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      // Comma-separated benchmark names; everything else is skipped (the
      // perf regression gate measures just the comm-bound set).
      std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > pos) only.insert(list.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      path_arg = argv[i];
    }
  }
  const double peak = Machine::instance().peak_mflops();
  std::printf("machine: %d virtual processors, calibrated peak %.1f MFLOPS\n",
              Machine::instance().vps(), peak);
  std::printf("vector units: %s%s\n", vec::enabled() ? "on" : "off",
              reps > 1 ? ", best-of-N repetitions" : "");
  if (trace::mode() != trace::Mode::Off) trace::reset();

  bench::title("DPF performance metrics (section 1.5)");
  std::printf("%-20s %10s %10s %10s %10s %12s %10s %7s\n", "benchmark",
              "busy(s)", "elapsed(s)", "busyMF/s", "elapMF/s", "FLOPs",
              "mem(B)", "eff(%)");
  bench::rule(110);

  std::vector<Row> rows;
  for (Group g : {Group::Communication, Group::LinearAlgebra,
                  Group::Application}) {
    for (const auto* def : Registry::instance().by_group(g)) {
      if (smoke && !in_smoke_set(def->name)) continue;
      if (!only.empty() && only.find(def->name) == only.end()) continue;
      auto r = def->run_with_defaults(RunConfig{});
      for (int rep = 1; rep < reps; ++rep) {
        auto rr = def->run_with_defaults(RunConfig{});
        if (rr.metrics.elapsed_seconds < r.metrics.elapsed_seconds) {
          r = std::move(rr);
        }
      }
      const auto& m = r.metrics;
      const bool la = g == Group::LinearAlgebra;
      std::printf("%-20s %10.5f %10.5f %10.2f %10.2f %12lld %10lld",
                  def->name.c_str(), m.busy_seconds, m.elapsed_seconds,
                  m.busy_mflops(), m.elapsed_mflops(),
                  static_cast<long long>(m.flop_count),
                  static_cast<long long>(m.memory_bytes));
      if (la) {
        std::printf(" %7.2f", m.arithmetic_efficiency_pct(peak));
      }
      std::printf("\n");
      Row row{def->name, std::string(to_string(g)), m, {}};
      for (const auto& [seg, sm] : r.segments) {
        std::printf("  %-18s %10.5f %10.5f %10.2f %10.2f %12lld\n",
                    seg.c_str(), sm.busy_seconds, sm.elapsed_seconds,
                    sm.busy_mflops(), sm.elapsed_mflops(),
                    static_cast<long long>(sm.flop_count));
        row.segments.emplace_back(seg, sm);
      }
      rows.push_back(std::move(row));
    }
  }

  std::string json_path = "BENCH_perf.json";
  if (const char* env = std::getenv("DPF_BENCH_JSON")) json_path = env;
  if (path_arg != nullptr) json_path = path_arg;
  bool wrote = write_json(json_path, Machine::instance().vps(), peak, rows);

  // With tracing enabled, export the whole run's timeline and print the
  // per-worker summary so CI artifacts carry a loadable trace.
  if (trace::mode() != trace::Mode::Off) {
    auto snap = trace::collect();
    dpf::net::merge_router_trace(snap);  // shm backend router tracks, if any
    std::string trace_path = "BENCH_trace.json";
    if (const char* env = std::getenv("DPF_TRACE_JSON")) trace_path = env;
    if (trace::write_chrome_trace(trace_path, snap)) {
      std::printf("wrote %s (open in Perfetto)\n", trace_path.c_str());
    } else {
      cannot_write(trace_path);
      wrote = false;
    }
    std::printf("\n%s", trace::format_trace_summary(snap).c_str());
  }
  return wrote ? 0 : 1;
}
