/// \file perf_suite.cpp
/// The paper's section 1.5 performance-metric output for the whole suite:
/// busy time, elapsed time, busy/elapsed FLOP rates, FLOP count, memory
/// usage and communication-op count per benchmark (plus the per-segment
/// metrics the paper reports for lu/qr factor-solve and the timed code
/// segments of the application codes), and the arithmetic efficiency of
/// the linear-algebra group: FLOPs over busy core time times the measured
/// per-core peak.
///
/// `--smoke` runs one representative benchmark per group — a fast CI
/// smoke of the whole metric pipeline. When DPF_TRACE is enabled the run
/// also writes a Chrome trace-event timeline (DPF_TRACE_JSON, default
/// BENCH_trace.json) and prints the per-worker trace summary; it exits 1
/// when it cannot write the trace, so a CI step never passes without its
/// artifact. Timings are single runs: compare commits with perfbench.

#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/table_common.hpp"
#include "core/machine.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  dpf::register_all_benchmarks();
  using namespace dpf;
  const bool smoke = argc == 2 && std::strcmp(argv[1], "--smoke") == 0;
  if (argc > 1 && !smoke) {
    std::fprintf(stderr, "usage: perf_suite [--smoke]\n");
    return 2;
  }
  Machine& machine = Machine::instance();
  const double peak = machine.peak_mflops();
  const double core_peak = machine.core_peak_mflops();
  std::printf("machine: %d virtual processors, peak %.1f MFLOPS "
              "(%.1f per core x %d cores)\n",
              machine.vps(), peak, core_peak, machine.peak_cores());
  std::printf("vector units: %s\n", vec::enabled() ? "on" : "off");
  if (trace::mode() != trace::Mode::Off) trace::reset();

  bench::title("DPF performance metrics (section 1.5)");
  std::printf("%-20s %10s %10s %10s %10s %12s %10s %7s\n", "benchmark",
              "busy(s)", "elapsed(s)", "busyMF/s", "elapMF/s", "FLOPs",
              "mem(B)", "eff(%)");
  bench::rule(110);

  for (Group g : {Group::Communication, Group::LinearAlgebra,
                  Group::Application}) {
    for (const auto* def : Registry::instance().by_group(g)) {
      if (smoke && !in_smoke_set(def->name)) continue;
      const auto r = def->run_with_defaults(RunConfig{});
      const auto& m = r.metrics;
      const bool la = g == Group::LinearAlgebra;
      std::printf("%-20s %10.5f %10.5f %10.2f %10.2f %12lld %10lld",
                  def->name.c_str(), m.busy_seconds, m.elapsed_seconds,
                  m.busy_mflops(), m.elapsed_mflops(),
                  static_cast<long long>(m.flop_count),
                  static_cast<long long>(m.memory_bytes));
      if (la) {
        std::printf(" %7.2f", m.arithmetic_efficiency_pct(core_peak));
      }
      std::printf("\n");
      for (const auto& [seg, sm] : r.segments) {
        std::printf("  %-18s %10.5f %10.5f %10.2f %10.2f %12lld\n",
                    seg.c_str(), sm.busy_seconds, sm.elapsed_seconds,
                    sm.busy_mflops(), sm.elapsed_mflops(),
                    static_cast<long long>(sm.flop_count));
      }
    }
  }

  bool wrote = true;
  // With tracing enabled, export the whole run's timeline and print the
  // per-worker summary so CI artifacts carry a loadable trace.
  if (trace::mode() != trace::Mode::Off) {
    const auto snap = trace::collect();
    std::string trace_path = "BENCH_trace.json";
    if (const char* env = std::getenv("DPF_TRACE_JSON")) trace_path = env;
    if (trace::write_chrome_trace(trace_path, snap)) {
      std::printf("wrote %s (open in Perfetto)\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "perf_suite: cannot write %s\n",
                   trace_path.c_str());
      wrote = false;
    }
    std::printf("\n%s", trace::format_trace_summary(snap).c_str());
  }
  return wrote ? 0 : 1;
}
