/// \file dpfrun.cpp
/// Command-line driver for the suite — run any benchmark by name with
/// arbitrary parameters and print the paper's metrics:
///
///   dpfrun list [--long]
///   dpfrun info <benchmark>
///   dpfrun run <benchmark> [--version=basic|optimized|library|cmssl|cdpeac]
///                          [--vps=N] [--set key=value ...]
///                          [--trace FILE.json|FILE.csv]
///                          [--report comm|trace] [--checks-hex]
///
/// `--vps` takes a whole number in [1, 4096] (the DPF_VPS range) and every
/// `--set` value a whole number >= 0; anything else is a usage error (exit
/// 2) naming the flag. Keys a benchmark does not declare are passed through:
/// some runners read optional keys (qr's `dtype`, n-body's `variant`). A
/// value the runner cannot run (fft's n=3, qr's dtype=7) is a usage error
/// too: `dpfrun: <name>: <rule>`, exit 2. So is any argument after `list`
/// other than `--long`, and any after `info <name>`. An unknown benchmark
/// name exits with code 3 and a "did you mean" suggestion list. Any other
/// std::exception escaping the run prints `dpfrun: <name> failed: <what>`
/// and exits 1, and so does a run whose `residual` check is not within
/// 1e-3 of zero (NaN included). The metrics end with the arithmetic
/// efficiency (FLOPs over busy core time times the per-core peak), the
/// per-core peak, the cores the machine peak is scaled by, the peak
/// probe's wall time and the run's top-level SPMD regions: how many ran
/// inline on the dispatching thread, how many fanned out to the worker
/// pool and how many of those had to wake parked helpers (calibration and
/// the peak probe excluded). `--checks-hex` appends each check value's raw
/// IEEE-754 bit pattern to the output, the surface for bit-identity
/// comparisons across processes and modes.
///
/// `list --long` adds each benchmark's category (comm/la/app), problem-size
/// knobs and the default DPF_VPS. `--report comm` calibrates the fat-tree
/// cost model before the run and prints a per-pattern table of counts,
/// bytes, VP-crossing bytes and measured vs predicted communication time,
/// plus one line of exchange-plan memo counters (built / reused / evicted
/// during the run, calibration excluded), the predicted/measured ratio
/// over the timed events and the count of untimed (analytic) events,
/// which carry a prediction but no measured time; `--report trace` enables the
/// dpf::trace timeline and prints the per-worker busy/comm/idle summary.
/// `--trace FILE.json` records a full timeline and exports Chrome
/// trace-event JSON (open in Perfetto or chrome://tracing);
/// `--trace FILE.csv` keeps the CommLog CSV dump. A trace that cannot be
/// written prints `could not write trace to <path>` and exits 1 after the
/// report.
/// Combine with DPF_NET=overlap to price the message-passing formulation —
/// the comm report then adds the per-pattern `overlap s` column (time
/// payload sat in flight behind caller compute) and a split-phase event
/// summary.
///
/// Examples:
///   dpfrun run conj-grad --set n=4096 --version=optimized
///   dpfrun run fft --set n=1024 --set dims=2 --vps=8
///   dpfrun run lu --trace lu.json
///   DPF_NET=overlap dpfrun run transpose --vps=16 --report comm
///   DPF_NET=overlap dpfrun run fem-3D --vps=16 --report comm

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/detail.hpp"
#include "core/machine.hpp"
#include "core/registry.hpp"
#include "net/exchange_plan.hpp"
#include "net/net.hpp"
#include "suite/register_all.hpp"
#include "trace/chrome_export.hpp"
#include "trace/summary.hpp"
#include "trace/trace.hpp"

namespace {

using namespace dpf;

const char* group_short(Group g) {
  switch (g) {
    case Group::Communication: return "comm";
    case Group::LinearAlgebra: return "la";
    case Group::Application: return "app";
  }
  return "?";
}

int cmd_list(bool long_mode) {
  for (Group g : {Group::Communication, Group::LinearAlgebra,
                  Group::Application}) {
    std::printf("[%s]\n", std::string(to_string(g)).c_str());
    for (const auto* def : Registry::instance().by_group(g)) {
      std::string versions;
      for (Version v : def->versions) {
        if (!versions.empty()) versions += ", ";
        versions += std::string(to_string(v));
      }
      if (!long_mode) {
        std::printf("  %-20s versions: %s\n", def->name.c_str(),
                    versions.c_str());
        continue;
      }
      std::string knobs;
      for (const auto& [k, v] : def->default_params) {
        if (!knobs.empty()) knobs += " ";
        knobs += k + "=" + std::to_string(static_cast<long long>(v));
      }
      std::printf("  %-20s [%-4s] knobs: %-40s default vps: %d\n",
                  def->name.c_str(), group_short(def->group), knobs.c_str(),
                  Machine::default_vps());
      std::printf("  %-20s        versions: %s\n", "", versions.c_str());
    }
  }
  if (long_mode) {
    std::printf(
        "\nnet knob (current value):\n"
        "  DPF_NET=%s  direct|overlap formulation\n",
        net::mode_name(net::mode()));
  }
  return 0;
}

/// Exit code for a benchmark name the registry does not know — distinct
/// from 2 (usage error) so scripts can tell a typo from a bad flag.
constexpr int kExitUnknownBenchmark = 3;

int unknown_benchmark(const std::string& name) {
  const auto suggestions = Registry::instance().suggest(name);
  std::string hint;
  for (const auto& s : suggestions) {
    hint += hint.empty() ? "" : ", ";
    hint += s;
  }
  if (hint.empty()) {
    std::fprintf(stderr, "unknown benchmark '%s' (try: dpfrun list)\n",
                 name.c_str());
  } else {
    std::fprintf(stderr,
                 "unknown benchmark '%s' (did you mean: %s?) "
                 "(try: dpfrun list)\n",
                 name.c_str(), hint.c_str());
  }
  return kExitUnknownBenchmark;
}

int cmd_info(const std::string& name) {
  const auto* def = Registry::instance().find(name);
  if (def == nullptr) return unknown_benchmark(name);
  std::printf("%s  [%s]\n", def->name.c_str(),
              std::string(to_string(def->group)).c_str());
  std::printf("  layouts      : ");
  for (const auto& l : def->layouts) std::printf("%s  ", l.c_str());
  std::printf("\n  local access : %s\n",
              std::string(to_string(def->local_access)).c_str());
  if (!def->paper_flops.empty()) {
    std::printf("  paper FLOPs  : %s\n", def->paper_flops.c_str());
  }
  if (!def->paper_memory.empty()) {
    std::printf("  paper memory : %s\n", def->paper_memory.c_str());
  }
  if (!def->paper_comm.empty()) {
    std::printf("  paper comm   : %s\n", def->paper_comm.c_str());
  }
  std::printf("  defaults     : ");
  for (const auto& [k, v] : def->default_params) {
    std::printf("%s=%lld ", k.c_str(), static_cast<long long>(v));
  }
  std::printf("\n");
  for (const auto& [pattern, technique] : def->techniques) {
    std::printf("  technique    : %-20s %s\n", pattern.c_str(),
                technique.c_str());
  }
  return 0;
}

bool parse_version(const std::string& s, Version& out) {
  if (s == "basic") out = Version::Basic;
  else if (s == "optimized") out = Version::Optimized;
  else if (s == "library") out = Version::Library;
  else if (s == "cmssl") out = Version::CMSSL;
  else if (s == "cdpeac") out = Version::CDpeac;
  else return false;
  return true;
}

/// Parses all of `s` as a decimal integer in [lo, hi].
bool parse_whole(const std::string& s, long long lo, long long hi,
                 long long& out) {
  if (s.empty() || (s[0] != '-' && (s[0] < '0' || s[0] > '9'))) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  out = v;
  return true;
}

/// The raw IEEE-754 bit pattern of `v` as 16 hex digits.
std::string double_bits_hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

int cmd_run(const std::string& name, const std::vector<std::string>& args) {
  const auto* def = Registry::instance().find(name);
  if (def == nullptr) return unknown_benchmark(name);
  RunConfig cfg;
  std::string trace_path;
  bool report_comm = false;
  bool report_trace = false;
  bool checks_hex = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--checks-hex") {
      checks_hex = true;
    } else if (a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(8);
    } else if (a == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (a.rfind("--report=", 0) == 0 ||
               (a == "--report" && i + 1 < args.size())) {
      const std::string what =
          a == "--report" ? args[++i] : a.substr(9);
      if (what == "comm") {
        report_comm = true;
      } else if (what == "trace") {
        report_trace = true;
      } else {
        std::fprintf(stderr,
                     "unknown report '%s' (supported: comm, trace)\n",
                     what.c_str());
        return 2;
      }
    } else if (a.rfind("--version=", 0) == 0) {
      if (!parse_version(a.substr(10), cfg.version)) {
        std::fprintf(stderr, "bad version '%s'\n", a.c_str());
        return 2;
      }
    } else if (a.rfind("--vps=", 0) == 0) {
      long long vps = 0;
      if (!parse_whole(a.substr(6), 1, 4096, vps)) {
        std::fprintf(stderr,
                     "dpfrun: --vps expects a whole number in [1, 4096], "
                     "got '%s'\n",
                     a.c_str() + 6);
        return 2;
      }
      Machine::instance().configure(static_cast<int>(vps));
    } else if (a == "--set" && i + 1 < args.size()) {
      const std::string kv = args[++i];
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--set expects key=value, got '%s'\n",
                     kv.c_str());
        return 2;
      }
      const std::string key = kv.substr(0, eq);
      long long value = 0;
      if (!parse_whole(kv.substr(eq + 1), 0, INT64_MAX, value)) {
        std::fprintf(stderr,
                     "dpfrun: --set %s expects a whole number >= 0, got "
                     "'%s'\n",
                     key.c_str(), kv.c_str() + eq + 1);
        return 2;
      }
      cfg.params[key] = value;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (!def->has_version(cfg.version)) {
    std::fprintf(stderr, "note: '%s' does not declare a %s version; "
                         "running it anyway (falls back to basic path)\n",
                 name.c_str(), std::string(to_string(cfg.version)).c_str());
  }

  // A .csv trace is the CommLog event dump; anything else is a Chrome
  // trace-event JSON timeline, which needs full tracing during the run.
  const bool chrome_trace =
      !trace_path.empty() &&
      (trace_path.size() < 4 ||
       trace_path.compare(trace_path.size() - 4, 4, ".csv") != 0);
  if (chrome_trace) trace::set_mode(trace::Mode::Full);
  if (report_trace && trace::mode() == trace::Mode::Off) {
    trace::set_mode(trace::Mode::Summary);
  }
  // Read DPF_NET once up front: a retired or unrecognized value is then
  // reported even by a benchmark whose data never moves through dpf::comm.
  static_cast<void>(net::mode());

  // Calibrate the cost model before the run so every recorded event carries
  // a prediction alongside its measured time.
  if (report_comm || report_trace || chrome_trace) net::calibrate();

  if (!trace_path.empty()) CommLog::instance().reset();
  if (chrome_trace || report_trace) trace::reset();
  // Plan-, owner-table- and count-memo counters and region counts over the
  // run alone, not the calibration above or the peak probe below.
  Machine& machine = Machine::instance();
  const MemoStats plans0 = net::plan_memo().stats();
  const MemoStats owners0 = comm::detail::owner_table_memo().stats();
  const MemoStats counts0 = comm::detail::count_memo().stats();
  const Machine::RegionCounts regions0 = machine.region_counts();
  const auto r = def->run_with_defaults(cfg);
  const Machine::RegionCounts regions1 = machine.region_counts();
  const MemoStats plans1 = net::plan_memo().stats();
  const MemoStats owners1 = comm::detail::owner_table_memo().stats();
  const MemoStats counts1 = comm::detail::count_memo().stats();
  // Flush the timeline once, before the peak probe below can append its
  // own region to the rings.
  trace::Snapshot trace_snap;
  if (chrome_trace || report_trace) trace_snap = trace::collect();
  bool trace_written = true;
  if (chrome_trace) {
    trace_written = trace::write_chrome_trace(trace_path, trace_snap);
    if (trace_written) {
      std::printf("timeline trace written to %s (open in Perfetto)\n",
                  trace_path.c_str());
    }
  } else if (!trace_path.empty()) {
    trace_written = CommLog::instance().dump_csv(trace_path);
    if (trace_written) {
      std::printf("communication trace written to %s\n", trace_path.c_str());
    }
  }
  if (!trace_written) {
    std::fprintf(stderr, "could not write trace to %s\n", trace_path.c_str());
  }
  const double core_peak = machine.core_peak_mflops();
  const auto print_efficiency = [&](const Metrics& m) {
    std::printf("  arithmetic efficiency  : %.2f%% of the per-core peak "
                "over busy core time\n",
                m.arithmetic_efficiency_pct(core_peak));
  };
  std::printf("%s", format_metrics(name, r.metrics).c_str());
  print_efficiency(r.metrics);
  std::printf("  per-core peak (MFLOPS) : %.1f\n", core_peak);
  std::printf("  peak (MFLOPS)          : %.1f on %d cores\n",
              machine.peak_mflops(), machine.peak_cores());
  std::printf("  peak probe (sec.)      : %.6f\n",
              machine.peak_probe_seconds());
  const auto region_delta = [](std::uint64_t before, std::uint64_t after) {
    return static_cast<unsigned long long>(after - before);
  };
  const unsigned long long inlined =
      region_delta(regions0.inlined, regions1.inlined);
  const unsigned long long fanned =
      region_delta(regions0.fanned_out, regions1.fanned_out);
  std::printf("  regions                : %llu (%llu inline, %llu fanned out, "
              "%llu woke parked helpers)\n",
              inlined + fanned, inlined, fanned,
              region_delta(regions0.woke, regions1.woke));
  for (const auto& [seg, m] : r.segments) {
    std::printf("\n%s", format_metrics("segment " + seg, m).c_str());
    print_efficiency(m);
  }
  std::printf("\nchecks:\n");
  for (const auto& [k, v] : r.checks) {
    std::printf("  %-22s %.8g\n", k.c_str(), v);
  }
  if (checks_hex) {
    // Raw IEEE-754 bit patterns: the exact comparison surface for the
    // cross-process bit-identity tests.
    std::printf("\nchecks-hex:\n");
    for (const auto& [k, v] : r.checks) {
      std::printf("  %-22s %s\n", k.c_str(), double_bits_hex(v).c_str());
    }
  }
  if (report_comm) {
    struct Agg {
      long long count = 0;
      long long split = 0;
      long long bytes = 0;
      long long offproc = 0;
      double seconds = 0.0;
      double overlap = 0.0;
      double predicted = 0.0;
    };
    std::map<CommKey, Agg> table;
    for (const CommEvent& e : r.metrics.comm_events) {
      Agg& a = table[CommKey{e.pattern, e.src_rank, e.dst_rank}];
      ++a.count;
      if (e.split_phase) ++a.split;
      a.bytes += e.bytes;
      a.offproc += e.offproc_bytes;
      a.seconds += e.seconds;
      a.overlap += e.overlap_seconds;
      a.predicted += e.predicted_seconds;
    }
    std::printf("\ncommunication report (DPF_NET=%s, %d VPs):\n",
                net::mode_name(net::mode()), Machine::instance().vps());
    const auto ts = net::transport().stats();
    std::printf("  transport traffic      : %llu messages, %llu bytes\n",
                static_cast<unsigned long long>(ts.messages),
                static_cast<unsigned long long>(ts.bytes));
    const auto memo_line = [](const char* what, const MemoStats& before,
                              const MemoStats& after) {
      std::printf("  %-23s: %llu built, %llu reused, %llu evicted\n", what,
                  static_cast<unsigned long long>(after.built - before.built),
                  static_cast<unsigned long long>(after.reused -
                                                  before.reused),
                  static_cast<unsigned long long>(after.evicted -
                                                  before.evicted));
    };
    memo_line("exchange plans", plans0, plans1);
    memo_line("owner tables", owners0, owners1);
    memo_line("offproc counts", counts0, counts1);
    std::printf("  %-20s %5s %8s %12s %12s %12s %12s %12s %8s\n", "pattern",
                "ranks", "count", "bytes", "offproc B", "measured s",
                "overlap s", "predicted s", "ovl eff");
    // Overlap efficiency: seconds the payload flew behind compute per
    // second the model says the exchange needs — window utilization
    // without opening a Chrome trace. "-" when nothing was predicted.
    const auto eff = [](double overlap, double predicted) {
      char buf[16];
      if (predicted > 0.0) {
        std::snprintf(buf, sizeof buf, "%7.2f", overlap / predicted);
      } else {
        std::snprintf(buf, sizeof buf, "%7s", "-");
      }
      return std::string(buf);
    };
    Agg total;
    for (const auto& [key, a] : table) {
      std::printf(
          "  %-20s %2d->%-2d %8lld %12lld %12lld %12.6f %12.6f %12.6f %8s\n",
          std::string(to_string(key.pattern)).c_str(), key.src_rank,
          key.dst_rank, a.count, a.bytes, a.offproc, a.seconds, a.overlap,
          a.predicted, eff(a.overlap, a.predicted).c_str());
      total.count += a.count;
      total.split += a.split;
      total.bytes += a.bytes;
      total.offproc += a.offproc;
      total.seconds += a.seconds;
      total.overlap += a.overlap;
      total.predicted += a.predicted;
    }
    std::printf("  %-20s %5s %8lld %12lld %12lld %12.6f %12.6f %12.6f %8s\n",
                "total", "", total.count, total.bytes, total.offproc,
                total.seconds, total.overlap, total.predicted,
                eff(total.overlap, total.predicted).c_str());
    if (total.split > 0) {
      std::printf(
          "  split-phase events     : %lld (%.6f s in flight behind "
          "compute)\n",
          total.split, total.overlap);
    }
    // The ratio compares timed events only: an analytic record carries a
    // prediction but no measured time, so it would inflate the numerator.
    long long timed = 0;
    double timed_seconds = 0.0;
    double timed_predicted = 0.0;
    for (const CommEvent& e : r.metrics.comm_events) {
      if (e.seconds <= 0.0) continue;
      ++timed;
      timed_seconds += e.seconds;
      timed_predicted += e.predicted_seconds;
    }
    if (timed_seconds > 0.0 && timed_predicted > 0.0) {
      std::printf("  predicted/measured     : %.2fx over %lld timed events\n",
                  timed_predicted / timed_seconds, timed);
    }
    std::printf("  untimed events         : %lld of %lld\n",
                total.count - timed, total.count);
  } else {
    std::printf("\ncommunication (pattern, src rank -> dst rank: count):\n");
    for (const auto& [key, count] : r.metrics.comm_counts()) {
      std::printf("  %-20s %d -> %d: %lld\n",
                  std::string(to_string(key.pattern)).c_str(), key.src_rank,
                  key.dst_rank, static_cast<long long>(count));
    }
  }
  if (report_trace) {
    std::printf("\n%s", trace::format_trace_summary(trace_snap).c_str());
  }
  if (!trace_written) return 1;
  // A residual fails the run unless it is a number within 1e-3 of zero:
  // NaN fails too.
  const auto it = r.checks.find("residual");
  if (it != r.checks.end() && !(std::abs(it->second) <= 1e-3)) {
    std::fprintf(stderr, "dpfrun: %s: residual %g is not within 1e-3\n",
                 name.c_str(), it->second);
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr, "usage: dpfrun list [--long] | info <name> | "
                       "run <name> [options]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dpf::register_all_benchmarks();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "list" && argc == 2) return cmd_list(false);
  if (cmd == "list" && argc == 3 && std::strcmp(argv[2], "--long") == 0) {
    return cmd_list(true);
  }
  if (cmd == "info" && argc == 3) return cmd_info(argv[2]);
  if (cmd == "run" && argc >= 3) {
    std::vector<std::string> args;
    for (int i = 3; i < argc; ++i) args.emplace_back(argv[i]);
    try {
      return cmd_run(argv[2], args);
    } catch (const std::invalid_argument& e) {
      // A runner rejected a --set value it cannot run (fft's n=3): a usage
      // error, like a malformed flag.
      std::fprintf(stderr, "dpfrun: %s: %s\n", argv[2], e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dpfrun: %s failed: %s\n", argv[2], e.what());
      return 1;
    }
  }
  return usage();
}
