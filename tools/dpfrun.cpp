/// \file dpfrun.cpp
/// Command-line driver for the suite — run any benchmark by name with
/// arbitrary parameters and print the paper's metrics:
///
///   dpfrun list [--long]
///   dpfrun info <benchmark>
///   dpfrun run <benchmark> [--version=basic|optimized|library|cmssl|cdpeac]
///                          [--vps=N] [--set key=value ...]
///                          [--trace FILE.json|FILE.csv]
///                          [--report comm|trace|tune] [--checks-hex]
///   dpfrun --daemon[=SOCKET] run <benchmark> [run options]
///                                [--no-cache] [--timeout=SECONDS]
///   dpfrun --daemon[=SOCKET] ping | stats | drain
///
/// `--daemon` routes the command to a running dpfd (tools/dpfd.cpp) over
/// its Unix socket instead of executing in-process: the submit carries the
/// caller's DPF_NET / DPF_NET_BACKEND / DPF_SIMD / ... environment knobs,
/// the daemon runs the job on its warm machine (or serves it straight from
/// the content-addressed result store) and streams the frames back. Exit
/// code 4 means the daemon was unreachable. `--checks-hex` appends each
/// check value's raw IEEE-754 bit pattern to the output — the bit-identity
/// comparison surface used to prove daemon-served results match one-shot
/// runs exactly.
///
/// An unknown benchmark name exits with code 3 and a "did you mean"
/// suggestion list (distinct from 2, the usage-error exit).
///
/// `list --long` adds each benchmark's category (comm/la/app), problem-size
/// knobs and the default DPF_VPS. `--report comm` calibrates the fat-tree
/// cost model before the run and prints a per-pattern table of counts,
/// bytes, VP-crossing bytes and measured vs predicted communication time,
/// plus one line of exchange-plan memo counters (built / reused / evicted
/// during the run, calibration excluded); `--report trace` enables the
/// dpf::trace timeline and prints the per-worker busy/comm/idle summary.
/// `--trace FILE.json` records a full timeline and exports Chrome
/// trace-event JSON (open in Perfetto or chrome://tracing);
/// `--trace FILE.csv` keeps the CommLog CSV dump.
/// Combine with DPF_NET=algorithmic to price the message-passing
/// formulations, or DPF_NET=overlap for the split-phase variants — the
/// comm report then adds the per-pattern `overlap s` column (time payload
/// sat in flight behind caller compute) and a split-phase event summary.
/// DPF_NET_BACKEND=shm routes the messages through the multi-process
/// shared-memory transport; the comm report header names the backend and
/// adds a router-pod status line, and a Chrome trace gains one "dpf net"
/// track per router process with its delivery spans.
///
/// DPF_NET=auto hands the mode decision to the dpf::tune autotuner: the
/// cost model is calibrated, a short probe pass picks a mode per (pattern
/// class, message size) cell, and the run dispatches through the resulting
/// decision table. `--report tune` prints that table — chosen vs
/// alternatives with predicted and measured costs per cell — after the run.
///
/// Examples:
///   dpfrun run conj-grad --set n=4096 --version=optimized
///   dpfrun run fft --set n=1024 --set dims=2 --vps=8
///   dpfrun run lu --trace lu.json
///   DPF_NET=algorithmic dpfrun run transpose --vps=16 --report comm
///   DPF_NET=overlap dpfrun run fem-3D --vps=16 --report comm
///   DPF_NET=algorithmic DPF_NET_BACKEND=shm dpfrun run fft --report comm

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "comm/detail.hpp"
#include "core/machine.hpp"
#include "core/registry.hpp"
#include "net/exchange_plan.hpp"
#include "net/net.hpp"
#include "net/proc.hpp"
#include "net/tune.hpp"
#include "net/shm_transport.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "suite/register_all.hpp"
#include "trace/chrome_export.hpp"
#include "trace/summary.hpp"
#include "trace/trace.hpp"
#include "vec/vec.hpp"

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
        "\nnet knobs (current values):\n"
        "  DPF_NET=%s          direct|algorithmic|overlap|auto formulation\n"
        "  DPF_NET_BACKEND=%s  local|shm transport (shm = multi-process "
        "router pod)\n"
        "  DPF_NET_PROCS=%d    router processes for the shm backend "
        "(0 = self-delivery)\n"
        "  DPF_NET_SHM_RING    per-pair ring bytes for the shm backend "
        "(default 4 MiB)\n",
        net::mode_label(), net::backend_name(net::backend()),
        net::proc::env_procs(Machine::instance().vps()));
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

int cmd_run(const std::string& name, const std::vector<std::string>& args) {
  const auto* def = Registry::instance().find(name);
  if (def == nullptr) return unknown_benchmark(name);
  RunConfig cfg;
  std::string trace_path;
  bool report_comm = false;
  bool report_trace = false;
  bool report_tune = false;
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
      } else if (what == "tune") {
        report_tune = true;
      } else {
        std::fprintf(stderr,
                     "unknown report '%s' (supported: comm, trace, tune)\n",
                     what.c_str());
        return 2;
      }
    } else if (a.rfind("--version=", 0) == 0) {
      if (!parse_version(a.substr(10), cfg.version)) {
        std::fprintf(stderr, "bad version '%s'\n", a.c_str());
        return 2;
      }
    } else if (a.rfind("--vps=", 0) == 0) {
      Machine::instance().configure(std::atoi(a.c_str() + 6));
    } else if (a == "--set" && i + 1 < args.size()) {
      const std::string kv = args[++i];
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--set expects key=value, got '%s'\n",
                     kv.c_str());
        return 2;
      }
      cfg.params[kv.substr(0, eq)] = std::atoll(kv.c_str() + eq + 1);
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

  // Calibrate the cost model before the run so every recorded event carries
  // a prediction alongside its measured time. Tuned runs calibrate too —
  // the tuner cross-checks model predictions against its measured probes.
  if (report_comm || report_trace || chrome_trace || report_tune ||
      net::auto_enabled()) {
    net::calibrate();
  }
  if (report_tune || net::auto_enabled()) {
    // Probe the decision table eagerly, outside the measured run. The SIMD
    // recommendation is applied only when the user has not pinned DPF_SIMD
    // themselves — an explicit knob always wins over the tuner.
    net::Tuner::instance().ensure();
    if (net::auto_enabled() && std::getenv("DPF_SIMD") == nullptr &&
        net::Tuner::instance().ready()) {
      vec::set_enabled(net::Tuner::instance().table().simd_on);
    }
  }

  if (!trace_path.empty()) CommLog::instance().reset();
  if (chrome_trace || report_trace) trace::reset();
  // Plan- and owner-table-memo counters over the run alone, not the
  // calibration above.
  const MemoStats plans0 = net::plan_memo().stats();
  const MemoStats owners0 = comm::detail::owner_table_memo().stats();
  const auto r = def->run_with_defaults(cfg);
  const MemoStats plans1 = net::plan_memo().stats();
  const MemoStats owners1 = comm::detail::owner_table_memo().stats();
  // Flush the timeline once, before the peak-MFLOPS calibration below can
  // append its own regions to the rings. The shm backend's router-process
  // delivery timelines merge in as external tracks.
  trace::Snapshot trace_snap;
  if (chrome_trace || report_trace) {
    trace_snap = trace::collect();
    net::merge_router_trace(trace_snap);
  }
  if (chrome_trace) {
    if (trace::write_chrome_trace(trace_path, trace_snap)) {
      std::printf("timeline trace written to %s (open in Perfetto)\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "could not write trace to %s\n",
                   trace_path.c_str());
    }
  } else if (!trace_path.empty()) {
    if (CommLog::instance().dump_csv(trace_path)) {
      std::printf("communication trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "could not write trace to %s\n",
                   trace_path.c_str());
    }
  }
  std::printf("%s", format_metrics(name, r.metrics).c_str());
  const double peak = Machine::instance().peak_mflops();
  std::printf("  arithmetic efficiency  : %.2f%% of %.0f MFLOPS peak\n",
              r.metrics.arithmetic_efficiency_pct(peak), peak);
  for (const auto& [seg, m] : r.segments) {
    std::printf("\n%s", format_metrics("segment " + seg, m).c_str());
  }
  std::printf("\nchecks:\n");
  for (const auto& [k, v] : r.checks) {
    std::printf("  %-22s %.8g\n", k.c_str(), v);
  }
  if (checks_hex) {
    // Raw IEEE-754 bit patterns: the exact comparison surface for the
    // daemon-vs-standalone bit-identity tests.
    std::printf("\nchecks-hex:\n");
    for (const auto& [k, v] : r.checks) {
      std::printf("  %-22s %s\n", k.c_str(),
                  serve::double_to_hex(v).c_str());
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
    net::Transport& tp = net::transport();
    std::printf(
        "\ncommunication report (DPF_NET=%s, backend %s, transport %s, "
        "%d VPs):\n",
        net::mode_label(), net::backend_name(net::backend()),
        tp.name(), Machine::instance().vps());
    const auto ts = tp.stats();
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
    if (net::ShmTransport::created() &&
        net::ShmTransport::instance().running()) {
      const auto& s = net::ShmTransport::instance();
      std::printf(
          "  shm backend            : %d router procs, %llu B/pair ring, "
          "%llu delivered, %llu overflowed, %llu respawns\n",
          s.procs(), static_cast<unsigned long long>(s.ring_capacity()),
          static_cast<unsigned long long>(s.delivered_messages()),
          static_cast<unsigned long long>(s.overflow_posts()),
          static_cast<unsigned long long>(s.respawns()));
    }
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
    if (total.seconds > 0.0 && total.predicted > 0.0) {
      std::printf("  predicted/measured     : %.2fx\n",
                  total.predicted / total.seconds);
    }
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
  if (report_tune) {
    const net::Tuner& tuner = net::Tuner::instance();
    std::printf("\nautotuner decision table (%s):\n",
                net::Tuner::config_signature().c_str());
    if (!tuner.ready()) {
      std::printf("  (no decision table — probes could not run in this "
                  "configuration)\n");
    } else {
      const net::TuneTable& t = tuner.table();
      std::printf("  %-14s %9s  %-12s %6s  %s\n", "pattern class", "size",
                  "chosen", "blocks", "measured/predicted per mode (ms)");
      for (const auto& c : t.choices) {
        std::string alts;
        for (int m = 0; m < net::kTuneModes; ++m) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "%s%s%s=%.3f/%.3f", m ? "  " : "",
                        m == c.chosen ? "*" : "",
                        net::mode_name(static_cast<net::Mode>(m)),
                        c.measured[m] * 1e3, c.predicted[m] * 1e3);
          alts += buf;
        }
        std::printf("  %-14s %6.0fKiB  %-12s %6d  %s\n",
                    net::pattern_class_name(c.klass),
                    static_cast<double>(1ull << c.log2_bytes) / 1024.0,
                    net::mode_name(static_cast<net::Mode>(c.chosen)),
                    c.blocks, alts.c_str());
      }
      std::printf("  simd recommendation    : %s (scalar/simd ratio %.2f)\n",
                  t.simd_on ? "on" : "off", t.simd_ratio);
    }
  }
  const auto it = r.checks.find("residual");
  return (it != r.checks.end() && it->second > 1e-3) ? 1 : 0;
}

/// Exit code when the daemon socket is unreachable (distinct from run
/// failures so wrappers can fall back to a local run).
constexpr int kExitDaemonUnreachable = 4;

void print_daemon_result(const serve::Json& f, bool checks_hex) {
  const serve::Json& rec = f["record"];
  const serve::Json& m = rec["metrics"];
  std::printf("%s%s\n", f["benchmark"].as_string().c_str(),
              f["cache_hit"].as_bool() ? "  [result-store hit]" : "");
  std::printf("  busy time              : %.6f s\n",
              m["busy_seconds"].as_number());
  std::printf("  elapsed time           : %.6f s\n",
              m["elapsed_seconds"].as_number());
  std::printf("  busy rate              : %.2f MFLOPS\n",
              m["busy_mflops"].as_number());
  std::printf("  elapsed rate           : %.2f MFLOPS\n",
              m["elapsed_mflops"].as_number());
  std::printf("  served in              : %.6f s (cold run: %.6f s)\n",
              f["serve_elapsed_s"].as_number(),
              rec["cold_elapsed_s"].as_number());
  std::printf("  address                : %s  checksum %s\n",
              f["address"].as_string().c_str(),
              f["checksum"].as_string().c_str());
  if (f["calibration_cache_hit"].as_bool()) {
    std::printf("  calibration            : from cache\n");
  }
  std::printf("checks:\n");
  for (const auto& [k, v] : rec["checks"].as_object()) {
    std::printf("  %-22s %.8g\n", k.c_str(), v["value"].as_number());
  }
  if (checks_hex) {
    std::printf("checks-hex:\n");
    for (const auto& [k, v] : rec["checks"].as_object()) {
      std::printf("  %-22s %s\n", k.c_str(), v["bits"].as_string().c_str());
    }
  }
}

int cmd_daemon(const std::string& socket,
               const std::vector<std::string>& args) {
  serve::DaemonClient client;
  std::string err;
  if (!client.connect(socket, &err)) {
    std::fprintf(stderr, "dpfrun: cannot reach dpfd: %s\n", err.c_str());
    return kExitDaemonUnreachable;
  }
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: dpfrun --daemon[=SOCKET] run <name> [options] | "
                 "ping | stats | drain\n");
    return 2;
  }
  const std::string& cmd = args[0];
  if (cmd == "ping" || cmd == "stats" || cmd == "drain") {
    serve::Json req(serve::Json::Object{});
    req.set("op", cmd);
    const serve::Json reply = client.request(req, &err);
    if (reply.is_null()) {
      std::fprintf(stderr, "dpfrun: daemon request failed: %s\n",
                   err.c_str());
      return kExitDaemonUnreachable;
    }
    std::printf("%s\n", reply.dump().c_str());
    return 0;
  }
  if (cmd != "run" || args.size() < 2) {
    std::fprintf(stderr,
                 "usage: dpfrun --daemon[=SOCKET] run <name> [options] | "
                 "ping | stats | drain\n");
    return 2;
  }
  serve::Json submit(serve::Json::Object{});
  submit.set("op", "submit")
      .set("client", "dpfrun-" + std::to_string(::getpid()))
      .set("benchmark", args[1])
      .set("knobs", serve::knob_snapshot_from_env());
  serve::Json params(serve::Json::Object{});
  bool checks_hex = false;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--checks-hex") {
      checks_hex = true;
    } else if (a == "--no-cache") {
      submit.set("no_cache", true);
    } else if (a == "--trace-summary") {
      submit.set("trace", true);
    } else if (a.rfind("--timeout=", 0) == 0) {
      submit.set("timeout_seconds", std::atof(a.c_str() + 10));
    } else if (a.rfind("--version=", 0) == 0) {
      submit.set("version", a.substr(10));
    } else if (a.rfind("--vps=", 0) == 0) {
      submit.set("vps", std::atoi(a.c_str() + 6));
    } else if (a == "--set" && i + 1 < args.size()) {
      const std::string kv = args[++i];
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--set expects key=value, got '%s'\n",
                     kv.c_str());
        return 2;
      }
      params.set(kv.substr(0, eq),
                 static_cast<long long>(std::atoll(kv.c_str() + eq + 1)));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  submit.set("params", std::move(params));
  if (!client.send(submit, &err)) {
    std::fprintf(stderr, "dpfrun: submit failed: %s\n", err.c_str());
    return kExitDaemonUnreachable;
  }
  serve::Json final_frame;
  const bool ok = client.stream(
      [&](const serve::Json& f) {
        const std::string& type = f["type"].as_string();
        if (type == "queued") {
          std::printf("queued as job %lld\n", f["job"].as_int());
        } else if (type == "progress") {
          std::printf("  [%lld/%lld] %s\n", f["index"].as_int() + 1,
                      f["total"].as_int(),
                      f["benchmark"].as_string().c_str());
        } else if (type == "trace") {
          std::printf("%s", f["summary"].as_string().c_str());
        } else if (type == "result") {
          print_daemon_result(f, checks_hex);
        }
      },
      &final_frame, &err);
  if (!ok) {
    std::fprintf(stderr, "dpfrun: lost daemon connection: %s\n",
                 err.c_str());
    return kExitDaemonUnreachable;
  }
  const std::string& type = final_frame["type"].as_string();
  if (type == "rejected") {
    std::fprintf(stderr, "dpfd rejected the job: %s\n",
                 final_frame["reason"].as_string().c_str());
    return kExitDaemonUnreachable;
  }
  if (type == "error") {
    const std::string& reason = final_frame["reason"].as_string();
    std::fprintf(stderr, "dpfd: job failed: %s\n",
                 reason.empty() ? final_frame.dump().c_str()
                                : reason.c_str());
    return 1;
  }
  if (final_frame.contains("error")) {
    std::fprintf(stderr, "dpfd: %s", final_frame["error"].as_string().c_str());
    std::string hint;
    for (const auto& s : final_frame["suggestions"].as_array()) {
      hint += hint.empty() ? "" : ", ";
      hint += s.as_string();
    }
    if (!hint.empty()) std::fprintf(stderr, " (did you mean: %s?)", hint.c_str());
    std::fprintf(stderr, "\n");
  }
  return static_cast<int>(final_frame["exit"].as_int(0));
}

}  // namespace

int main(int argc, char** argv) {
  dpf::register_all_benchmarks();
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dpfrun list | info <name> | run <name> [options]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--daemon" || cmd.rfind("--daemon=", 0) == 0) {
    const std::string socket =
        cmd.rfind("--daemon=", 0) == 0 ? cmd.substr(9) : std::string();
    std::vector<std::string> args;
    for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
    return cmd_daemon(socket, args);
  }
  if (cmd == "list") {
    const bool long_mode = argc >= 3 && std::strcmp(argv[2], "--long") == 0;
    return cmd_list(long_mode);
  }
  if (cmd == "info" && argc >= 3) return cmd_info(argv[2]);
  if (cmd == "run" && argc >= 3) {
    std::vector<std::string> args;
    for (int i = 3; i < argc; ++i) args.emplace_back(argv[i]);
    return cmd_run(argv[2], args);
  }
  std::fprintf(stderr,
               "usage: dpfrun list | info <name> | run <name> [options]\n");
  return 2;
}
