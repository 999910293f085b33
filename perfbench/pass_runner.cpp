/// \file pass_runner.cpp
/// One process of the engine benchmark; run.py starts several per workload.
///
/// It sets the engine up the way dpfrun does (register_all_benchmarks(),
/// Machine::instance(), Machine::peak_mflops()), runs a fixed number of
/// passes over the workload's members through BenchmarkDef::run_with_defaults,
/// times every call from outside, and prints one JSON object: set-up time,
/// per-pass and per-member times, the engine's public counters, the IEEE-754
/// bits of every check and, on request, the layer probes. Checking the
/// outputs and aggregating the metrics is run.py's job.
///
///   pass_runner --seed S --passes N [--calibrate] [--probes]
///               NAME[:key=value,...] ...
///
/// The engine reads DPF_VPS, DPF_NET and DPF_TRACE from the environment.
/// Under DPF_TRACE=full the runner also splits each member's span into the
/// engine's layers, from the spans the engine records in its trace rings.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/comm_log.hpp"
#include "core/machine.hpp"
#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "net/net.hpp"
#include "net/tune.hpp"
#include "trace/trace.hpp"
#include "vec/vec.hpp"

namespace {

using dpf::trace::now_ns;

double seconds(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

struct Member {
  std::string spec;  ///< as given on the command line; run.py's reference key
  const dpf::BenchmarkDef* def = nullptr;
  dpf::RunConfig cfg;
};

/// Parses NAME[:key=value,...]; returns false on a malformed spec or an
/// unknown benchmark.
bool parse_member(const std::string& spec, Member& out) {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  out.spec = spec;
  out.def = dpf::Registry::instance().find(name);
  if (out.def == nullptr) return false;
  if (colon == std::string::npos) return true;
  std::size_t pos = colon + 1;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string kv = spec.substr(pos, end - pos);
    const std::size_t eq = kv.find('=');
    if (eq == 0 || eq == std::string::npos || eq + 1 == kv.size()) return false;
    char* tail = nullptr;
    const long long v = std::strtoll(kv.c_str() + eq + 1, &tail, 10);
    if (*tail != '\0') return false;
    out.cfg.params[kv.substr(0, eq)] = static_cast<dpf::index_t>(v);
    pos = end + 1;
  }
  return true;
}

/// splitmix64: a fixed generator, so one seed gives one member order on
/// every platform.
std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One member's span [t0, t1) split into layers, in ns. Every instant is
/// charged to the innermost engine span active on the dispatching thread at
/// that instant: a transport post/fetch (net) inside an SPMD region
/// (core.machine) inside a collective (comm); what no engine span covers is
/// the member's own self time (suite). The four parts add up to t1 - t0.
struct SpanSplit {
  std::uint64_t net = 0;
  std::uint64_t region = 0;
  std::uint64_t collective = 0;
  std::uint64_t self = 0;
};

SpanSplit split_span(const std::vector<dpf::trace::Event>& events,
                     std::uint64_t t0, std::uint64_t t1) {
  using dpf::trace::EventKind;
  struct Edge {
    std::uint64_t t;
    int level;
    int delta;
  };
  std::vector<Edge> edges;
  for (const auto& e : events) {
    int level = 0;
    switch (e.kind) {
      case EventKind::Post:
      case EventKind::Fetch: level = 3; break;
      case EventKind::Region: level = 2; break;
      case EventKind::Collective: level = 1; break;
      default: continue;
    }
    const std::uint64_t a = std::max(e.t0_ns, t0);
    const std::uint64_t b = std::min(e.t1_ns, t1);
    if (a >= b) continue;
    edges.push_back({a, level, +1});
    edges.push_back({b, level, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& x, const Edge& y) { return x.t < y.t; });
  SpanSplit s;
  std::array<int, 4> active{};
  std::uint64_t prev = t0;
  auto charge = [&](std::uint64_t until) {
    const std::uint64_t dt = until - prev;
    if (active[3] > 0) {
      s.net += dt;
    } else if (active[2] > 0) {
      s.region += dt;
    } else if (active[1] > 0) {
      s.collective += dt;
    } else {
      s.self += dt;
    }
    prev = until;
  };
  for (const Edge& e : edges) {
    charge(e.t);
    active[static_cast<std::size_t>(e.level)] += e.delta;
  }
  charge(t1);
  return s;
}

/// Minimal JSON writer: the output is one object, built in order.
class Json {
 public:
  void key(const std::string& k) {
    sep();
    quoted(k);
    out_ += ':';
    fresh_ = true;
  }
  void num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void integer(long long v) {
    sep();
    out_ += std::to_string(v);
  }
  void str(const std::string& s) {
    sep();
    quoted(s);
  }
  void open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }
  void field(const char* k, double v) {
    key(k);
    num(v);
  }
  void field_int(const char* k, long long v) {
    key(k);
    integer(v);
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  void quoted(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  std::string out_;
  bool fresh_ = true;
};

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Times `fn` `samples` times; writes "<name>": {"median", "samples"}.
template <typename F>
void probe(Json& j, const char* name, int samples, F&& fn) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) v.push_back(fn());
  j.key(name);
  j.open('{');
  j.field("median", median(v));
  j.field_int("samples", samples);
  j.close('}');
}

/// The layer probes, run after the passes so they cannot perturb them.
void run_probes(Json& j) {
  dpf::Machine& m = dpf::Machine::instance();
  j.key("probes");
  j.open('{');

  // Round trip of an empty SPMD region with the pool warm (back to back).
  const dpf::Machine::RegionFn noop = [](void*, int) {};
  for (int i = 0; i < 200; ++i) m.spmd_raw(noop, nullptr);
  probe(j, "dispatch_us", 5000, [&] {
    const std::uint64_t t0 = now_ns();
    m.spmd_raw(noop, nullptr);
    return static_cast<double>(now_ns() - t0) * 1e-3;
  });

  // One MetricScope on the comm log as the passes left it.
  probe(j, "scope_us", 31, [] {
    const std::uint64_t t0 = now_ns();
    {
      dpf::MetricScope scope;
      (void)scope.stop();
    }
    return static_cast<double>(now_ns() - t0) * 1e-3;
  });

  // dpf::vec::axpy in cache (two 16 KiB arrays) and far out of it (each
  // array at least 4x the last-level cache, capped at a quarter of the free
  // memory for both).
  {
    constexpr dpf::index_t n = 2048;
    constexpr int reps = 256;
    std::vector<double> x(n, 0.5), y(n, 1.0);
    probe(j, "axpy_cache_gflops", 101, [&] {
      const std::uint64_t t0 = now_ns();
      for (int r = 0; r < reps; ++r) dpf::vec::axpy(1e-9, x.data(), y.data(), n);
      return 2.0 * n * reps / static_cast<double>(now_ns() - t0);
    });
    j.field("axpy_y0", y[0]);
  }
  {
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (llc <= 0) llc = 32L << 20;
    const double avail = static_cast<double>(sysconf(_SC_AVPHYS_PAGES)) *
                         static_cast<double>(sysconf(_SC_PAGESIZE));
    double bytes = std::max(4.0 * static_cast<double>(llc), 64.0 * (1 << 20));
    if (avail > 0.0) bytes = std::min(bytes, avail / 8.0);
    const auto n = static_cast<dpf::index_t>(bytes / sizeof(double));
    std::vector<double> x(static_cast<std::size_t>(n), 0.5);
    std::vector<double> y(static_cast<std::size_t>(n), 1.0);
    dpf::vec::axpy(1e-9, x.data(), y.data(), n);
    probe(j, "axpy_gbs", 5, [&] {
      const std::uint64_t t0 = now_ns();
      dpf::vec::axpy(1e-9, x.data(), y.data(), n);
      return 24.0 * static_cast<double>(n) /
             static_cast<double>(now_ns() - t0);
    });
    j.field_int("llc_bytes", llc);
    j.field_int("axpy_array_bytes",
                static_cast<long long>(n) * static_cast<long long>(sizeof(double)));
  }
  j.close('}');
}

/// Per-pass aggregates of the comm events the pass recorded.
void write_comm(Json& j, const std::vector<dpf::CommEvent>& all,
                std::size_t begin) {
  double s = 0.0, predicted = 0.0;
  std::array<double, 4> by_class{};
  long long bytes = 0, offproc = 0, untimed = 0;
  for (std::size_t i = begin; i < all.size(); ++i) {
    const dpf::CommEvent& e = all[i];
    s += e.seconds;
    predicted += e.predicted_seconds;
    bytes += e.bytes;
    offproc += e.offproc_bytes;
    if (e.seconds == 0.0) ++untimed;
    by_class[static_cast<std::size_t>(dpf::net::pattern_class(e.pattern))] +=
        e.seconds;
  }
  j.key("comm");
  j.open('{');
  j.field_int("events", static_cast<long long>(all.size() - begin));
  j.field("s", s);
  j.field("predicted_s", predicted);
  j.field_int("bytes", bytes);
  j.field_int("offproc_bytes", offproc);
  j.field_int("untimed", untimed);
  j.field("shift_s", by_class[0]);
  j.field("tree_s", by_class[1]);
  j.field("exchange_s", by_class[2]);
  j.field("gather_scatter_s", by_class[3]);
  j.close('}');
}

int usage() {
  std::fprintf(stderr,
               "usage: pass_runner --seed S --passes N [--calibrate] "
               "[--probes] NAME[:key=value,...] ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_entry = now_ns();
  std::uint64_t seed = 0;
  long passes = 0;
  bool calibrate = false, probes = false;
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--passes" && i + 1 < argc) {
      passes = std::strtol(argv[++i], nullptr, 10);
    } else if (a == "--calibrate") {
      calibrate = true;
    } else if (a == "--probes") {
      probes = true;
    } else if (a.rfind("--", 0) == 0) {
      return usage();
    } else {
      specs.push_back(a);
    }
  }
  if (passes < 1 || specs.empty()) return usage();

  // --- set-up: what every process pays before its first run --------------
  dpf::register_all_benchmarks();
  dpf::Machine& machine = dpf::Machine::instance();
  const std::uint64_t t_probe = now_ns();
  const double peak = machine.peak_mflops();
  const std::uint64_t t_ready = now_ns();

  std::vector<Member> members(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!parse_member(specs[i], members[i])) {
      std::fprintf(stderr, "pass_runner: bad member '%s'\n", specs[i].c_str());
      return 2;
    }
  }

  const bool traced = dpf::trace::enabled(dpf::trace::Mode::Full);
  if (calibrate) dpf::net::calibrate();
  if (traced) {
    // One member's events must fit the rings: they are drained per member.
    dpf::trace::set_ring_capacity(std::size_t{1} << 18);
    dpf::trace::reset();
  }

  Json j;
  j.open('{');
  j.field("setup_s", seconds(t_entry, t_ready));
  j.field("peak_probe_s", seconds(t_probe, t_ready));
  j.field("peak_mflops", peak);
  j.field_int("vps", machine.vps());
  j.field_int("workers", machine.workers());
  j.field_int("nproc", sysconf(_SC_NPROCESSORS_ONLN));
  j.key("net_mode");
  j.str(dpf::net::mode_name(dpf::net::mode()));
  j.key("passes");
  j.open('[');

  std::uint64_t rng = seed;
  std::vector<std::size_t> order(members.size());
  dpf::net::TransportStats net_prev{};
  for (long p = 0; p < passes; ++p) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[next_random(rng) % i]);
    }
    const std::uint64_t regions0 = machine.region_serial();
    const double busy0 = machine.busy_seconds();
    const std::size_t events0 = dpf::CommLog::instance().event_count();
    const auto pool0 = dpf::TemporaryPool::instance().stats();

    j.open('{');
    j.key("members");
    j.open('[');
    std::uint64_t dropped = 0;
    const std::uint64_t t_pass = now_ns();
    for (std::size_t idx : order) {
      const Member& mem = members[idx];
      dpf::RunResult r;
      std::string error;
      const std::uint64_t t0 = now_ns();
      try {
        r = mem.def->run_with_defaults(mem.cfg);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const std::uint64_t t1 = now_ns();
      j.open('{');
      j.key("spec");
      j.str(mem.spec);
      j.field("span_s", seconds(t0, t1));
      j.field("elapsed_s", r.metrics.elapsed_seconds);
      j.field_int("memory_bytes", r.metrics.memory_bytes);
      if (!error.empty()) {
        j.key("error");
        j.str(error);
      }
      j.key("checks");
      j.open('{');
      for (const auto& [k, v] : r.checks) {
        j.key(k);
        j.str(hex_bits(v));
      }
      j.close('}');
      if (traced) {
        const dpf::trace::Snapshot snap = dpf::trace::collect();
        dpf::trace::reset();
        dropped += snap.dropped_count() + snap.unbound_events;
        const SpanSplit s = split_span(snap.workers.at(0).events, t0, t1);
        j.field_int("span_ns", static_cast<long long>(t1 - t0));
        j.field_int("net_ns", static_cast<long long>(s.net));
        j.field_int("region_ns", static_cast<long long>(s.region));
        j.field_int("collective_ns", static_cast<long long>(s.collective));
        j.field_int("self_ns", static_cast<long long>(s.self));
      }
      j.close('}');
    }
    const std::uint64_t t_end = now_ns();
    j.close(']');

    j.field("wall_s", seconds(t_pass, t_end));
    j.field_int("regions",
                static_cast<long long>(machine.region_serial() - regions0));
    j.field("busy_core_s", (machine.busy_seconds() - busy0) * machine.vps());
    const auto pool1 = dpf::TemporaryPool::instance().stats();
    j.field_int("pool_hits", static_cast<long long>(pool1.hits - pool0.hits));
    j.field_int("pool_misses",
                static_cast<long long>(pool1.misses - pool0.misses));
    // Traffic before the first pass (calibration) lands in pass 0, which is
    // never a per-pass sample.
    const dpf::net::TransportStats net = dpf::net::transport().stats();
    j.field_int("net_messages",
                static_cast<long long>(net.messages - net_prev.messages));
    j.field_int("net_bytes", static_cast<long long>(net.bytes - net_prev.bytes));
    net_prev = net;
    j.field_int("log_events",
                static_cast<long long>(dpf::CommLog::instance().event_count()));
    write_comm(j, dpf::CommLog::instance().events(), events0);
    if (traced) j.field_int("trace_dropped", static_cast<long long>(dropped));
    j.close('}');
  }
  j.close(']');

  // Peak RSS of the passes, read before the probes allocate theirs.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j.field("rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  if (probes) run_probes(j);
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
