/// \file net_microbench.cpp
/// Interconnect microbenchmarks for the dpf::net transport, in the style of
/// the classic ping-pong / b_eff pair, run once per transport backend
/// (DPF_NET_BACKEND=local and =shm):
///
///   * ping-pong — round-trip latency of one minimal message VP0 <-> VP1
///     (three SPMD regions per round), from which the cost model's alpha
///     (per-message/region latency) follows;
///   * b_eff sweep — every VP streams messages of increasing size to a
///     neighbour under two patterns, the ring (v -> v+1) and a fixed random
///     permutation; following the b_eff methodology the effective bandwidth
///     is the mean aggregate posted-bytes/second over all (size, pattern)
///     samples, exposing the latency-to-bandwidth crossover per backend.
///
/// The binary then runs the cost model's calibration probes per backend and
/// prints the resulting constants, so a report's predicted-vs-measured
/// columns can be traced back to these numbers — the shm backend's messages
/// take a real cross-process store-and-verify hop, so its alpha/delta are
/// genuinely larger. Machine-readable output goes to BENCH_net.json
/// (override with DPF_BENCH_JSON or a path argument). `--smoke` shrinks
/// rounds and sizes for CI.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench/table_common.hpp"
#include "core/machine.hpp"
#include "net/cost_model.hpp"
#include "net/net.hpp"
#include "net/shm_transport.hpp"

namespace {

using dpf::Machine;

double now_pingpong(int rounds) {
  Machine& m = Machine::instance();
  dpf::net::Transport& t = dpf::net::transport();
  std::uint64_t payload = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t tag = dpf::net::next_tag();
    m.spmd([&](int v) {
      if (v == 0) t.post(0, 1, tag, &payload, sizeof(payload));
    });
    m.spmd([&](int v) {
      if (v == 1) {
        std::uint64_t got = 0;
        (void)t.try_fetch(1, 0, tag, &got, sizeof(got));
        t.post(1, 0, tag + (1ull << 63), &got, sizeof(got));
      }
    });
    m.spmd([&](int v) {
      if (v == 0) {
        std::uint64_t got = 0;
        (void)t.try_fetch(0, 1, tag + (1ull << 63), &got, sizeof(got));
      }
    });
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() /
         rounds;
}

/// A fixed pseudo-random permutation of [0, p): deterministic across runs
/// and backends so both measure the same traffic pattern.
std::vector<int> random_permutation(int p) {
  std::vector<int> perm(static_cast<std::size_t>(p));
  std::iota(perm.begin(), perm.end(), 0);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = p - 1; i > 0; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int j = static_cast<int>((state >> 33) % static_cast<std::uint64_t>(i + 1));
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

struct SweepPoint {
  const char* pattern = "ring";  ///< "ring" or "random"
  std::size_t bytes = 0;         ///< message size per VP per rep
  double seconds = 0.0;          ///< wall time of the whole rep loop
  double agg_mbps = 0.0;         ///< aggregate posted MB/s across all VPs
};

/// One (pattern, size) sample: every VP posts `msg_bytes` to dst[v] in one
/// region and its partner fetches in the next, `reps` times.
SweepPoint pattern_bandwidth(const char* name, const std::vector<int>& dst,
                             std::size_t msg_bytes, int reps) {
  Machine& m = Machine::instance();
  dpf::net::Transport& t = dpf::net::transport();
  const int p = m.vps();
  std::vector<int> src(static_cast<std::size_t>(p), 0);
  for (int v = 0; v < p; ++v) src[static_cast<std::size_t>(dst[static_cast<std::size_t>(v)])] = v;
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p)),
      in(static_cast<std::size_t>(p));
  for (int v = 0; v < p; ++v) {
    out[static_cast<std::size_t>(v)].resize(msg_bytes);
    in[static_cast<std::size_t>(v)].resize(msg_bytes);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t base =
        dpf::net::next_tags(static_cast<std::uint64_t>(p));
    m.spmd([&](int v) {
      t.post(v, dst[static_cast<std::size_t>(v)],
             base + static_cast<std::uint64_t>(v),
             out[static_cast<std::size_t>(v)].data(), msg_bytes);
    });
    m.spmd([&](int v) {
      const int s = src[static_cast<std::size_t>(v)];
      (void)t.try_fetch(v, s, base + static_cast<std::uint64_t>(s),
                        in[static_cast<std::size_t>(v)].data(), msg_bytes);
    });
  }
  SweepPoint pt;
  pt.pattern = name;
  pt.bytes = msg_bytes;
  pt.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double total_bytes = static_cast<double>(msg_bytes) * p * reps;
  pt.agg_mbps = pt.seconds > 0 ? total_bytes / pt.seconds / 1e6 : 0.0;
  return pt;
}

/// Everything measured for one backend, for the report and the JSON dump.
struct BackendResult {
  const char* requested = "local";  ///< backend asked for via the env knob
  std::string transport;            ///< what net::transport() actually gave
  int pingpong_rounds = 0;
  double round_trip_s = 0.0;
  std::vector<SweepPoint> sweep;
  double b_eff_mbps = 0.0;  ///< mean agg MB/s over all (pattern, size)
  dpf::net::CostModel::Params params;
};

BackendResult run_backend(const char* name, bool smoke) {
  setenv("DPF_NET_BACKEND", name, 1);
  Machine& m = Machine::instance();
  const int p = m.vps();
  BackendResult res;
  res.requested = name;
  res.transport = dpf::net::transport().name();

  std::printf("\n=== backend %s (transport %s) ===\n", name,
              res.transport.c_str());

  res.pingpong_rounds = smoke ? 200 : 2000;
  res.round_trip_s = now_pingpong(res.pingpong_rounds);
  std::printf("ping-pong VP0 <-> VP1 (%d rounds)\n", res.pingpong_rounds);
  std::printf("  round trip            : %.3f us\n", res.round_trip_s * 1e6);
  std::printf("  per message+region    : %.3f us\n",
              res.round_trip_s / 3.0 * 1e6);

  std::vector<std::size_t> sizes;
  if (smoke) {
    sizes = {64, 4096, 65536};
  } else {
    for (std::size_t s = 64; s <= (1u << 20); s *= 8) sizes.push_back(s);
  }
  std::vector<int> ring(static_cast<std::size_t>(p));
  for (int v = 0; v < p; ++v) ring[static_cast<std::size_t>(v)] = (v + 1) % p;
  const std::vector<int> random = random_permutation(p);

  std::printf("b_eff sweep (ring and random-permutation patterns)\n");
  std::printf("  %-8s %10s %12s %14s\n", "pattern", "msg bytes", "time (s)",
              "agg MB/s");
  for (std::size_t s : sizes) {
    const int reps =
        smoke ? 3
              : std::max(3, static_cast<int>(
                                (4u << 20) /
                                (s * static_cast<std::size_t>(p))));
    for (const auto* pat : {"ring", "random"}) {
      const auto& dst = std::strcmp(pat, "ring") == 0 ? ring : random;
      const SweepPoint pt = pattern_bandwidth(pat, dst, s, reps);
      std::printf("  %-8s %10zu %12.6f %14.1f\n", pt.pattern, pt.bytes,
                  pt.seconds, pt.agg_mbps);
      res.sweep.push_back(pt);
    }
  }
  double sum = 0.0;
  for (const SweepPoint& pt : res.sweep) sum += pt.agg_mbps;
  res.b_eff_mbps = res.sweep.empty() ? 0.0 : sum / res.sweep.size();
  std::printf("  b_eff (mean over patterns x sizes): %.1f MB/s\n",
              res.b_eff_mbps);

  dpf::net::calibrate(/*force=*/true);
  res.params = dpf::net::CostModel::instance().params();
  std::printf("calibrated fat-tree cost model (backend %s)\n", name);
  std::printf("  alpha (s/message)     : %.3e\n", res.params.alpha);
  std::printf("  beta  (s/byte)        : %.3e\n", res.params.beta);
  std::printf("  gamma (s/element)     : %.3e\n", res.params.gamma);
  std::printf("  delta (s/elem engine) : %.3e\n", res.params.delta);
  std::printf("  radix / contention    : %d / %.2f\n", res.params.radix,
              res.params.contention);
  return res;
}

void json_backend(std::FILE* f, const BackendResult& r, bool last) {
  std::fprintf(f, "    \"%s\": {\n", r.requested);
  std::fprintf(f, "      \"transport\": \"%s\",\n", r.transport.c_str());
  std::fprintf(f,
               "      \"pingpong\": {\"rounds\": %d, \"round_trip_s\": %.9e, "
               "\"per_region_s\": %.9e},\n",
               r.pingpong_rounds, r.round_trip_s, r.round_trip_s / 3.0);
  std::fprintf(f, "      \"sweep\": [\n");
  for (std::size_t i = 0; i < r.sweep.size(); ++i) {
    std::fprintf(f,
                 "        {\"pattern\": \"%s\", \"bytes\": %zu, \"seconds\": "
                 "%.9e, \"agg_mbps\": %.3f}%s\n",
                 r.sweep[i].pattern, r.sweep[i].bytes, r.sweep[i].seconds,
                 r.sweep[i].agg_mbps, i + 1 < r.sweep.size() ? "," : "");
  }
  std::fprintf(f, "      ],\n");
  std::fprintf(f, "      \"b_eff_mbps\": %.3f,\n", r.b_eff_mbps);
  std::fprintf(f,
               "      \"cost_model\": {\"alpha\": %.9e, \"beta\": %.9e, "
               "\"gamma\": %.9e, \"delta\": %.9e, \"radix\": %d, "
               "\"contention\": %.3f}\n",
               r.params.alpha, r.params.beta, r.params.gamma, r.params.delta,
               r.params.radix, r.params.contention);
  std::fprintf(f, "    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_net.json";
  if (const char* env = std::getenv("DPF_BENCH_JSON")) json_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  Machine& m = Machine::instance();
  if (m.vps() < 2) m.configure(4);
  const int p = m.vps();

  dpf::bench::title("dpf::net interconnect microbenchmarks");
  std::printf("machine: %d virtual processors on %d workers\n", p,
              m.workers());

  std::vector<BackendResult> results;
  for (const char* backend : {"local", "shm"}) {
    results.push_back(run_backend(backend, smoke));
  }
  unsetenv("DPF_NET_BACKEND");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "net_microbench: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"schema_version\": 2,\n"
               "  \"machine\": {\"vps\": %d, \"workers\": %d},\n",
               p, m.workers());
  std::fprintf(f, "  \"backends\": {\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    json_backend(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());

  // Internal consistency: every backend's calibration must yield positive
  // constants, its sweep must have moved every posted byte, and the shm leg
  // must actually have run over the shm transport (not the fallback).
  for (const BackendResult& r : results) {
    if (!(r.params.alpha > 0.0 && r.params.beta > 0.0 &&
          r.params.gamma > 0.0 && r.params.delta > 0.0)) {
      std::fprintf(stderr, "net_microbench: backend %s not calibrated\n",
                   r.requested);
      return 1;
    }
    if (r.transport != r.requested) {
      std::fprintf(stderr,
                   "net_microbench: backend %s fell back to transport %s\n",
                   r.requested, r.transport.c_str());
      return 1;
    }
  }
  if (dpf::net::transport().pending() != 0) return 1;
  return 0;
}
