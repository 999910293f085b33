/// \file comm_benchmarks.cpp
/// The four DPF library communication benchmarks (paper section 2):
/// gather, scatter, reduction and transpose. They measure particular
/// communication patterns, not bundled with computation; except for
/// reduction they perform no floating-point operations.

#include "comm/comm.hpp"
#include "core/ops.hpp"
#include "core/registry.hpp"
#include "core/rng.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

/// Builds a deterministic permutation-free random index map [0,m) -> [0,n).
Array1<index_t> random_map(index_t m, index_t n, std::uint64_t seed) {
  Array1<index_t> map(Shape<1>(m), Layout<1>(AxisKind::Parallel),
                      MemKind::User);
  const Rng rng(seed);
  assign(map, 0, [&](index_t i) {
    return static_cast<index_t>(rng.below(static_cast<std::uint64_t>(i), n));
  });
  return map;
}

/// gather: many-to-one data motion dst[i] = src[map[i]].
RunResult run_gather(const RunConfig& cfg) {
  const index_t n = cfg.get("n", 1 << 14);
  const index_t iters = cfg.get("iters", 4);
  memory::Scope mem;

  auto src = make_vector<double>(n);
  auto dst = make_vector<double>(n);
  assign(src, 0, [](index_t i) { return static_cast<double>(i); });
  auto map = random_map(n, n, 0x9a17);

  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    comm::gather_into(dst, src, map);
  }
  RunResult r;
  r.metrics = scope.stop();
  r.metrics.memory_bytes = mem.peak();
  double checksum = 0;
  for (index_t i = 0; i < n; ++i) checksum += dst[i] - src[map[i]];
  r.checks["residual"] = checksum;
  return r;
}

/// scatter: one-to-many data motion dst[map[i]] = src[i].
RunResult run_scatter(const RunConfig& cfg) {
  const index_t n = cfg.get("n", 1 << 14);
  const index_t iters = cfg.get("iters", 4);
  memory::Scope mem;

  auto src = make_vector<double>(n);
  auto dst = make_vector<double>(n);
  assign(src, 0, [](index_t i) { return static_cast<double>(2 * i); });
  auto map = random_map(n, n, 0x51c2);

  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    comm::scatter_into(dst, src, map);
  }
  RunResult r;
  r.metrics = scope.stop();
  r.metrics.memory_bytes = mem.peak();
  r.checks["residual"] = static_cast<double>(scatter_misses(dst, src, map));
  return r;
}

/// reduction: global many-to-one combining; the only communication
/// benchmark with a FLOP count (N-1 per reduction).
RunResult run_reduction(const RunConfig& cfg) {
  const index_t n = cfg.get("n", 1 << 14);
  const index_t iters = cfg.get("iters", 4);
  memory::Scope mem;

  auto v = make_vector<double>(n);
  assign(v, 0, [](index_t i) { return static_cast<double>(i % 7) - 3.0; });

  MetricScope scope;
  double total = 0;
  for (index_t it = 0; it < iters; ++it) {
    total += comm::reduce_sum(v);
  }
  RunResult r;
  r.metrics = scope.stop();
  r.metrics.memory_bytes = mem.peak();
  double expect = 0;
  for (index_t i = 0; i < n; ++i) expect += static_cast<double>(i % 7) - 3.0;
  r.checks["residual"] = total - expect * static_cast<double>(iters);
  return r;
}

/// transpose: all-to-all personalized communication; confirms bisection
/// bandwidth on a real machine.
RunResult run_transpose(const RunConfig& cfg) {
  const index_t n = cfg.get("n", 128);
  const index_t iters = cfg.get("iters", 4);
  memory::Scope mem;

  auto a = make_matrix<double>(n, n);
  auto b = make_matrix<double>(n, n);
  assign(a, 0, [&](index_t i) { return static_cast<double>(i); });

  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    comm::transpose_into(b, a);
    comm::transpose_into(a, b);
  }
  RunResult r;
  r.metrics = scope.stop();
  r.metrics.memory_bytes = mem.peak();
  double residual = 0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      residual += std::abs(a(i, j) - static_cast<double>(i * n + j));
      residual += std::abs(b(i, j) - a(j, i));
    }
  }
  r.checks["residual"] = residual;
  return r;
}

}  // namespace

index_t scatter_misses(const Array1<double>& dst, const Array1<double>& src,
                       const Array1<index_t>& map) {
  // Descending over i, matched[t] says whether some later writer to t left
  // its value in dst[t]: a mismatch without one is a miss.
  std::vector<bool> matched(static_cast<std::size_t>(dst.size()));
  index_t misses = 0;
  for (index_t i = map.size(); i-- > 0;) {
    if (dst[map[i]] == src[i]) {
      matched[static_cast<std::size_t>(map[i])] = true;
    } else if (!matched[static_cast<std::size_t>(map[i])]) {
      ++misses;
    }
  }
  return misses;
}

void register_comm_benchmarks() {
  Registry& reg = Registry::instance();

  reg.add(BenchmarkDef{
      .name = "gather",
      .group = Group::Communication,
      .versions = {Version::Basic},
      .local_access = LocalAccess::NA,
      .layouts = {"X(:)"},
      .techniques = {{"Gather", "FORALL w/ indirect addressing"}},
      .default_params = {{"n", 1 << 14}, {"iters", 4}},
      .run = run_gather,
      .model = nullptr,
      .paper_flops = "none (pure communication)",
      .paper_memory = "source, destination and index arrays",
      .paper_comm = "1 Gather (many-to-one router motion)",
  });

  reg.add(BenchmarkDef{
      .name = "scatter",
      .group = Group::Communication,
      .versions = {Version::Basic},
      .local_access = LocalAccess::NA,
      .layouts = {"X(:)"},
      .techniques = {{"Scatter", "FORALL w/ indirect addressing"}},
      .default_params = {{"n", 1 << 14}, {"iters", 4}},
      .run = run_scatter,
      .model = nullptr,
      .paper_flops = "none (pure communication)",
      .paper_memory = "source, destination and index arrays",
      .paper_comm = "1 Scatter (one-to-many router motion)",
  });

  reg.add(BenchmarkDef{
      .name = "reduction",
      .group = Group::Communication,
      .versions = {Version::Basic},
      .local_access = LocalAccess::NA,
      .layouts = {"X(:)"},
      .techniques = {{"Reduction", "SUM intrinsic"}},
      .default_params = {{"n", 1 << 14}, {"iters", 4}},
      .run = run_reduction,
      .model =
          [](const RunConfig& cfg) {
            CountModel m;
            m.flops_per_iter = static_cast<double>(cfg.get("n", 1 << 14) - 1);
            m.memory_bytes = 8 * cfg.get("n", 1 << 14);
            m.comm_per_iter[CommPattern::Reduction] = 1;
            return m;
          },
      .paper_flops = "N - 1",
      .paper_memory = "d: 8n",
      .paper_comm = "1 Reduction",
  });

  reg.add(BenchmarkDef{
      .name = "transpose",
      .group = Group::Communication,
      .versions = {Version::Basic, Version::Optimized, Version::CMSSL},
      .local_access = LocalAccess::NA,
      .layouts = {"X(:,:)"},
      .techniques = {{"AAPC", "TRANSPOSE intrinsic"}},
      .default_params = {{"n", 128}, {"iters", 4}},
      .run = run_transpose,
      .model =
          [](const RunConfig& cfg) {
            CountModel m;
            m.flops_per_iter = 0;
            m.memory_bytes = 2 * 8 * cfg.get("n", 128) * cfg.get("n", 128);
            m.comm_per_iter[CommPattern::AAPC] = 2;
            return m;
          },
      .paper_flops = "none (pure communication)",
      .paper_memory = "d: 16n^2 (both orientations)",
      .paper_comm = "1 AAPC (confirms bisection bandwidth)",
  });
}

}  // namespace dpf::suite
