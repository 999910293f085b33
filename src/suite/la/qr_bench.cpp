/// \file qr_bench.cpp
/// qr: dense least-squares solver via Householder QR factorization +
/// solution, timed as separate segments. Table 4 rows: factor
/// (5.5m - 0.5n)n FLOPs/iter (2 Reductions, 2 Broadcasts), solve
/// (8m - 1.5n)n FLOPs/iter (2 Reductions, 4 Broadcasts); memory
/// 36mn + solve-side 44mn + 8m(r+1) bytes (d).

#include "la/qr.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

RunResult run_qr(const RunConfig& cfg) {
  const index_t m = cfg.get("m", 128);
  const index_t n = cfg.get("n", 64);
  const index_t r = cfg.get("r", 2);
  // Householder QR of an m x n least-squares system reflects n columns.
  if (m < n) {
    throw std::invalid_argument("m must be >= n (" + std::to_string(n) +
                                "), got " + std::to_string(m));
  }

  RunResult res;
  memory::Scope mem;

  // Complex-precision run (the paper's c/z rows): dtype parameter 1.
  if (get_in_range(cfg, "dtype", 0, 0, 1) == 1) {
    Array2<complexd> a{Shape<2>(m, n)};
    Array2<complexd> xt{Shape<2>(n, r)};
    Array2<complexd> b{Shape<2>(m, r)};
    const Rng rng(0xC5);
    assign(a, 0, [&](index_t k) {
      return complexd(rng.uniform(static_cast<std::uint64_t>(k), -1, 1),
                      rng.uniform(static_cast<std::uint64_t>(k) + a.size(),
                                  -1, 1));
    });
    assign(xt, 0, [&](index_t k) {
      return complexd(std::sin(0.2 * (k + 1)), std::cos(0.3 * k));
    });
    parallel_range(m, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        for (index_t c = 0; c < r; ++c) {
          complexd acc{};
          for (index_t j = 0; j < n; ++j) acc += a(i, j) * xt(j, c);
          b(i, c) = acc;
        }
      }
    });
    Array2<complexd> x = b;
    MetricScope whole;
    la::QrFactorZ f{
        Array2<complexd>(Shape<2>(1, 1), Layout<2>{}, MemKind::Temporary),
        Array1<double>(Shape<1>(1), Layout<1>{}, MemKind::Temporary),
        Array1<complexd>(Shape<1>(1), Layout<1>{}, MemKind::Temporary)};
    timed_segment(res, "factor", [&] { f = la::qr_factor_z(a); });
    timed_segment(res, "solve", [&] { la::qr_solve_z(f, x); });
    res.metrics = whole.stop();
    res.metrics.memory_bytes = mem.peak();
    double err = 0;
    for (index_t j = 0; j < n; ++j) {
      for (index_t c = 0; c < r; ++c) {
        err = std::max(err, std::abs(x(j, c) - xt(j, c)));
      }
    }
    res.checks["residual"] = err;
    return res;
  }

  auto a = random_dense(m, n, 0xC1, 2.0);
  Array2<double> b{Shape<2>(m, r)};
  Array2<double> xt{Shape<2>(n, r)};
  fill_uniform(xt, 0xC2, -1, 1);
  // b = A x_true: consistent system so x is exactly recoverable.
  parallel_range(m, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      for (index_t c = 0; c < r; ++c) {
        double acc = 0;
        for (index_t j = 0; j < n; ++j) acc += a(i, j) * xt(j, c);
        b(i, c) = acc;
      }
    }
  });
  Array2<double> x = b;

  MetricScope whole;
  la::QrFactor f{Array2<double>(Shape<2>(1, 1), Layout<2>{}, MemKind::Temporary),
                 Array1<double>(Shape<1>(1), Layout<1>{}, MemKind::Temporary),
                 Array1<double>(Shape<1>(1), Layout<1>{}, MemKind::Temporary)};
  timed_segment(res, "factor", [&] { f = la::qr_factor(a); });
  timed_segment(res, "solve", [&] { la::qr_solve(f, x); });
  res.metrics = whole.stop();
  res.metrics.memory_bytes = mem.peak();

  double err = 0;
  for (index_t j = 0; j < n; ++j) {
    for (index_t c = 0; c < r; ++c) {
      err = std::max(err, std::abs(x(j, c) - xt(j, c)));
    }
  }
  res.checks["residual"] = err;
  return res;
}

CountModel model_qr(const RunConfig& cfg) {
  const index_t m = cfg.get("m", 128);
  const index_t n = cfg.get("n", 64);
  CountModel mod;
  if (cfg.get("dtype", 0) == 1) {
    // Paper c/z factor row: 4(5.5m - 0.5n)n per iteration; 68mn bytes (z).
    mod.flops_per_iter = 4.0 * (5.5 * m - 0.5 * n) * n;
    mod.memory_bytes = 68 * m * n;
    mod.comm_per_iter[CommPattern::Reduction] = 2;
    mod.comm_per_iter[CommPattern::Broadcast] = 2;
    mod.flop_rel_tol = 0.50;
    mod.mem_rel_tol = 0.80;
    return mod;
  }
  // Paper factor row: (5.5m - 0.5n)n per iteration. Our Householder
  // implementation totals ~ 4mn^2 - (4/3)n^3 over n iterations, i.e.
  // (4m - (4/3)n)n per iteration — documented deviation (EXPERIMENTS.md).
  mod.flops_per_iter = (5.5 * m - 0.5 * n) * n;
  mod.memory_bytes = 36 * m * n;  // paper's double-precision factor row
  mod.comm_per_iter[CommPattern::Reduction] = 2;
  mod.comm_per_iter[CommPattern::Broadcast] = 2;
  mod.flop_rel_tol = 0.45;
  mod.mem_rel_tol = 0.80;
  return mod;
}

}  // namespace

void register_qr_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "qr",
      .group = Group::LinearAlgebra,
      .versions = {Version::Basic, Version::Optimized, Version::CMSSL},
      .local_access = LocalAccess::NA,
      .layouts = {"X(:,:)"},
      .techniques = {},
      .default_params = {{"m", 128}, {"n", 64}, {"r", 2}},
      .run = run_qr,
      .model = model_qr,
      .paper_flops = "factor: (5.5m - 0.5n)n; solve: (8m - 1.5n)n",
      .paper_memory = "d: 36mn (factor), 44mn + 8m(r+1) (solve)",
      .paper_comm = "factor: 2 Reductions, 2 Broadcasts; solve: 2 Reductions, 4 Broadcasts",
  });
}

}  // namespace dpf::suite
