/// \file matvec_bench.cpp
/// matrix-vector: the four layout variants of Table 2, in basic (whole-array
/// spread+reduce), optimized (fused dot-product loops) and library/CMSSL
/// (la::matvec*) versions. Table 4 row: 2nmi FLOPs, 4(n+nm+m)i bytes (s),
/// 1 Broadcast + 1 Reduction per iteration, direct local access.

#include "la/matvec.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

RunResult run_matvec(const RunConfig& cfg) {
  const index_t n = get_at_least(cfg, "n", 128, 1);
  const index_t m = get_at_least(cfg, "m", 128, 1);
  const index_t iters = cfg.get("iters", 8);
  const index_t variant = cfg.get("variant", 1);
  const bool is_complex = get_in_range(cfg, "dtype", 0, 0, 1) == 1;

  RunResult r;
  memory::Scope mem;  // covers every user array this benchmark declares
  if (variant == 3) {
    // Serial matrix per parallel instance.
    const index_t inst = cfg.get("inst", 8);
    Array<double, 3> a{Shape<3>(n, m, inst),
                       Layout<3>(AxisKind::Serial, AxisKind::Serial,
                                 AxisKind::Parallel)};
    Array2<double> x{Shape<2>(m, inst),
                     Layout<2>(AxisKind::Serial, AxisKind::Parallel)};
    Array2<double> y{Shape<2>(n, inst),
                     Layout<2>(AxisKind::Serial, AxisKind::Parallel)};
    fill_uniform(a, 0xA1, -1, 1);
    fill_uniform(x, 0xA2, -1, 1);
    MetricScope scope;
    for (index_t it = 0; it < iters; ++it) la::matvec3(y, a, x);
    r.metrics = scope.stop();
    r.metrics.memory_bytes = mem.peak();
    r.checks["norm"] = comm::reduce_absmax(y);
    return r;
  }
  if (variant == 2 || variant == 4) {
    const index_t inst = cfg.get("inst", 8);
    Array3<double> a{variant == 2 ? Shape<3>(inst, n, m) : Shape<3>(n, m, inst),
                     variant == 2
                         ? Layout<3>{}
                         : Layout<3>(AxisKind::Serial, AxisKind::Parallel,
                                     AxisKind::Parallel)};
    fill_uniform(a, 0xA3, -1, 1);
    if (variant == 2) {
      Array2<double> x{Shape<2>(inst, m)};
      Array2<double> y{Shape<2>(inst, n)};
      fill_uniform(x, 0xA4, -1, 1);
      MetricScope scope;
      for (index_t it = 0; it < iters; ++it) la::matvec2(y, a, x);
      r.metrics = scope.stop();
      r.metrics.memory_bytes = mem.peak();
      r.checks["norm"] = comm::reduce_absmax(y);
    } else {
      Array2<double> x{Shape<2>(m, inst),
                       Layout<2>(AxisKind::Serial, AxisKind::Parallel)};
      Array2<double> y{Shape<2>(n, inst),
                       Layout<2>(AxisKind::Serial, AxisKind::Parallel)};
      fill_uniform(x, 0xA5, -1, 1);
      MetricScope scope;
      for (index_t it = 0; it < iters; ++it) la::matvec4(y, a, x);
      r.metrics = scope.stop();
      r.metrics.memory_bytes = mem.peak();
      r.checks["norm"] = comm::reduce_absmax(y);
    }
    return r;
  }

  // Complex-precision run (the paper's c/z rows): dtype parameter 1.
  if (is_complex) {
    Array2<complexd> a{Shape<2>(n, m)};
    Array1<complexd> x{Shape<1>(m)};
    Array1<complexd> y{Shape<1>(n)};
    const Rng rng(0xA8);
    assign(a, 0, [&](index_t k) {
      return complexd(rng.uniform(static_cast<std::uint64_t>(k), -1, 1),
                      rng.uniform(static_cast<std::uint64_t>(k) + a.size(),
                                  -1, 1));
    });
    assign(x, 0, [&](index_t k) {
      return complexd(rng.uniform(static_cast<std::uint64_t>(k) + 7, -1, 1),
                      0.5);
    });
    MetricScope scope;
    for (index_t it = 0; it < iters; ++it) la::matvec1_complex(y, a, x);
    r.metrics = scope.stop();
    r.metrics.memory_bytes = mem.peak();
    double err = 0;
    for (index_t i = 0; i < n; ++i) {
      complexd acc{};
      for (index_t j = 0; j < m; ++j) acc += a(i, j) * x[j];
      err = std::max(err, std::abs(acc - y[i]));
    }
    r.checks["residual"] = err;
    return r;
  }

  // Variant 1: y(:) = A(:,:) x(:).
  auto a = random_dense(n, m, 0xA6);
  auto x = make_vector<double>(m);
  auto y = make_vector<double>(n);
  fill_uniform(x, 0xA7, -1, 1);
  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    switch (cfg.version) {
      case Version::Basic:
        la::matvec1(y, a, x);
        break;
      default:  // optimized / library / CMSSL: the fused routine
        la::matvec1_opt(y, a, x);
        break;
    }
  }
  r.metrics = scope.stop();
  r.metrics.memory_bytes = mem.peak();
  r.checks["norm"] = comm::reduce_absmax(y);
  // Reference check on the final y.
  double err = 0;
  for (index_t i = 0; i < n; ++i) {
    double acc = 0;
    for (index_t j = 0; j < m; ++j) acc += a(i, j) * x[j];
    err = std::max(err, std::abs(acc - y[i]));
  }
  r.checks["residual"] = err;
  return r;
}

CountModel model_matvec(const RunConfig& cfg) {
  const index_t n = cfg.get("n", 128);
  const index_t m = cfg.get("m", 128);
  const index_t inst = cfg.get("variant", 1) == 1 ? 1 : cfg.get("inst", 8);
  CountModel mod;
  if (cfg.get("dtype", 0) == 1) {
    // Complex rows of Table 4: 8nm FLOPs, 16(n + nm + m) bytes (z).
    mod.flops_per_iter = 8.0 * static_cast<double>(n * m * inst);
    mod.memory_bytes = 16 * (n + n * m + m) * inst;
    mod.flop_rel_tol = 0.02;
    mod.comm_per_iter[CommPattern::Broadcast] = 1;
    mod.comm_per_iter[CommPattern::Reduction] = 1;
    return mod;
  }
  mod.flops_per_iter = 2.0 * static_cast<double>(n * m * inst);
  mod.memory_bytes = 8 * (n + n * m + m) * inst;  // double precision: 8(...)i
  mod.comm_per_iter[CommPattern::Broadcast] = 1;
  mod.comm_per_iter[CommPattern::Reduction] = 1;
  mod.flop_rel_tol = 0.02;
  return mod;
}

}  // namespace

void register_matvec_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "matrix-vector",
      .group = Group::LinearAlgebra,
      .versions = {Version::Basic, Version::Optimized, Version::Library,
                   Version::CMSSL},
      .local_access = LocalAccess::Direct,
      .layouts = {"X(:) X(:,:)", "X(:,:) X(:,:,:)",
                  "X(:serial,:) X(:serial,:serial,:)", "X(:,:) X(:serial,:,:)"},
      .techniques = {},
      .default_params = {{"n", 128}, {"m", 128}, {"iters", 8}, {"variant", 1},
                         {"inst", 8}},
      .run = run_matvec,
      .model = model_matvec,
      .paper_flops = "s,d: 2nmi; c,z: 8nmi",
      .paper_memory = "d: 8(n + nm + m)i; z: 16(n + nm + m)i",
      .paper_comm = "1 Broadcast, 1 Reduction",
  });
}

}  // namespace dpf::suite
