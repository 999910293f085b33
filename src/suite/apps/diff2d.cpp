/// \file diff2d.cpp
/// diff-2D: solution of the 2-D diffusion equation by the alternating
/// direction implicit (ADI) method. Each half-step applies a 3-point
/// explicit stencil in one direction (array sections) and solves constant
/// tridiagonal systems along the other — kept local by transposing the grid
/// (the AAPC of Table 6) so the solve direction always lies along the
/// serial axis, where the Thomas recurrence runs with strided access.
///
/// Table 6 row: 10nx^2 - 16nx + 16 FLOPs/iter, 32nx^2 bytes (d),
/// 1 3-point Stencil + 1 AAPC per iteration, strided local access.

#include "comm/reduce.hpp"
#include "comm/stencil.hpp"
#include "comm/transpose.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

constexpr double kNu = 0.5;

/// Batched constant-coefficient Thomas solve along each row of rhs:
/// (I - nu/2 Lyy) x = rhs per row, with precomputed elimination factors.
/// 5 FLOPs per point (3 forward, 2 backward), strided local access.
void thomas_rows(Array2<double>& rhs, const std::vector<double>& cp,
                 const std::vector<double>& wp) {
  const index_t n0 = rhs.extent(0);
  const index_t n1 = rhs.extent(1);
  parallel_range(n0, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      // Forward sweep: d'_j = (d_j - a d'_{j-1}) * w_j with a = -nu/2.
      double prev = rhs(i, 0) * wp[0];
      rhs(i, 0) = prev;
      for (index_t j = 1; j < n1; ++j) {
        prev = (rhs(i, j) + 0.5 * kNu * prev) * wp[static_cast<std::size_t>(j)];
        rhs(i, j) = prev;
      }
      // Backward sweep: x_j = d'_j - c'_j x_{j+1}.
      for (index_t j = n1 - 1; j-- > 0;) {
        rhs(i, j) -= cp[static_cast<std::size_t>(j)] * rhs(i, j + 1);
      }
    }
  });
  flops::add(flops::Kind::AddSubMul, 5 * n0 * n1);
}

RunResult run_diff2d(const RunConfig& cfg) {
  const index_t nx = get_at_least(cfg, "nx", 64, 1);
  const index_t iters = cfg.get("iters", 8);

  RunResult res;
  memory::Scope mem;
  // 4 persistent fields = 32 bytes/pt: u, the stencil result, and the two
  // transpose-orientation buffers.
  Array2<double> u{Shape<2>(nx, nx),
                   Layout<2>(AxisKind::Serial, AxisKind::Parallel)};
  Array2<double> rhs{Shape<2>(nx, nx),
                     Layout<2>(AxisKind::Serial, AxisKind::Parallel)};
  Array2<double> ut{Shape<2>(nx, nx),
                    Layout<2>(AxisKind::Serial, AxisKind::Parallel)};
  Array2<double> rhst{Shape<2>(nx, nx),
                      Layout<2>(AxisKind::Serial, AxisKind::Parallel)};

  assign(u, 0, [&](index_t k) {
    const index_t i = k / nx;
    const index_t j = k % nx;
    const double x = static_cast<double>(i) / static_cast<double>(nx - 1);
    const double y = static_cast<double>(j) / static_cast<double>(nx - 1);
    return std::sin(M_PI * x) * std::sin(M_PI * y);
  });
  const double max0 = comm::reduce_max(u);

  // Precomputed Thomas factors for (1 + nu) on the diagonal, -nu/2 off.
  std::vector<double> cp(static_cast<std::size_t>(nx));
  std::vector<double> wp(static_cast<std::size_t>(nx));
  {
    double beta = 1.0 + kNu;
    wp[0] = 1.0 / beta;
    cp[0] = -0.5 * kNu * wp[0];
    for (index_t j = 1; j < nx; ++j) {
      beta = 1.0 + kNu + 0.5 * kNu * cp[static_cast<std::size_t>(j - 1)];
      wp[static_cast<std::size_t>(j)] = 1.0 / beta;
      cp[static_cast<std::size_t>(j)] =
          -0.5 * kNu * wp[static_cast<std::size_t>(j)];
    }
  }

  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    // Half-step A: explicit in x (3-point stencil down the columns),
    // implicit in y (Thomas along the rows, local).
    comm::stencil_interior(rhs, u, /*points=*/3, /*halo=*/1, /*flops=*/5,
                           [&](index_t c) {
                             return u[c] + 0.5 * kNu * (u[c - nx] -
                                                        2.0 * u[c] +
                                                        u[c + nx]);
                           });
    thomas_rows(rhs, cp, wp);
    // Transpose so the next half-step's implicit direction is again local
    // (the per-iteration AAPC of Table 6).
    comm::transpose_into(rhst, rhs);
    // Half-step B on the transposed grid.
    comm::stencil_interior(ut, rhst, 3, 1, 5,
                           [&](index_t c) {
                             return rhst[c] + 0.5 * kNu * (rhst[c - nx] -
                                                           2.0 * rhst[c] +
                                                           rhst[c + nx]);
                           });
    thomas_rows(ut, cp, wp);
    comm::transpose_into(u, ut);
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  const double max1 = comm::reduce_max(u);
  res.checks["decay"] = max1 / max0;
  res.checks["residual"] =
      (max1 < max0 && comm::reduce_min(u) > -1e-9) ? 0.0 : 1.0;
  return res;
}

CountModel model_diff2d(const RunConfig& cfg) {
  const index_t nx = cfg.get("nx", 64);
  CountModel m;
  m.flops_per_iter = 10.0 * nx * nx - 16.0 * nx + 16.0;
  m.memory_bytes = 32 * nx * nx;
  // One full ADI step = the paper's two half-iterations: 2 stencils,
  // 2 AAPCs; the model is stated per half-step.
  m.comm_per_iter[CommPattern::Stencil] = 1;
  m.comm_per_iter[CommPattern::AAPC] = 1;
  m.flop_rel_tol = 0.10;
  return m;
}

}  // namespace

void register_diff2d_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "diff-2D",
      .group = Group::Application,
      .versions = {Version::Basic, Version::Optimized},
      .local_access = LocalAccess::Strided,
      .layouts = {"x(:serial,:)"},
      .techniques = {{"Stencil", "Array sections"}},
      .default_params = {{"nx", 64}, {"iters", 8}},
      .run = run_diff2d,
      .model = model_diff2d,
      .paper_flops = "10nx^2 - 16nx + 16",
      .paper_memory = "d: 32nx^2",
      .paper_comm = "1 3-point Stencil, 1 AAPC",
  });
}

}  // namespace dpf::suite
