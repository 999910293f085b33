/// \file diff3d.cpp
/// diff-3D: solution of the diffusion (heat) equation in 3-D by an explicit
/// finite-difference method on a structured grid with constant (Dirichlet)
/// boundary conditions. The 7-point stencil is expressed with array
/// sections (Table 8), so interior elements update in one fused sweep.
///
/// Table 6 row: 9(nx-2)(ny-2)(nz-2) FLOPs/iter, 8·nx·ny·nz bytes (d),
/// 1 7-point Stencil per iteration, local access N/A.

#include "comm/reduce.hpp"
#include "comm/stencil.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

RunResult run_diff3d(const RunConfig& cfg) {
  const index_t nx = get_at_least(cfg, "nx", 32, 1);
  const index_t ny = get_at_least(cfg, "ny", 32, 1);
  const index_t nz = get_at_least(cfg, "nz", 32, 1);
  const index_t iters = cfg.get("iters", 8);
  const double nu = 0.1;  // diffusion number (stable: < 1/6)

  RunResult res;
  memory::Scope mem;
  Array3<double> u{Shape<3>(nx, ny, nz)};
  // Hot interior block, cold (zero) Dirichlet boundary.
  assign(u, 0, [&](index_t lin) {
    const index_t i = lin / (ny * nz);
    const index_t rest = lin % (ny * nz);
    const index_t j = rest / nz;
    const index_t k = rest % nz;
    const bool hot = i > nx / 4 && i < 3 * nx / 4 && j > ny / 4 &&
                     j < 3 * ny / 4 && k > nz / 4 && k < 3 * nz / 4;
    return hot ? 1.0 : 0.0;
  });
  const double total0 = comm::reduce_sum(u);
  const double max0 = comm::reduce_max(u);

  Array3<double> un(u.shape(), u.layout(), MemKind::Temporary);
  copy(u, un);
  const index_t sy = nz;
  const index_t sx = ny * nz;

  MetricScope scope;
  // Ping-pong the two buffers instead of copying un back each step: the
  // stencil writes only the interior and both buffers start with identical
  // (never-rewritten) boundaries, so swapping roles is exact.
  Array3<double>* cur = &u;
  Array3<double>* nxt = &un;
  for (index_t it = 0; it < iters; ++it) {
    // One 7-point stencil sweep over the interior: exactly 9 FLOPs/point
    // (5 adds for the neighbour sum, -6u as one multiply and one subtract,
    // the nu scaling and the final accumulate).
    const Array3<double>& s = *cur;
    comm::stencil_interior(*nxt, s, /*points=*/7, /*halo=*/1, /*flops=*/9,
                           [&](index_t c) {
                             const double nbrs = s[c - sx] + s[c + sx] +
                                                 s[c - sy] + s[c + sy] +
                                                 s[c - 1] + s[c + 1];
                             return s[c] + nu * (nbrs - 6.0 * s[c]);
                           });
    std::swap(cur, nxt);
  }
  if (cur != &u) copy(*cur, u);
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  // Maximum principle: diffusion with a stable step cannot exceed the
  // initial bounds; total heat only leaks through the cold boundary.
  res.checks["max_after"] = comm::reduce_max(u);
  res.checks["max_before"] = max0;
  res.checks["heat_ratio"] = comm::reduce_sum(u) / total0;
  res.checks["residual"] =
      std::max(0.0, comm::reduce_max(u) - max0);  // must stay <= max0
  return res;
}

CountModel model_diff3d(const RunConfig& cfg) {
  const index_t nx = cfg.get("nx", 32);
  const index_t ny = cfg.get("ny", 32);
  const index_t nz = cfg.get("nz", 32);
  CountModel m;
  m.flops_per_iter =
      9.0 * static_cast<double>((nx - 2) * (ny - 2) * (nz - 2));
  m.memory_bytes = 8 * nx * ny * nz;
  m.comm_per_iter[CommPattern::Stencil] = 1;
  m.flop_rel_tol = 0.001;  // exact by construction
  return m;
}

}  // namespace

void register_diff3d_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "diff-3D",
      .group = Group::Application,
      .versions = {Version::Basic, Version::Optimized},
      .local_access = LocalAccess::NA,
      .layouts = {"x(:,:,:)"},
      .techniques = {{"Stencil", "Array sections"}},
      .default_params = {{"nx", 32}, {"ny", 32}, {"nz", 32}, {"iters", 8}},
      .run = run_diff3d,
      .model = model_diff3d,
      .paper_flops = "9(nx-2)(ny-2)(nz-2)",
      .paper_memory = "d: 8 nx ny nz",
      .paper_comm = "1 7-point Stencil",
  });
}

}  // namespace dpf::suite
