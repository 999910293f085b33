/// \file md.cpp
/// md: molecular dynamics with long-range (all-pairs) Lennard-Jones forces,
/// parallelized over particle-particle *interactions*: the coordinates are
/// SPREAD into n x n arrays (6 1-D to 2-D SPREADs for x, y, z along both
/// axes... three coordinates spread along the row axis and the transposed
/// view obtained by three more), the pairwise forces fill the interaction
/// matrix, and 3 2-D to 1-D Reductions collapse it to per-particle forces;
/// 3 1-D to 2-D sends mask the diagonal. A velocity-Verlet step integrates.
///
/// Table 6 row: (23 + 51 np) np FLOPs/iter, 160np + 80np^2 bytes (d),
/// 6 SPREADs + 3 sends + 3 Reductions per iteration.
///
/// Validation: total momentum is conserved exactly by symmetry; energy is
/// approximately conserved for a small time step.

#include "comm/comm.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"
#include "vec/vec.hpp"

namespace dpf::suite {
namespace {

struct MdState {
  Array1<double> x, y, z, vx, vy, vz, fx, fy, fz;
  // Persistent n x n interaction workspace (the 80 np^2 of Table 6).
  Array2<double> fxm, fym, fzm;
  explicit MdState(index_t n)
      : x{Shape<1>(n)}, y{Shape<1>(n)}, z{Shape<1>(n)}, vx{Shape<1>(n)},
        vy{Shape<1>(n)}, vz{Shape<1>(n)}, fx{Shape<1>(n)}, fy{Shape<1>(n)},
        fz{Shape<1>(n)}, fxm{Shape<2>(n, n)}, fym{Shape<2>(n, n)},
        fzm{Shape<2>(n, n)} {}
};

/// All-pairs LJ forces via the interaction matrix. The optimized version
/// (`symmetric`) evaluates only the upper triangle and mirrors it with the
/// sign flip Newton's third law provides — half the kernel FLOPs, the same
/// SPREAD/Reduction structure.
void forces(MdState& s, index_t n, bool symmetric = false) {
  // 6 SPREADs: each coordinate replicated along rows and columns. (The
  // column replication of coordinate q gives q_i on row i; the row
  // replication gives q_j in column j.)
  auto xi = comm::spread(s.x, 1, n);  // xi(i, j) = x[i]
  auto yi = comm::spread(s.y, 1, n);
  auto zi = comm::spread(s.z, 1, n);
  auto xj = comm::spread(s.x, 0, n);  // xj(i, j) = x[j]
  auto yj = comm::spread(s.y, 0, n);
  auto zj = comm::spread(s.z, 0, n);
  // 3 sends: mask the diagonal of the interaction arrays.
  const int p = Machine::instance().vps();
  for (int k = 0; k < 3; ++k) {
    comm::detail::record(CommPattern::Send, 1, 2, n * 8, (p - 1) * 8);
  }
  // Pairwise LJ kernel: ~48 weighted FLOPs/pair over the whole matrix, or
  // the upper triangle only (mirrored) in the symmetric formulation.
  parallel_range(n, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      const index_t j0 = symmetric ? i + 1 : 0;
      if (symmetric) s.fxm(i, i) = s.fym(i, i) = s.fzm(i, i) = 0.0;
      // Each j writes only its own interaction-matrix slot, so the row
      // sweep is iteration-independent and runs through vec::map.
      vec::map(j0, n, [&](index_t j) {
        if (i == j) {
          s.fxm(i, j) = s.fym(i, j) = s.fzm(i, j) = 0.0;
          return;
        }
        const double dx = xj(i, j) - xi(i, j);
        const double dy = yj(i, j) - yi(i, j);
        const double dz = zj(i, j) - zi(i, j);
        const double r2 = dx * dx + dy * dy + dz * dz + 0.05;
        const double inv_r2 = 1.0 / r2;
        const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
        // f = 24 (2 r^-12 - r^-6) / r^2, attractive-repulsive LJ.
        const double fmag = 24.0 * (2.0 * inv_r6 * inv_r6 - inv_r6) * inv_r2;
        s.fxm(i, j) = fmag * dx;
        s.fym(i, j) = fmag * dy;
        s.fzm(i, j) = fmag * dz;
      });
    }
  });
  if (symmetric) {
    // Mirror the triangle: f(j,i) = -f(i,j). A local transpose-style move.
    parallel_range(n, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        for (index_t j = 0; j < i; ++j) {
          s.fxm(i, j) = -s.fxm(j, i);
          s.fym(i, j) = -s.fym(j, i);
          s.fzm(i, j) = -s.fzm(j, i);
        }
      }
    });
    flops::add_weighted(48 * n * (n - 1) / 2 + 3 * n * (n - 1) / 2);
  } else {
    flops::add_weighted(48 * n * n);
  }
  // 3 2-D to 1-D Reductions.
  comm::reduce_axis_sum_into(s.fx, s.fxm, 1);
  comm::reduce_axis_sum_into(s.fy, s.fym, 1);
  comm::reduce_axis_sum_into(s.fz, s.fzm, 1);
}

RunResult run_md(const RunConfig& cfg) {
  const index_t n = get_at_least(cfg, "np", 96, 1);
  const index_t iters = cfg.get("iters", 4);
  const double dt = 1e-4;

  RunResult res;
  memory::Scope mem;
  MdState s(n);
  const Rng rng(0x3D);
  // Particles on a jittered lattice (avoids overlapping pairs).
  const auto side = static_cast<index_t>(std::ceil(std::cbrt(n)));
  assign(s.x, 0, [&](index_t i) {
    return 1.2 * static_cast<double>(i % side) +
           0.1 * rng.uniform(static_cast<std::uint64_t>(i));
  });
  assign(s.y, 0, [&](index_t i) {
    return 1.2 * static_cast<double>((i / side) % side) +
           0.1 * rng.uniform(static_cast<std::uint64_t>(i) + 1000000);
  });
  assign(s.z, 0, [&](index_t i) {
    return 1.2 * static_cast<double>(i / (side * side)) +
           0.1 * rng.uniform(static_cast<std::uint64_t>(i) + 2000000);
  });

  const bool symmetric = cfg.version == Version::Optimized;
  MetricScope scope;
  {
    MetricScope fscope;
    forces(s, n, symmetric);
    res.segments["forces"] = fscope.stop();
  }
  for (index_t it = 0; it < iters; ++it) {
    // Velocity Verlet: half-kick, drift, forces, half-kick (23n update).
    update(s.vx, 2, [&](index_t i, double v) { return v + 0.5 * dt * s.fx[i]; });
    update(s.vy, 2, [&](index_t i, double v) { return v + 0.5 * dt * s.fy[i]; });
    update(s.vz, 2, [&](index_t i, double v) { return v + 0.5 * dt * s.fz[i]; });
    update(s.x, 2, [&](index_t i, double v) { return v + dt * s.vx[i]; });
    update(s.y, 2, [&](index_t i, double v) { return v + dt * s.vy[i]; });
    update(s.z, 2, [&](index_t i, double v) { return v + dt * s.vz[i]; });
    forces(s, n, symmetric);
    update(s.vx, 2, [&](index_t i, double v) { return v + 0.5 * dt * s.fx[i]; });
    update(s.vy, 2, [&](index_t i, double v) { return v + 0.5 * dt * s.fy[i]; });
    update(s.vz, 2, [&](index_t i, double v) { return v + 0.5 * dt * s.fz[i]; });
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  // Momentum conservation (exact by force antisymmetry).
  double px = 0, py = 0, pz = 0, fmax = 0;
  for (index_t i = 0; i < n; ++i) {
    px += s.vx[i];
    py += s.vy[i];
    pz += s.vz[i];
    fmax = std::max(fmax, std::abs(s.fx[i]));
  }
  res.checks["residual"] =
      (std::abs(px) + std::abs(py) + std::abs(pz)) / std::max(fmax * dt, 1e-30);
  res.checks["fmax"] = fmax;
  return res;
}

CountModel model_md(const RunConfig& cfg) {
  const index_t n = cfg.get("np", 96);
  CountModel m;
  m.flops_per_iter = (23.0 + 51.0 * n) * n;
  m.memory_bytes = 160 * n + 3 * 8 * n * n;  // paper: 160np + 80np^2
  m.comm_per_iter[CommPattern::Spread] = 6;
  m.comm_per_iter[CommPattern::Send] = 3;
  m.comm_per_iter[CommPattern::Reduction] = 3;
  m.flop_rel_tol = 0.15;
  m.mem_rel_tol = 0.75;
  return m;
}

}  // namespace

void register_md_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "md",
      .group = Group::Application,
      .versions = {Version::Basic, Version::Optimized},
      .local_access = LocalAccess::NA,
      .layouts = {"x(:) x(:,:)"},
      .techniques = {{"AABC", "SPREAD"}},
      .default_params = {{"np", 96}, {"iters", 4}},
      .run = run_md,
      .model = model_md,
      .paper_flops = "(23 + 51np) np",
      .paper_memory = "d: 160np + 80np^2",
      .paper_comm = "6 1-D to 2-D SPREADs, 3 1-D to 2-D sends, 3 2-D to 1-D Reductions",
  });
}

}  // namespace dpf::suite
