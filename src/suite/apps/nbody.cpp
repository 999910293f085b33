/// \file nbody.cpp
/// n-body: a generic direct 2-D N-body solver for long-range forces, in the
/// paper's eight algorithmic variants (Table 6): broadcast, spread and
/// cshift (systolic) formulations, each with and without padding ("fill"),
/// and the cshift variants additionally exploiting force symmetry
/// (Newton's third law).
///
/// Table 6 rows: 17n^2 FLOPs (broadcast/spread), 17n(n-1) (cshift),
/// 13.5n(n-1) + 17n·(n mod 2) (cshift w/symmetry); 3 Broadcasts / 3 SPREADs
/// / 3 CSHIFTs per iteration; 36n bytes (s), +fill variants 20n + 36m.
///
/// All variants must produce identical forces; the total force vanishes
/// (momentum conservation) — both are checked.

#include "comm/comm.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"
#include "vec/vec.hpp"

namespace dpf::suite {
namespace {

constexpr double kEps2 = 1e-4;  // softening

struct Particles {
  Array1<double> x, y, m, fx, fy;
  explicit Particles(index_t n)
      : x{Shape<1>(n)}, y{Shape<1>(n)}, m{Shape<1>(n)}, fx{Shape<1>(n)},
        fy{Shape<1>(n)} {}
};

/// The 17-FLOP pairwise kernel: softened gravity in 2-D.
inline void pair_force(double xi, double yi, double xj, double yj, double mj,
                       double& fx, double& fy) {
  const double dx = xj - xi;
  const double dy = yj - yi;
  const double r2 = dx * dx + dy * dy + kEps2;      // 5
  const double inv_r = 1.0 / std::sqrt(r2);         // 8 (div + sqrt)
  const double s = mj * inv_r * inv_r * inv_r;      // 3
  fx += s * dx;                                     // 2
  fy += s * dy;                                     // 2 -> 17 + accumulate
}

/// Variant: broadcast — iterate over particles, broadcasting each one's
/// coordinates and mass (3 Broadcasts per j-iteration).
void forces_broadcast(Particles& p, index_t n) {
  fill_par(p.fx, 0.0);
  fill_par(p.fy, 0.0);
  const int np = Machine::instance().vps();
  for (index_t j = 0; j < n; ++j) {
    const double xj = p.x[j], yj = p.y[j], mj = p.m[j];
    for (int b = 0; b < 3; ++b) {
      comm::detail::record(CommPattern::Broadcast, 0, 1, 8, (np - 1) * 8);
    }
    parallel_range(n, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        if (i == j) continue;
        double fx = 0, fy = 0;
        pair_force(p.x[i], p.y[i], xj, yj, mj, fx, fy);
        p.fx[i] += fx;
        p.fy[i] += fy;
      }
    });
    flops::add_weighted(17 * n);
  }
}

/// Variant: spread — build the n x n interaction arrays with 3 SPREADs and
/// reduce the rows.
void forces_spread(Particles& p, index_t n) {
  auto xs = comm::spread(p.x, 0, n);  // xs(i, j) = x[j]
  auto ys = comm::spread(p.y, 0, n);
  auto ms = comm::spread(p.m, 0, n);
  Array2<double> fxm(Shape<2>(n, n), Layout<2>{}, MemKind::Temporary);
  Array2<double> fym(Shape<2>(n, n), Layout<2>{}, MemKind::Temporary);
  parallel_range(n, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      // Row sweep writes only (i, j) slots: iteration-independent.
      vec::map(index_t{0}, n, [&](index_t j) {
        double fx = 0, fy = 0;
        if (i != j) {
          pair_force(p.x[i], p.y[i], xs(i, j), ys(i, j), ms(i, j), fx, fy);
        }
        fxm(i, j) = fx;
        fym(i, j) = fy;
      });
    }
  });
  flops::add_weighted(17 * n * n);
  comm::reduce_axis_sum_into(p.fx, fxm, 1);
  comm::reduce_axis_sum_into(p.fy, fym, 1);
}

/// Variant: cshift — systolic ring: a traveling copy of (x, y, m) rotates
/// n-1 times; 3 CSHIFTs per step, 17n FLOPs per step.
void forces_cshift(Particles& p, index_t n) {
  fill_par(p.fx, 0.0);
  fill_par(p.fy, 0.0);
  Array1<double> tx(p.x.shape(), p.x.layout(), MemKind::Temporary);
  Array1<double> ty(p.x.shape(), p.x.layout(), MemKind::Temporary);
  Array1<double> tm(p.x.shape(), p.x.layout(), MemKind::Temporary);
  copy(p.x, tx);
  copy(p.y, ty);
  copy(p.m, tm);
  for (index_t step = 1; step < n; ++step) {
    auto nx_ = comm::cshift(tx, 0, 1);
    auto ny_ = comm::cshift(ty, 0, 1);
    auto nm_ = comm::cshift(tm, 0, 1);
    tx = std::move(nx_);
    ty = std::move(ny_);
    tm = std::move(nm_);
    parallel_range(n, [&](index_t lo, index_t hi) {
      vec::map(lo, hi, [&](index_t i) {
        double fx = 0, fy = 0;
        pair_force(p.x[i], p.y[i], tx[i], ty[i], tm[i], fx, fy);
        p.fx[i] += fx;
        p.fy[i] += fy;
      });
    });
    flops::add_weighted(17 * n);
  }
}

/// Variant: cshift w/symmetry — rotate only half way, accumulating the
/// reaction force on the traveling copy (Newton's third law), then rotate
/// the traveling force accumulator home with one long CSHIFT.
void forces_cshift_sym(Particles& p, index_t n) {
  fill_par(p.fx, 0.0);
  fill_par(p.fy, 0.0);
  Array1<double> tx(p.x.shape(), p.x.layout(), MemKind::Temporary);
  Array1<double> ty(p.x.shape(), p.x.layout(), MemKind::Temporary);
  Array1<double> tm(p.x.shape(), p.x.layout(), MemKind::Temporary);
  Array1<double> tfx(p.x.shape(), p.x.layout(), MemKind::Temporary);
  Array1<double> tfy(p.x.shape(), p.x.layout(), MemKind::Temporary);
  copy(p.x, tx);
  copy(p.y, ty);
  copy(p.m, tm);
  fill_par(tfx, 0.0);
  fill_par(tfy, 0.0);
  const index_t half = (n - 1) / 2;
  for (index_t step = 1; step <= half; ++step) {
    auto nx_ = comm::cshift(tx, 0, 1);
    auto ny_ = comm::cshift(ty, 0, 1);
    auto nm_ = comm::cshift(tm, 0, 1);
    auto nfx_ = comm::cshift(tfx, 0, 1);
    auto nfy_ = comm::cshift(tfy, 0, 1);
    tx = std::move(nx_);
    ty = std::move(ny_);
    tm = std::move(nm_);
    tfx = std::move(nfx_);
    tfy = std::move(nfy_);
    parallel_range(n, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        double fx = 0, fy = 0;
        pair_force(p.x[i], p.y[i], tx[i], ty[i], tm[i], fx, fy);
        // Action on i, scaled reaction on the traveler (who carries mass
        // m[i+step]; the symmetric kernel splits as m_j vs m_i factors).
        // Zero-mass fill particles exert no force and receive no reaction.
        p.fx[i] += fx;
        p.fy[i] += fy;
        if (tm[i] != 0.0) {
          const double ratio = p.m[i] / tm[i];
          tfx[i] -= fx * ratio;
          tfy[i] -= fy * ratio;
        }
      }
    });
    flops::add_weighted(21 * n);
  }
  // Even n: one extra half-step where each pair is counted once.
  if ((n - 1) % 2 == 1) {
    auto nx_ = comm::cshift(tx, 0, 1);
    auto ny_ = comm::cshift(ty, 0, 1);
    auto nm_ = comm::cshift(tm, 0, 1);
    tx = std::move(nx_);
    ty = std::move(ny_);
    tm = std::move(nm_);
    parallel_range(n, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        double fx = 0, fy = 0;
        pair_force(p.x[i], p.y[i], tx[i], ty[i], tm[i], fx, fy);
        p.fx[i] += fx;
        p.fy[i] += fy;
      }
    });
    flops::add_weighted(17 * n);
  }
  // Send the traveling reaction forces home: they sit at offset half+? and
  // belong to the particle they accumulated against.
  auto hfx = comm::cshift(tfx, 0, -static_cast<index_t>(half));
  auto hfy = comm::cshift(tfy, 0, -static_cast<index_t>(half));
  update(p.fx, 1, [&](index_t i, double v) { return v + hfx[i]; });
  update(p.fy, 1, [&](index_t i, double v) { return v + hfy[i]; });
}

/// Smallest power of two >= n (the padding target of the "w/fill"
/// variants, which trade wasted slots for friendlier layouts).
index_t pad_size(index_t n) {
  index_t m = 1;
  while (m < n) m *= 2;
  return m;
}

RunResult run_nbody(const RunConfig& cfg) {
  const index_t n = get_at_least(cfg, "n", 128, 1);
  // Variants 0-3: broadcast, spread, cshift, cshift w/symmetry.
  // Variants 4-7: the same four with "fill" — the particle arrays are
  // padded to a power of two with zero-mass particles (Table 6's
  // "w/fill" rows, memory 20n + 36m). The optimized code version
  // defaults to the symmetry variant (fewest FLOPs).
  const index_t variant = get_in_range(
      cfg, "variant", cfg.version == Version::Optimized ? 3 : 0, 0, 7);
  const index_t iters = cfg.get("iters", 2);
  const bool fill = variant >= 4;
  const index_t base_variant = variant % 4;
  const index_t m_ext = fill ? pad_size(n) : n;

  RunResult res;
  memory::Scope mem;
  Particles p(m_ext);
  const Rng rng(0x4E);
  assign(p.x, 0, [&](index_t i) {
    // Fill slots sit on a distant shell; their zero mass silences them.
    if (i >= n) return 100.0 + static_cast<double>(i);
    return rng.uniform(static_cast<std::uint64_t>(i), -1, 1);
  });
  assign(p.y, 0, [&](index_t i) {
    if (i >= n) return 100.0;
    return rng.uniform(static_cast<std::uint64_t>(i) + 500000, -1, 1);
  });
  assign(p.m, 0, [&](index_t i) {
    if (i >= n) return 0.0;
    return 0.5 + rng.uniform(static_cast<std::uint64_t>(i) + 900000);
  });

  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    switch (base_variant) {
      case 1: forces_spread(p, m_ext); break;
      case 2: forces_cshift(p, m_ext); break;
      case 3: forces_cshift_sym(p, m_ext); break;
      default: forces_broadcast(p, m_ext); break;
    }
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  // Momentum conservation: sum of m_i * a_i = sum of forces = 0... our
  // kernel computes acceleration-like f (mass of source only), so the
  // conserved quantity is sum_i m_i f_i.
  double px = 0, py = 0, fmax = 0;
  for (index_t i = 0; i < n; ++i) {
    px += p.m[i] * p.fx[i];
    py += p.m[i] * p.fy[i];
    fmax = std::max({fmax, std::abs(p.fx[i]), std::abs(p.fy[i])});
  }
  res.checks["residual"] =
      (std::abs(px) + std::abs(py)) / std::max(fmax, 1e-30);
  res.checks["fx0"] = p.fx[0];
  res.checks["fy0"] = p.fy[0];
  res.checks["fmax"] = fmax;
  return res;
}

CountModel model_nbody(const RunConfig& cfg) {
  const index_t raw_n = cfg.get("n", 128);
  const index_t variant_full =
      cfg.get("variant", cfg.version == Version::Optimized ? 3 : 0);
  const bool fill = variant_full >= 4;
  // HPF masked semantics: fill variants compute over the padded extent.
  const index_t n = fill ? pad_size(raw_n) : raw_n;
  const index_t variant = variant_full % 4;
  CountModel m;
  // Five double arrays of the (padded) extent; the paper's fill rows are
  // 20n + 36m in single precision.
  m.memory_bytes = 5 * 8 * n;
  switch (variant) {
    case 1:
      m.flops_per_iter = 17.0 * n * n;
      m.comm_per_iter[CommPattern::Spread] = 3;
      m.comm_per_iter[CommPattern::Reduction] = 2;
      break;
    case 2:
      m.flops_per_iter = 17.0 * n * (n - 1);
      m.comm_per_iter[CommPattern::CShift] = 3 * (n - 1);
      break;
    case 3:
      m.flops_per_iter = 13.5 * n * (n - 1) + 17.0 * n * (n % 2);
      // 5 CSHIFTs per half-step plus the homing shifts.
      m.comm_per_iter[CommPattern::CShift] = 5 * ((n - 1) / 2) +
                                             3 * ((n - 1) % 2) + 2;
      break;
    default:
      m.flops_per_iter = 17.0 * n * n;
      m.comm_per_iter[CommPattern::Broadcast] = 3 * n;
      break;
  }
  m.flop_rel_tol = variant == 3 ? 0.25 : 0.05;
  m.mem_rel_tol = 0.05;
  return m;
}

}  // namespace

void register_nbody_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "n-body",
      .group = Group::Application,
      .versions = {Version::Basic, Version::Optimized},
      .local_access = LocalAccess::Direct,
      .layouts = {"x(:serial,:)"},
      .techniques = {{"AABC", "CSHIFT, SPREAD, broadcast"}},
      .default_params = {{"n", 128}, {"iters", 2}},
      .run = run_nbody,
      .model = model_nbody,
      .paper_flops = "17n^2 (broadcast/spread); 17n(n-1) (cshift); "
                     "13.5n(n-1) + 17n mod(n,2) (w/symmetry)",
      .paper_memory = "s: 36n; w/fill: 20n + 36m",
      .paper_comm = "3 Broadcasts / 3 SPREADs / 3 CSHIFTs (2.5 w/sym.fill)",
  });
}

}  // namespace dpf::suite
