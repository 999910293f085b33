/// \file qcd_kernel.cpp
/// qcd-kernel: the staggered-fermion conjugate-gradient kernel of lattice
/// Quantum Chromo-Dynamics. The D-slash operator couples each site of a
/// 4-D space-time lattice to its 8 neighbours through SU(3) gauge links:
///   D psi(x) = sum_mu eta_mu(x)/2 [U_mu(x) psi(x+mu)
///                                  - U_mu(x-mu)^dagger psi(x-mu)],
/// realized with CSHIFTs of the (color-serial) spinor field along the four
/// lattice axes. The CG solves (m^2 - D^2) x = b, Hermitian positive
/// definite because D is anti-Hermitian.
///
/// Table 6 row: 606·nx·ny·nz·nt FLOPs/iter, 360·nx·ny·nz·nt·i bytes (s),
/// 4 CSHIFTs per iteration, direct local access.

#include <array>

#include "comm/comm.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

using Spinor = Array<complexd, 5>;  // (x, y, z, t, color)
using Gauge = Array<complexd, 6>;   // (x, y, z, t, row, col)

struct Lattice {
  index_t nx, ny, nz, nt;
  [[nodiscard]] index_t volume() const { return nx * ny * nz * nt; }
  [[nodiscard]] Shape<5> spinor_shape() const {
    return Shape<5>(nx, ny, nz, nt, 3);
  }
  [[nodiscard]] Layout<5> spinor_layout() const {
    return Layout<5>(AxisKind::Parallel, AxisKind::Parallel,
                     AxisKind::Parallel, AxisKind::Parallel, AxisKind::Serial);
  }
  [[nodiscard]] Shape<6> gauge_shape() const {
    return Shape<6>(nx, ny, nz, nt, 3, 3);
  }
  [[nodiscard]] Layout<6> gauge_layout() const {
    return Layout<6>(AxisKind::Parallel, AxisKind::Parallel,
                     AxisKind::Parallel, AxisKind::Parallel, AxisKind::Serial,
                     AxisKind::Serial);
  }
};

/// Random unitary 3x3 (Gram-Schmidt of a random complex matrix).
void random_unitary(const Rng& rng, std::uint64_t site,
                    std::array<complexd, 9>& u) {
  for (int i = 0; i < 9; ++i) {
    u[static_cast<std::size_t>(i)] =
        complexd(rng.uniform(site * 18 + static_cast<std::uint64_t>(2 * i),
                             -1, 1),
                 rng.uniform(site * 18 + static_cast<std::uint64_t>(2 * i + 1),
                             -1, 1));
  }
  for (int r = 0; r < 3; ++r) {
    for (int s = 0; s < r; ++s) {
      complexd proj{};
      for (int c = 0; c < 3; ++c) {
        proj += std::conj(u[static_cast<std::size_t>(3 * s + c)]) *
                u[static_cast<std::size_t>(3 * r + c)];
      }
      for (int c = 0; c < 3; ++c) {
        u[static_cast<std::size_t>(3 * r + c)] -=
            proj * u[static_cast<std::size_t>(3 * s + c)];
      }
    }
    double norm = 0;
    for (int c = 0; c < 3; ++c) {
      norm += std::norm(u[static_cast<std::size_t>(3 * r + c)]);
    }
    const double inv = 1.0 / std::sqrt(norm);
    for (int c = 0; c < 3; ++c) u[static_cast<std::size_t>(3 * r + c)] *= inv;
  }
}

struct QcdState {
  Lattice lat;
  std::array<Gauge, 4> u;
  explicit QcdState(const Lattice& l)
      : lat(l),
        u{Gauge(l.gauge_shape(), l.gauge_layout()),
          Gauge(l.gauge_shape(), l.gauge_layout()),
          Gauge(l.gauge_shape(), l.gauge_layout()),
          Gauge(l.gauge_shape(), l.gauge_layout())} {}
};

/// Staggered phase eta_mu at lattice coordinates.
[[nodiscard]] inline double eta(std::size_t mu, index_t x, index_t y,
                                index_t z) {
  index_t s = 0;
  if (mu >= 1) s += x;
  if (mu >= 2) s += y;
  if (mu >= 3) s += z;
  return (s % 2 == 0) ? 1.0 : -1.0;
}

/// out = D psi. 8 CSHIFTs (one per direction per sign) and ~600 FLOPs/site.
void dslash(const QcdState& st, const Spinor& psi, Spinor& out) {
  const Lattice& l = st.lat;
  Spinor fwd(l.spinor_shape(), l.spinor_layout(), MemKind::Temporary);
  Spinor chi(l.spinor_shape(), l.spinor_layout(), MemKind::Temporary);
  Spinor bwd(l.spinor_shape(), l.spinor_layout(), MemKind::Temporary);
  fill_par(out, complexd{});
  const index_t vol = l.volume();

  for (std::size_t mu = 0; mu < 4; ++mu) {
    // psi(x + mu): forward CSHIFT along axis mu.
    comm::cshift_into(fwd, psi, mu, +1);
    // chi(x) = U_mu(x)^dagger psi(x); then chi(x - mu) by backward CSHIFT.
    parallel_range(vol, [&](index_t lo, index_t hi) {
      for (index_t s = lo; s < hi; ++s) {
        const index_t base = s * 3;
        for (int r = 0; r < 3; ++r) {
          complexd acc{};
          for (int c = 0; c < 3; ++c) {
            acc += std::conj(st.u[mu][s * 9 + c * 3 + r]) * psi[base + c];
          }
          chi[base + r] = acc;
        }
      }
    });
    flops::add(flops::Kind::AddSubMul, vol * 66);
    comm::cshift_into(bwd, chi, mu, -1);
    // Accumulate eta/2 (U psi_fwd - bwd).
    parallel_range(vol, [&](index_t lo, index_t hi) {
      for (index_t s = lo; s < hi; ++s) {
        const index_t t3 = s % l.nt;
        const index_t z3 = (s / l.nt) % l.nz;
        const index_t y3 = (s / (l.nt * l.nz)) % l.ny;
        const index_t x3 = s / (l.nt * l.nz * l.ny);
        (void)t3;
        const double e = 0.5 * eta(mu, x3, y3, z3);
        const index_t base = s * 3;
        for (int r = 0; r < 3; ++r) {
          complexd acc{};
          for (int c = 0; c < 3; ++c) {
            acc += st.u[mu][s * 9 + r * 3 + c] * fwd[base + c];
          }
          out[base + r] += e * (acc - bwd[base + r]);
        }
      }
    });
    flops::add(flops::Kind::AddSubMul, vol * (66 + 3 * 6));
  }
}

/// The C/DPEAC version of D-slash (Table 1): a single fused sweep with
/// direct periodic-neighbour indexing — no shifted temporaries, the "finer
/// control over the underlying architecture" of section 1.2. The logical
/// communication (8 CSHIFT-equivalents per application) is recorded so the
/// comparison against the basic version stays apples-to-apples.
void dslash_fused(const QcdState& st, const Spinor& psi, Spinor& out) {
  const Lattice& l = st.lat;
  const index_t nx = l.nx, ny = l.ny, nz = l.nz, nt = l.nt;
  const index_t vol = l.volume();
  const int p = Machine::instance().vps();

  parallel_range(vol, [&](index_t lo, index_t hi) {
    for (index_t s = lo; s < hi; ++s) {
      const index_t t = s % nt;
      const index_t z = (s / nt) % nz;
      const index_t y = (s / (nt * nz)) % ny;
      const index_t x = s / (nt * nz * ny);
      const index_t coords[4] = {x, y, z, t};
      const index_t extents[4] = {nx, ny, nz, nt};
      const index_t strides4[4] = {ny * nz * nt, nz * nt, nt, 1};
      complexd acc[3] = {};
      for (std::size_t mu = 0; mu < 4; ++mu) {
        const index_t c = coords[mu];
        const index_t e = extents[mu];
        const index_t fwd = s + ((c + 1 == e) ? -(e - 1) * strides4[mu]
                                              : strides4[mu]);
        const index_t bwd = s - ((c == 0) ? -(e - 1) * strides4[mu]
                                          : strides4[mu]);
        const double ph = 0.5 * eta(mu, x, y, z);
        for (int r = 0; r < 3; ++r) {
          complexd f{}, b{};
          for (int cc = 0; cc < 3; ++cc) {
            f += st.u[mu][s * 9 + r * 3 + cc] * psi[fwd * 3 + cc];
            b += std::conj(st.u[mu][bwd * 9 + cc * 3 + r]) * psi[bwd * 3 + cc];
          }
          acc[r] += ph * (f - b);
        }
      }
      for (int r = 0; r < 3; ++r) out[s * 3 + r] = acc[r];
    }
  });
  flops::add(flops::Kind::AddSubMul, vol * (4 * (66 + 66 + 3 * 6)));
  for (int k = 0; k < 8; ++k) {
    comm::detail::record(CommPattern::CShift, 5, 5, vol * 3 * 16,
                         p > 1 ? p * comm::detail::slot_bytes(psi) : 0);
  }
}

/// Inner product of spinors: sum conj(a).b (recorded as a Reduction).
[[nodiscard]] complexd spinor_dot(const Spinor& a, const Spinor& b) {
  complexd total{};
  for (index_t i = 0; i < a.size(); ++i) total += std::conj(a[i]) * b[i];
  flops::add(flops::Kind::AddSubMul, 8 * a.size());
  comm::detail::record(CommPattern::Reduction, 5, 0, a.bytes(),
                       (Machine::instance().vps() - 1) * 16);
  return total;
}

RunResult run_qcd(const RunConfig& cfg) {
  const index_t n = cfg.get("n", 6);
  const index_t nt = cfg.get("nt", 6);
  const index_t iters = cfg.get("iters", 8);
  const double mass = 0.5;

  RunResult res;
  memory::Scope mem;
  Lattice lat{n, n, n, nt};
  QcdState st(lat);
  const Rng rng(0xACD);
  for (std::size_t mu = 0; mu < 4; ++mu) {
    parallel_range(lat.volume(), [&](index_t lo, index_t hi) {
      std::array<complexd, 9> u{};
      for (index_t s = lo; s < hi; ++s) {
        random_unitary(rng, static_cast<std::uint64_t>(s) * 4 + mu, u);
        for (int k = 0; k < 9; ++k) {
          st.u[mu][s * 9 + k] = u[static_cast<std::size_t>(k)];
        }
      }
    });
  }
  Spinor b(lat.spinor_shape(), lat.spinor_layout());
  Spinor x(lat.spinor_shape(), lat.spinor_layout());
  assign(b, 0, [&](index_t i) {
    return complexd(rng.uniform(static_cast<std::uint64_t>(i) + 7'000'000, -1, 1),
                    rng.uniform(static_cast<std::uint64_t>(i) + 9'000'000, -1, 1));
  });

  // CG on A = m^2 - D^2 (Hermitian positive definite).
  Spinor r(lat.spinor_shape(), lat.spinor_layout(), MemKind::Temporary);
  Spinor p(lat.spinor_shape(), lat.spinor_layout(), MemKind::Temporary);
  Spinor dp(lat.spinor_shape(), lat.spinor_layout(), MemKind::Temporary);
  Spinor ap(lat.spinor_shape(), lat.spinor_layout(), MemKind::Temporary);
  copy(b, r);  // x0 = 0
  copy(r, p);
  double rho = spinor_dot(r, r).real();
  const double rho0 = rho;

  // C/DPEAC version: the fused, temporary-free D-slash.
  const bool fused = cfg.version == Version::CDpeac;
  const auto apply_dslash = [&](const Spinor& in, Spinor& out) {
    if (fused) {
      dslash_fused(st, in, out);
    } else {
      dslash(st, in, out);
    }
  };

  MetricScope scope;
  SegmentTimer seg_dslash, seg_vector;
  for (index_t it = 0; it < iters; ++it) {
    seg_dslash.run([&] {
      apply_dslash(p, dp);
      apply_dslash(dp, ap);
    });
    seg_vector.run([&] {
      // ap = m^2 p - D(Dp).
      update(ap, 4, [&](index_t k, complexd v) {
        return mass * mass * p[k] - v;
      });
      const double pap = spinor_dot(p, ap).real();
      const double alpha = rho / pap;
      flops::add(flops::Kind::DivSqrt, 1);
      update(x, 4, [&](index_t k, complexd v) { return v + alpha * p[k]; });
      update(r, 4, [&](index_t k, complexd v) { return v - alpha * ap[k]; });
      const double rho_new = spinor_dot(r, r).real();
      const double beta = rho_new / rho;
      flops::add(flops::Kind::DivSqrt, 1);
      update(p, 4, [&](index_t k, complexd v) { return r[k] + beta * v; });
      rho = rho_new;
    });
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();
  res.segments["dslash"] = seg_dslash.total();
  res.segments["cg-vector"] = seg_vector.total();
  res.checks["residual_reduction"] = std::sqrt(rho / rho0);
  res.checks["residual"] = rho < rho0 ? 0.0 : 1.0;

  // Anti-Hermiticity spot check: Re<p, D p> must vanish.
  dslash(st, p, dp);
  const double aherm = std::abs(spinor_dot(p, dp).real()) /
                       std::max(1.0, std::abs(spinor_dot(p, p).real()));
  res.checks["antihermiticity"] = aherm;
  return res;
}

CountModel model_qcd(const RunConfig& cfg) {
  const index_t n = cfg.get("n", 6);
  const index_t nt = cfg.get("nt", 6);
  const index_t vol = n * n * n * nt;
  CountModel m;
  // Two D-slash applications per CG iteration at ~600 FLOPs/site each,
  // plus 3 inner products and 3 vector updates (~60/site): the paper's 606
  // counts a single D-slash pass.
  m.flops_per_iter = 2.0 * 606.0 * vol;
  // Paper: 360 vol (s). Ours (z gauge + spinors): 4 links x 144 + ~7
  // spinors x 48 = 912 bytes/site.
  m.memory_bytes = 2 * 360 * vol;
  m.comm_per_iter[CommPattern::CShift] = 16;  // paper: 4 per D-slash pass
  m.comm_per_iter[CommPattern::Reduction] = 2;
  m.flop_rel_tol = 0.35;
  m.mem_rel_tol = 0.45;
  return m;
}

}  // namespace

void register_qcd_kernel_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "qcd-kernel",
      .group = Group::Application,
      .versions = {Version::Basic, Version::CDpeac},
      .local_access = LocalAccess::Direct,
      .layouts = {"x(:serial,:,:,:,:,:)", "x(:serial,:serial,:,:,:,:,:)"},
      .techniques = {{"cshift", "spinor halo exchange along 4 axes"}},
      .default_params = {{"n", 6}, {"nt", 6}, {"iters", 8}},
      .run = run_qcd,
      .model = model_qcd,
      .paper_flops = "606 nx ny nz nt",
      .paper_memory = "s: 360 nx ny nz nt i",
      .paper_comm = "4 CSHIFTs",
  });
}

}  // namespace dpf::suite
