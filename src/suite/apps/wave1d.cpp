/// \file wave1d.cpp
/// wave-1D: simulation of the inhomogeneous 1-D wave equation
/// u_tt = c(x)^2 u_xx on a periodic domain by a leapfrog scheme. The
/// second derivative blends a spectral evaluation (2 FFTs per step) with a
/// sixth-order CSHIFT difference (±1, ±2, ±3 — 6 CSHIFTs), and a
/// sixth-difference artificial dissipation on the new field (6 more
/// CSHIFTs) suppresses the odd-even leapfrog mode: 12 CSHIFTs + 2 FFTs
/// per iteration, the paper's inventory.
///
/// Table 6 row: 29nx + 10nx·log(nx) FLOPs/iter, 64nx bytes (d),
/// 12 CSHIFTs + 2 1-D FFTs per iteration.

#include "comm/cshift.hpp"
#include "comm/reduce.hpp"
#include "la/fft.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

RunResult run_wave1d(const RunConfig& cfg) {
  const index_t nx = get_power_of_two(cfg, "nx", 256);
  const index_t iters = cfg.get("iters", 16);
  const double dt = 0.2 / static_cast<double>(nx);

  RunResult res;
  memory::Scope mem;
  // 8 doubles/point = 64 bytes: u, u_prev, u_new, c2, and the complex
  // spectral workspace (2 doubles/point each counted once) + filter field.
  Array1<double> u{Shape<1>(nx)};
  Array1<double> uprev{Shape<1>(nx)};
  Array1<double> unew{Shape<1>(nx)};
  Array1<double> c2{Shape<1>(nx)};
  Array1<complexd> spec{Shape<1>(nx)};
  Array1<double> uxx{Shape<1>(nx)};

  const double two_pi = 2.0 * M_PI;
  assign(c2, 0, [&](index_t i) {
    const double x = static_cast<double>(i) / static_cast<double>(nx);
    return 1.0 + 0.3 * std::sin(two_pi * x);  // inhomogeneous wave speed
  });
  assign(u, 0, [&](index_t i) {
    const double x = static_cast<double>(i) / static_cast<double>(nx);
    return std::sin(two_pi * x) + 0.5 * std::sin(2.0 * two_pi * x);
  });
  copy(u, uprev);  // zero initial velocity

  auto energy = [&] {
    double e = 0;
    for (index_t i = 0; i < nx; ++i) {
      const double ut = (u[i] - uprev[i]) / dt;
      const double ux =
          (u[(i + 1) % nx] - u[(i + nx - 1) % nx]) * 0.5 * nx;
      e += 0.5 * ut * ut + 0.5 * c2[i] * ux * ux;
    }
    return e / static_cast<double>(nx);
  };
  const double e0 = energy();

  // Basic version: the literal CSHIFT-ladder FFT; library version: the
  // scientific library's fused transform.
  const bool lib_fft = cfg.version != Version::Basic;
  const auto do_fft = [&](Array1<complexd>& s, la::FftDirection d) {
    if (lib_fft) {
      la::fft_1d(s, d);
    } else {
      la::fft_1d_basic(s, d);
    }
  };

  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    // Spectral second derivative: FFT, multiply by -k^2, inverse FFT.
    assign(spec, 0, [&](index_t i) { return complexd(u[i], 0.0); });
    do_fft(spec, la::FftDirection::Forward);
    update(spec, 2, [&](index_t i, complexd v) {
      const double k = (i <= nx / 2) ? static_cast<double>(i)
                                     : static_cast<double>(i - nx);
      const double w = -(two_pi * k) * (two_pi * k);
      return v * w;
    });
    do_fft(spec, la::FftDirection::Inverse);
    assign(uxx, 0, [&](index_t i) { return spec[i].real(); });

    // Sixth-order CSHIFT second derivative (6 CSHIFTs on u), blended with
    // the spectral one — the inhomogeneous-coefficient part of the
    // operator is better behaved on the difference form.
    // The six stencil shifts are independent, so they run split-phase as a
    // pipeline: every start posts its boundary messages and copies its
    // local elements, overlapping the earlier shifts' in-flight windows;
    // the finishes then drain the remote halos in order.
    Array1<double> up1(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> um1(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> up2(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> um2(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> up3(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> um3(u.shape(), u.layout(), MemKind::Temporary);
    {
      auto hp1 = comm::cshift_start(up1, u, 0, +1);
      auto hm1 = comm::cshift_start(um1, u, 0, -1);
      auto hp2 = comm::cshift_start(up2, u, 0, +2);
      auto hm2 = comm::cshift_start(um2, u, 0, -2);
      auto hp3 = comm::cshift_start(up3, u, 0, +3);
      auto hm3 = comm::cshift_start(um3, u, 0, -3);
      hp1.finish();
      hm1.finish();
      hp2.finish();
      hm2.finish();
      hp3.finish();
      hm3.finish();
    }
    const double inv_h2 = static_cast<double>(nx) * static_cast<double>(nx);
    Array1<double> uxx_fd(u.shape(), u.layout(), MemKind::Temporary);
    assign(uxx_fd, 12, [&](index_t i) {
      return inv_h2 * ((up3[i] + um3[i]) / 90.0 -
                       0.15 * (up2[i] + um2[i]) + 1.5 * (up1[i] + um1[i]) -
                       (49.0 / 18.0) * u[i]);
    });

    // Leapfrog update with the blended derivative.
    assign(unew, 9, [&](index_t i) {
      const double mix = 0.5 * (uxx[i] + uxx_fd[i]);
      return 2.0 * u[i] - uprev[i] + dt * dt * c2[i] * mix;
    });
    // Sixth-difference artificial dissipation on the new field (6 more
    // CSHIFTs) kills the odd-even leapfrog mode.
    Array1<double> np1(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> nm1(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> np2(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> nm2(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> np3(u.shape(), u.layout(), MemKind::Temporary);
    Array1<double> nm3(u.shape(), u.layout(), MemKind::Temporary);
    {
      auto hp1 = comm::cshift_start(np1, unew, 0, +1);
      auto hm1 = comm::cshift_start(nm1, unew, 0, -1);
      auto hp2 = comm::cshift_start(np2, unew, 0, +2);
      auto hm2 = comm::cshift_start(nm2, unew, 0, -2);
      auto hp3 = comm::cshift_start(np3, unew, 0, +3);
      auto hm3 = comm::cshift_start(nm3, unew, 0, -3);
      hp1.finish();
      hm1.finish();
      hp2.finish();
      hm2.finish();
      hp3.finish();
      hm3.finish();
    }
    copy(u, uprev);
    constexpr double eps = 1.0 / 256.0;
    assign(u, 12, [&](index_t i) {
      const double d6 = -(np3[i] + nm3[i]) + 6.0 * (np2[i] + nm2[i]) -
                        15.0 * (np1[i] + nm1[i]) + 20.0 * unew[i];
      return unew[i] - eps * d6;
    });
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  const double e1 = energy();
  res.checks["energy_ratio"] = e1 / e0;
  // Leapfrog with weak dissipation: energy approximately conserved
  // (bounded above by the initial energy, not drained).
  res.checks["residual"] =
      (std::isfinite(e1) && e1 < 1.2 * e0 && e1 > 0.3 * e0) ? 0.0 : 1.0;
  return res;
}

CountModel model_wave1d(const RunConfig& cfg) {
  const index_t nx = cfg.get("nx", 256);
  CountModel m;
  m.flops_per_iter =
      29.0 * nx + 10.0 * nx * std::log2(static_cast<double>(nx));
  m.memory_bytes = 64 * nx;
  // 12 explicit CSHIFTs plus the two FFTs' internal butterfly exchanges
  // (2 per stage, log2(nx) stages each); the paper reports the FFTs as
  // composite units ("2 1-D FFTs").
  const auto lg = static_cast<index_t>(std::log2(static_cast<double>(nx)));
  m.comm_per_iter[CommPattern::CShift] = 12 + 2 * 2 * lg;
  m.comm_per_iter[CommPattern::AAPC] = 2;  // the two FFTs' reorderings
  m.flop_rel_tol = 0.35;
  m.mem_rel_tol = 0.25;
  return m;
}

}  // namespace

void register_wave1d_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "wave-1D",
      .group = Group::Application,
      .versions = {Version::Basic, Version::Library},
      .local_access = LocalAccess::NA,
      .layouts = {"x(:)"},
      .techniques = {{"Stencil", "CSHIFT"}, {"Butterfly", "1-D FFT"}},
      .default_params = {{"nx", 256}, {"iters", 16}},
      .run = run_wave1d,
      .model = model_wave1d,
      .paper_flops = "29nx + 10nx log nx",
      .paper_memory = "d: 64nx",
      .paper_comm = "12 CSHIFTs, 2 1-D FFTs",
  });
}

}  // namespace dpf::suite
