/// \file ks_spectral.cpp
/// ks-spectral: integration of the Kuramoto-Sivashinsky equation
/// u_t = -u u_x - u_xx - u_xxxx on a periodic domain by a Fourier spectral
/// method with integrating-factor RK4 time stepping: ne independent
/// ensemble members integrated simultaneously as the rows of a 2-D array.
/// Each RK stage evaluates the nonlinear term pseudo-spectrally (one
/// inverse + one forward batched 1-D FFT), so one step performs the
/// paper's "8 1-D FFTs on 2-D arrays".
///
/// Table 6 row: (76 + 40 log2 nx)·nx·ne FLOPs/iter, 144·nx·ne bytes (d).

#include "la/fft.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

using Spec = Array2<complexd>;

/// Nonlinear term in Fourier space: N(u_hat) = -(ik/2) FFT(IFFT(u_hat)^2).
/// Two batched FFTs + 8 FLOPs/point of arithmetic.
void nonlinear(const Spec& uhat, Spec& out, const Array1<double>& kvec) {
  Spec phys(uhat.shape(), uhat.layout(), MemKind::Temporary);
  copy(uhat, phys);
  la::fft_rows(phys, la::FftDirection::Inverse);
  const index_t nx = uhat.extent(1);
  // u^2 in physical space (real payload): 1 multiply per point... complex
  // square costs 6 but the imaginary part is ~0; we keep the full complex
  // op as the data-parallel code would.
  update(phys, 6, [&](index_t, complexd v) { return v * v; });
  la::fft_rows(phys, la::FftDirection::Forward);
  assign(out, 2, [&](index_t k) {
    const double kk = kvec[k % nx];
    return complexd(0.0, -0.5 * kk) * phys[k];
  });
}

RunResult run_ks(const RunConfig& cfg) {
  const index_t nx = get_power_of_two(cfg, "nx", 128);
  const index_t ne = cfg.get("ne", 4);
  const index_t iters = cfg.get("iters", 8);
  const double dt = 0.05;
  const double length = 32.0 * M_PI;

  RunResult res;
  memory::Scope mem;
  Spec uhat{Shape<2>(ne, nx)};
  Array1<double> kvec{Shape<1>(nx)};
  Array1<double> efac{Shape<1>(nx)};   // exp(L dt/2)
  Array1<double> efac2{Shape<1>(nx)};  // exp(L dt)
  assign(kvec, 0, [&](index_t i) {
    const double m = (i <= nx / 2) ? static_cast<double>(i)
                                   : static_cast<double>(i - nx);
    return 2.0 * M_PI * m / length;
  });
  assign(efac, 10, [&](index_t i) {
    const double k2 = kvec[i] * kvec[i];
    const double lin = k2 - k2 * k2;  // -u_xx - u_xxxx in Fourier space
    return std::exp(lin * dt / 2.0);
  });
  assign(efac2, 2, [&](index_t i) { return efac[i] * efac[i]; });

  // Initial condition: a couple of low modes per ensemble member.
  const Rng rng(0x6B);
  Spec u0(uhat.shape(), uhat.layout(), MemKind::Temporary);
  assign(u0, 0, [&](index_t k) {
    const index_t e = k / nx;
    const index_t i = k % nx;
    const double x = length * static_cast<double>(i) / static_cast<double>(nx);
    const double phase = rng.uniform(static_cast<std::uint64_t>(e), 0, 2 * M_PI);
    return complexd(std::cos(x * 2.0 * 2.0 * M_PI / length + phase) +
                        0.1 * std::sin(x * 5.0 * 2.0 * M_PI / length),
                    0.0);
  });
  copy(u0, uhat);
  la::fft_rows(uhat, la::FftDirection::Forward);
  // Mean mode per member, conserved by KS dynamics (N has zero at k=0 and
  // the linear factor is 1 there).
  std::vector<double> mean0(static_cast<std::size_t>(ne));
  for (index_t e = 0; e < ne; ++e) mean0[static_cast<std::size_t>(e)] = uhat(e, 0).real();

  Spec n1(uhat.shape(), uhat.layout(), MemKind::Temporary);
  Spec n2(uhat.shape(), uhat.layout(), MemKind::Temporary);
  Spec n3(uhat.shape(), uhat.layout(), MemKind::Temporary);
  Spec n4(uhat.shape(), uhat.layout(), MemKind::Temporary);
  Spec stage(uhat.shape(), uhat.layout(), MemKind::Temporary);

  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    // Integrating-factor RK4: v = E u; 4 nonlinear evaluations = 8 FFTs.
    nonlinear(uhat, n1, kvec);
    assign(stage, 4, [&](index_t k) {
      return (uhat[k] + 0.5 * dt * n1[k]) * efac[k % nx];
    });
    nonlinear(stage, n2, kvec);
    assign(stage, 4, [&](index_t k) {
      return uhat[k] * efac[k % nx] + 0.5 * dt * n2[k];
    });
    nonlinear(stage, n3, kvec);
    assign(stage, 4, [&](index_t k) {
      return uhat[k] * efac2[k % nx] + dt * n3[k] * efac[k % nx];
    });
    nonlinear(stage, n4, kvec);
    assign(uhat, 14, [&](index_t k) {
      const index_t i = k % nx;
      const complexd incr =
          (n1[k] * efac2[i] + 2.0 * efac[i] * (n2[k] + n3[k]) + n4[k]) *
          (dt / 6.0);
      return uhat[k] * efac2[i] + incr;
    });
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  double mean_drift = 0.0, max_amp = 0.0;
  for (index_t e = 0; e < ne; ++e) {
    mean_drift = std::max(
        mean_drift,
        std::abs(uhat(e, 0).real() - mean0[static_cast<std::size_t>(e)]));
    for (index_t i = 0; i < nx; ++i) {
      max_amp = std::max(max_amp, std::abs(uhat(e, i)));
    }
  }
  res.checks["mean_drift"] = mean_drift;
  res.checks["max_amplitude"] = max_amp;
  res.checks["residual"] =
      (std::isfinite(max_amp) && mean_drift < 1e-8) ? 0.0 : 1.0;
  return res;
}

CountModel model_ks(const RunConfig& cfg) {
  const index_t nx = cfg.get("nx", 128);
  const index_t ne = cfg.get("ne", 4);
  CountModel m;
  m.flops_per_iter =
      (76.0 + 40.0 * std::log2(static_cast<double>(nx))) * nx * ne;
  m.memory_bytes = 144 * nx * ne;
  // 8 batched FFTs: each is one AAPC (reorder) + 2 CSHIFTs per stage.
  const auto lg = static_cast<index_t>(std::log2(static_cast<double>(nx)));
  m.comm_per_iter[CommPattern::AAPC] = 8;
  m.comm_per_iter[CommPattern::CShift] = 8 * 2 * lg;
  m.flop_rel_tol = 0.35;
  m.mem_rel_tol = 0.90;
  return m;
}

}  // namespace

void register_ks_spectral_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "ks-spectral",
      .group = Group::Application,
      .versions = {Version::Basic, Version::Library},
      .local_access = LocalAccess::NA,
      .layouts = {"x(:,:)"},
      .techniques = {{"Butterfly", "batched 1-D FFTs on 2-D arrays"}},
      .default_params = {{"nx", 128}, {"ne", 4}, {"iters", 8}},
      .run = run_ks,
      .model = model_ks,
      .paper_flops = "(76 + 40 log2 nx) nx ne",
      .paper_memory = "d: 144 nx ne",
      .paper_comm = "8 1-D FFTs on 2-D arrays",
  });
}

}  // namespace dpf::suite
