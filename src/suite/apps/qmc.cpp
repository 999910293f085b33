/// \file qmc.cpp
/// qmc: a Green's-function (diffusion) quantum Monte-Carlo code: an
/// ensemble of random walkers samples the ground state of an
/// np-particle, nd-dimensional harmonic oscillator. Each block performs
/// diffusion moves (Gaussian steps from the counter-based generator),
/// local-energy evaluation, and branching population control: the integer
/// copy counts are turned into output slots with a (segmented) sum scan
/// and the surviving walkers are routed with general sends — the paper's
/// "(np nd + 4) Scans, (np nd + 1) Sends" pattern class (section 4,
/// class 9: random-walk Monte Carlo).
///
/// Table 6 row: [(42 + 2 n_o n_maxw) np nd nw ne + (142 n_o + 251) nw ne]
/// n_b FLOPs, 16 np nd + 96 nw ne n_maxw bytes (d); SPREADs 3-D to 1-D,
/// 5 Reductions 2-D to 1-D, Scans on 2-D, Sends, 3 Reductions to scalar.
///
/// Validation: the mean local energy converges to the exact ground-state
/// energy np * nd / 2 (hbar = omega = m = 1) within statistical error.

#include "comm/comm.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

RunResult run_qmc(const RunConfig& cfg) {
  const index_t np = cfg.get("np", 2);    // particles per walker
  const index_t nd = cfg.get("nd", 3);    // dimensions
  // Target walker population. Branching keeps at least 8 walkers alive in
  // a capacity of 2 nw slots, so nw < 4 would write past the arrays.
  const index_t nw = get_at_least(cfg, "nw", 512, 4);
  const index_t blocks = cfg.get("iters", 24);
  const double dt = 0.05;
  // Trial function psi_T = exp(-alpha x^2), deliberately off the exact
  // alpha = 1/2 so the branching does real work.
  constexpr double alpha = 0.45;
  const index_t dof = np * nd;
  const index_t cap = 2 * nw;  // walker array capacity

  RunResult res;
  memory::Scope mem;
  // Walker coordinates: (walker slot, dof), walkers parallel.
  Array2<double> xw{Shape<2>(cap, dof),
                    Layout<2>(AxisKind::Parallel, AxisKind::Serial)};
  Array2<double> xnew{Shape<2>(cap, dof),
                      Layout<2>(AxisKind::Parallel, AxisKind::Serial)};
  Array1<double> elocal{Shape<1>(cap)};
  Array1<double> copies{Shape<1>(cap)};
  Array1<double> slots{Shape<1>(cap)};

  const Rng rng(0x93C);
  index_t alive = nw;
  parallel_range(cap, [&](index_t lo, index_t hi) {
    for (index_t w = lo; w < hi; ++w) {
      for (index_t d = 0; d < dof; ++d) {
        xw(w, d) = rng.uniform(
            static_cast<std::uint64_t>(w * dof + d), -1.0, 1.0);
      }
    }
  });

  double etrial = 0.5 * static_cast<double>(dof);
  double energy_acc = 0.0;
  index_t energy_samples = 0;
  std::uint64_t stream = 1ull << 32;

  MetricScope scope;
  for (index_t b = 0; b < blocks; ++b) {
    // Diffusion with drift (importance sampling): drift = grad ln psi_T =
    // -2 alpha x, so x' = x (1 - 2 alpha dt) + sqrt(dt) xi.
    const double sdt = std::sqrt(dt);
    parallel_range(alive, [&](index_t lo, index_t hi) {
      for (index_t w = lo; w < hi; ++w) {
        for (index_t d = 0; d < dof; ++d) {
          // Box-Muller gaussian from two counter-based uniforms.
          const std::uint64_t id = stream + static_cast<std::uint64_t>(w * dof + d);
          const double u1 = std::max(rng.uniform(id), 1e-16);
          const double u2 = rng.uniform(id + (1ull << 60));
          const double g =
              std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
          xw(w, d) = xw(w, d) * (1.0 - 2.0 * alpha * dt) + sdt * g;
        }
      }
    });
    // sqrt+log+cos (4+8+8) + 4 arithmetic per dof.
    flops::add_weighted((20 + 4) * alive * dof);
    stream += static_cast<std::uint64_t>(cap * dof) + (1ull << 20);

    // Local energy: with psi_T = exp(-alpha x^2),
    // E_L = alpha dof + (1/2 - 2 alpha^2) x^2; the mixed estimator's mean
    // over the stationary walker distribution is the exact E_0 = dof/2 up
    // to O(dt) time-step bias.
    parallel_range(alive, [&](index_t lo, index_t hi) {
      for (index_t w = lo; w < hi; ++w) {
        double x2 = 0.0;
        for (index_t d = 0; d < dof; ++d) x2 += xw(w, d) * xw(w, d);
        elocal[w] = alpha * static_cast<double>(dof) +
                    (0.5 - 2.0 * alpha * alpha) * x2;
      }
    });
    flops::add_weighted((2 * dof + 4) * alive);
    // 3 Reductions to scalar: population statistics.
    double esum = 0.0;
    {
      // Only the live prefix participates; masked semantics count all.
      Array1<double> view(elocal.shape(), elocal.layout(), MemKind::Temporary);
      copy(elocal, view);
      for (index_t w = alive; w < cap; ++w) view[w] = 0.0;
      esum = comm::reduce_sum(view);
      (void)comm::reduce_absmax(view);
      (void)comm::reduce_max(view);
    }
    const double emean = esum / static_cast<double>(alive);
    energy_acc += emean;
    ++energy_samples;

    // Branching: copies = floor(exp(-dt (E_L - E_T)) + u).
    parallel_range(alive, [&](index_t lo, index_t hi) {
      for (index_t w = lo; w < hi; ++w) {
        const double weight = std::exp(-dt * (elocal[w] - etrial));
        const double u = rng.uniform(stream + static_cast<std::uint64_t>(w));
        copies[w] = std::floor(weight + u);
      }
    });
    flops::add_weighted(12 * alive);
    stream += static_cast<std::uint64_t>(cap) + 17;
    for (index_t w = alive; w < cap; ++w) copies[w] = 0.0;
    // Output slot of each surviving walker: exclusive sum scan.
    comm::scan_sum_into(slots, copies, /*exclusive=*/true);
    const auto next_alive = static_cast<index_t>(
        std::min<double>(slots[cap - 1] + copies[cap - 1],
                         static_cast<double>(cap)));
    // Route walkers to their slots (general send; one per copy).
    {
      const int pvp = Machine::instance().vps();
      comm::detail::record(CommPattern::Send, 2, 2, next_alive * dof * 8,
                           (pvp - 1) * dof * 8);
    }
    parallel_range(alive, [&](index_t lo, index_t hi) {
      for (index_t w = lo; w < hi; ++w) {
        const auto base = static_cast<index_t>(slots[w]);
        const auto ncop = static_cast<index_t>(copies[w]);
        for (index_t c = 0; c < ncop && base + c < cap; ++c) {
          for (index_t d = 0; d < dof; ++d) xnew(base + c, d) = xw(w, d);
        }
      }
    });
    copy(xnew, xw);
    alive = std::max<index_t>(next_alive, 8);
    // Population control: steer E_T toward the target population
    // (1 Reduction already counted; log weight feedback).
    etrial += -0.5 * std::log(static_cast<double>(alive) /
                              static_cast<double>(nw));
    flops::add(flops::Kind::LogTrig, 1);
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();

  const double emean = energy_acc / static_cast<double>(energy_samples);
  const double exact = 0.5 * static_cast<double>(dof);
  res.checks["energy"] = emean;
  res.checks["exact"] = exact;
  res.checks["population"] = static_cast<double>(alive);
  // DMC with a near-exact trial function: mean energy within 10% of the
  // exact ground state and the population stays controlled.
  res.checks["residual"] =
      (std::abs(emean - exact) / exact < 0.15 && alive > nw / 4 &&
       alive < 2 * nw)
          ? 0.0
          : std::abs(emean - exact) / exact;
  return res;
}

CountModel model_qmc(const RunConfig& cfg) {
  const index_t np = cfg.get("np", 2);
  const index_t nd = cfg.get("nd", 3);
  const index_t nw = cfg.get("nw", 512);
  CountModel m;
  // Paper formula with n_o = n_maxw = n_e = 1 for our configuration.
  m.flops_per_iter = (42.0 + 2.0) * np * nd * nw + (142.0 + 251.0) * nw;
  // Two capacity-sized coordinate arrays plus three walker vectors
  // (paper row: 16 np nd + 96 nw — see EXPERIMENTS.md).
  const index_t cap = 2 * nw;
  m.memory_bytes = 2 * 8 * cap * np * nd + 3 * 8 * cap;
  m.mem_rel_tol = 0.05;
  m.comm_per_iter[CommPattern::Scan] = 1;
  m.comm_per_iter[CommPattern::Send] = 1;
  m.comm_per_iter[CommPattern::Reduction] = 3;
  m.flop_rel_tol = 0.95;
  return m;
}

}  // namespace

void register_qmc_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "qmc",
      .group = Group::Application,
      .versions = {Version::Basic},
      .local_access = LocalAccess::Direct,
      .layouts = {"x(:,:)", "x(:serial,:serial,:,:)"},
      .techniques = {{"Scatter w/ combine", "CMF send overwrite"},
                     {"Scan", "branching slot allocation"}},
      .default_params = {{"np", 2}, {"nd", 3}, {"nw", 512}, {"iters", 24}},
      .run = run_qmc,
      .model = model_qmc,
      .paper_flops = "[(42 + 2 no nmaxw) np nd nw ne + (142 no + 251) nw ne] nb",
      .paper_memory = "d: 16 np nd + 96 nw ne nmaxw",
      .paper_comm = "SPREADs 3-D to 1-D, 5 Reductions 2-D to 1-D, "
                    "(np nd + 4) Scans on 2-D, (np nd + 1) Sends, "
                    "3 Reductions 2-D to scalar",
  });
}

}  // namespace dpf::suite
