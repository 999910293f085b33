/// \file step4.cpp
/// step4: an explicit finite-difference method in 2-D — a fourth-order
/// multi-component scheme in which each of 8 field components is updated
/// from a 16-point cross stencil (radius 4 in both directions) realized by
/// *chained CSHIFTs* (Table 8): each distance-k neighbour is obtained by
/// shifting the distance-(k-1) result one more step, 16 CSHIFTs per
/// stencil, 128 per iteration.
///
/// Table 6 row: 2500 FLOPs (per point), 500·nx·ny bytes (s), 128 CSHIFTs
/// (8 16-point stencils) per iteration, direct local access.

#include <array>

#include "comm/cshift.hpp"
#include "comm/reduce.hpp"
#include "comm/stencil.hpp"
#include "suite/common.hpp"
#include "suite/register_all.hpp"

namespace dpf::suite {
namespace {

constexpr index_t kFields = 8;
// Fourth-order-style weights for distances 1..4 (sum to ~0 against the
// centre for a derivative-like operator).
constexpr std::array<double, 4> kW = {0.8, -0.2, 0.038, -0.0036};

RunResult run_step4(const RunConfig& cfg) {
  const index_t nx = get_at_least(cfg, "nx", 48, 1);
  const index_t ny = cfg.get("ny", 48);
  const index_t iters = cfg.get("iters", 4);
  const double dt = 0.02;

  RunResult res;
  memory::Scope mem;
  // 8 components, two time levels, layout x(:serial,:,:) — the component
  // axis is serial.
  Array3<double> u{Shape<3>(kFields, nx, ny),
                   Layout<3>(AxisKind::Serial, AxisKind::Parallel,
                             AxisKind::Parallel)};
  Array3<double> un(u.shape(), u.layout(), MemKind::User);
  const Rng rng(0x54);
  assign(u, 0, [&](index_t k) {
    return rng.uniform(static_cast<std::uint64_t>(k), -0.5, 0.5);
  });
  const double amp0 = comm::reduce_absmax(u);

  const index_t plane = nx * ny;
  const Shape<2> fshape(nx, ny);
  const Layout<2> flayout(AxisKind::Parallel, AxisKind::Parallel);
  Array2<double> field(fshape, flayout, MemKind::Temporary);
  Array2<double> acc(fshape, flayout, MemKind::Temporary);
  Array2<double> sh(fshape, flayout, MemKind::Temporary);
  Array3<double> accs(u.shape(), u.layout(), MemKind::Temporary);

  MetricScope scope;
  SegmentTimer seg_stencil, seg_update;
  for (index_t it = 0; it < iters; ++it) {
    seg_stencil.run([&] {
    // Each field's 16-point stencil: 4 chains of 4 CSHIFTs (one chain per
    // direction: +x, -x, +y, -y) — 16 CSHIFTs per field, 128 per iteration.
    for (index_t f = 0; f < kFields; ++f) {
      parallel_range(plane, [&](index_t lo, index_t hi) {
        for (index_t k = lo; k < hi; ++k) field[k] = u[f * plane + k];
      });
      fill_par(acc, 0.0);
      for (std::size_t axis : {0u, 1u}) {
        for (index_t dir : {+1, -1}) {
          copy(field, sh);
          for (std::size_t dist = 0; dist < 4; ++dist) {
            // Chained: shift the previous shift one more step.
            auto next = comm::cshift(sh, axis, dir);
            sh = std::move(next);
            const double w = kW[dist];
            update(acc, 2, [&](index_t k, double a) { return a + w * sh[k]; });
          }
        }
      }
      comm::record_stencil(field, /*points=*/16, /*halo=*/4);
      parallel_range(plane, [&](index_t lo, index_t hi) {
        for (index_t k = lo; k < hi; ++k) accs[f * plane + k] = acc[k];
      });
    }
    });
    // Relaxation update with inter-component coupling (the neighbouring
    // component in the serial axis drives each field).
    seg_update.run([&] {
      assign(un, 6, [&](index_t k) {
        const index_t f = k / plane;
        const index_t other = ((f + 1) % kFields) * plane + (k % plane);
        const double centre = u[k];
        return centre + dt * (accs[k] - 2.156 * centre + 0.05 * u[other] -
                              0.01 * centre * centre);
      });
      copy(un, u);
    });
  }
  res.metrics = scope.stop();
  res.metrics.memory_bytes = mem.peak();
  res.segments["stencils"] = seg_stencil.total();
  res.segments["update"] = seg_update.total();

  const double amp1 = comm::reduce_absmax(u);
  res.checks["amplitude_ratio"] = amp1 / amp0;
  // Stability: the damped scheme must not blow up.
  res.checks["residual"] = std::isfinite(amp1) && amp1 < 10.0 * amp0 ? 0.0 : 1.0;
  return res;
}

CountModel model_step4(const RunConfig& cfg) {
  const index_t nx = cfg.get("nx", 48);
  const index_t ny = cfg.get("ny", 48);
  CountModel m;
  // Our structural count: 8 fields x (16 x 2 accumulate) + 6 update = 38
  // weighted FLOPs per field-point = 304 per grid point.
  m.flops_per_iter = (2.0 * 16 + 6.0) * kFields * nx * ny;
  m.memory_bytes = 2 * 8 * kFields * nx * ny;  // two time levels of 8 fields
  m.comm_per_iter[CommPattern::CShift] = 128;
  m.comm_per_iter[CommPattern::Stencil] = 8;
  m.flop_rel_tol = 0.05;
  m.mem_rel_tol = 0.05;
  return m;
}

}  // namespace

void register_step4_benchmark() {
  Registry::instance().add(BenchmarkDef{
      .name = "step4",
      .group = Group::Application,
      .versions = {Version::Basic},
      .local_access = LocalAccess::Direct,
      .layouts = {"x(:serial,:,:)"},
      .techniques = {{"Stencil", "chained CSHIFT"}},
      .default_params = {{"nx", 48}, {"ny", 48}, {"iters", 4}},
      .run = run_step4,
      .model = model_step4,
      .paper_flops = "2500",
      .paper_memory = "s: 500nx*ny",
      .paper_comm = "128 CSHIFTs (8 16-point Stencils)",
  });
}

}  // namespace dpf::suite
