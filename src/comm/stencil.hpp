#pragma once

/// \file stencil.hpp
/// Stencil evaluation via array sections.
///
/// Table 8 distinguishes three stencil implementation techniques: CSHIFT
/// (boson, wave-1D, ellip-2D, rp, mdcell), *chained* CSHIFT (step4), and
/// *array sections* (diff-1D/2D/3D). This header provides the array-section
/// technique: the caller supplies the stencil offsets and a combining
/// functor; interior elements are updated in one fused, communication-free
/// sweep whose halo traffic is recorded as a single Stencil event carrying
/// the point count (reproducing Table 6 rows like "1 7-point Stencil").

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/flops.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "vec/vec.hpp"

namespace dpf::comm {

/// Applies a stencil over the interior of a rank-R grid:
///   dst(idx) = fn(i) for every interior linear index i,
/// where `fn` may read src at i plus offsets. `points` is the stencil's
/// point count (recorded as the event detail), `halo_width` the interior
/// margin along every axis, and `flops_per_point` the weighted FLOPs per
/// interior element. Boundary elements of dst are left untouched.
template <typename T, std::size_t R, typename F>
void stencil_interior(Array<T, R>& dst, const Array<T, R>& src, index_t points,
                      index_t halo_width, index_t flops_per_elem, F&& fn) {
  assert(dst.shape() == src.shape());
  const auto& ext = src.shape().extents();
  const auto strides = src.shape().strides();
  // Stencils stay direct in both DPF_NET modes: `fn` reads src through an
  // opaque functor, so there is no index map to reformulate as messages —
  // the cost model instead charges the halo volume.
  detail::OpTimer timer;

  // Interior extents and their row-major divisors.
  std::array<index_t, R> iext{};
  index_t interior = 1;
  for (std::size_t a = 0; a < R; ++a) {
    iext[a] = std::max<index_t>(ext[a] - 2 * halo_width, 0);
    interior *= iext[a];
  }
  if (interior > 0) {
    // Walk the interior row by row: decode each row's base index once
    // (R-1 divisions per *row*, not R per element) and sweep the innermost
    // axis with its stride — unit stride for row-major arrays, so the body
    // runs over contiguous memory.
    // The interior sweep never reads dst (fn reads src only), so when the
    // two arrays are distinct stores the row bodies are iteration-
    // independent and run through the vec::map hinted sweep; an in-place
    // stencil (dst aliasing src) keeps the plain loops.
    const bool vectorizable = !detail::same_store(dst, src);
    if constexpr (R == 1) {
      const index_t st0 = strides[0];
      parallel_range(interior, [&](index_t lo, index_t hi) {
        if (vectorizable && st0 == 1) {
          vec::map(lo + halo_width, hi + halo_width,
                   [&](index_t lin) { dst[lin] = fn(lin); });
        } else {
          for (index_t k = lo; k < hi; ++k) {
            const index_t lin = (k + halo_width) * st0;
            dst[lin] = fn(lin);
          }
        }
      });
    } else {
      const index_t row_len = iext[R - 1];
      const index_t rows = interior / row_len;
      const index_t st_inner = strides[R - 1];
      // Row-major divisors over the R-1 outer interior extents.
      std::array<index_t, R> rdiv{};
      {
        index_t acc = 1;
        for (std::size_t a = R - 1; a-- > 0;) {
          rdiv[a] = acc;
          acc *= iext[a];
        }
      }
      parallel_range(rows, [&](index_t rlo, index_t rhi) {
        for (index_t r = rlo; r < rhi; ++r) {
          index_t rem = r;
          index_t lin = halo_width * strides[R - 1];
          for (std::size_t a = 0; a + 1 < R; ++a) {
            const index_t coord = rem / rdiv[a];
            rem %= rdiv[a];
            lin += (coord + halo_width) * strides[a];
          }
          if (vectorizable && st_inner == 1) {
            vec::map(lin, lin + row_len, [&](index_t c) { dst[c] = fn(c); });
          } else {
            for (index_t j = 0; j < row_len; ++j, lin += st_inner) {
              dst[lin] = fn(lin);
            }
          }
        }
      });
    }
    flops::add_weighted(flops_per_elem * interior);
  }

  // Halo traffic: under BLOCK distribution one slab of `halo_width` slots
  // crosses each internal boundary in each direction along every gridded
  // axis; under CYCLIC essentially every neighbour reference is remote.
  index_t offproc = 0;
  const int p = Machine::instance().vps();
  if (p > 1 && src.layout().has_parallel_axis()) {
    if (src.layout().dist() == Dist::Block) {
      for (std::size_t a = 0; a < R; ++a) {
        const int g = src.layout().procs_on_axis(a, p);
        if (g <= 1) continue;
        offproc += 2 * (g - 1) * halo_width * (src.bytes() / ext[a]);
      }
    } else {
      offproc = src.bytes() * (p - 1) / p;
    }
  }
  detail::record(CommPattern::Stencil, static_cast<int>(R),
                 static_cast<int>(R), src.bytes(), offproc, points,
                 timer.seconds());
}

/// Per-axis ownership classification for interior-first sweeps: coordinate
/// c on axis a is *interior* when its whole halo neighbourhood
/// [c - halo, c + halo] lies inside the VP block that owns c — i.e. every
/// shifted-array value the stencil reads at c was locally sourced, so c can
/// be computed while the halo messages are still in flight. Coordinates
/// whose neighbourhood crosses a block edge (or wraps the global ends) are
/// *boundary* and must wait for finish(). Cyclic axes are all-boundary.
template <std::size_t R>
struct InteriorMask {
  std::array<std::vector<std::uint8_t>, R> interior;  ///< per-coordinate flag
  bool any_boundary = false;
};

template <typename T, std::size_t R>
[[nodiscard]] InteriorMask<R> interior_mask(const Array<T, R>& a,
                                            index_t halo) {
  const int p = Machine::instance().vps();
  InteriorMask<R> mk;
  for (std::size_t ax = 0; ax < R; ++ax) {
    const index_t n = a.extent(ax);
    mk.interior[ax].assign(static_cast<std::size_t>(n), 1);
    const int g = a.layout().procs_on_axis(ax, p);
    if (g <= 1 || halo == 0 || n == 0) continue;
    if (a.layout().dist() != Dist::Block) {
      std::fill(mk.interior[ax].begin(), mk.interior[ax].end(), 0);
      mk.any_boundary = true;
      continue;
    }
    for (index_t c = 0; c < n; ++c) {
      const Block b = block_of(n, g, owner_of(n, g, c));
      // Wrapped neighbours (c ± halo outside [0, n)) fail automatically:
      // the block bounds never extend past the global ends.
      const bool in = c - halo >= b.begin && c + halo <= b.end - 1;
      if (!in) {
        mk.interior[ax][static_cast<std::size_t>(c)] = 0;
        mk.any_boundary = true;
      }
    }
  }
  return mk;
}

/// Interior-first elementwise assignment around an in-flight halo exchange:
/// writes dst[i] = fn(i) for every linear index i, in two passes split by
/// `finish_halos`. Pass 1 sweeps the elements interior_mask classifies as
/// halo-independent (legal inside the window: everything they read landed
/// in the exchange's local phase); then finish_halos() consumes the remote
/// halos; then pass 2 sweeps the boundary shell. Bit-identical to
/// assign(dst, fn) after finish_halos(): each element is written exactly
/// once by the same pure functor. When no coordinate is boundary (p == 1,
/// no distributed axis) or no messages are in flight (DPF_NET=direct), the
/// halos are finished first and a single fused sweep runs.
template <typename T, std::size_t R, typename Finish, typename F>
void assign_interior_first(Array<T, R>& dst, index_t halo,
                           index_t weighted_flops_per_elem,
                           Finish&& finish_halos, F&& fn) {
  const index_t n = dst.size();
  const int p = Machine::instance().vps();
  // Under a message-passing mode the bundle's halos may be in flight.
  const bool message_mode = net::algorithmic() && p > 1;
  InteriorMask<R> mk;
  if (message_mode && n > 0) mk = interior_mask(dst, halo);
  if (!message_mode || !mk.any_boundary || n == 0) {
    finish_halos();
    assign(dst, weighted_flops_per_elem, std::forward<F>(fn));
    return;
  }

  const auto& ext = dst.shape().extents();
  const auto strides = dst.shape().strides();
  // Inner-axis interior runs [lo, hi) and their complement, precomputed
  // once; rows iterate the outer coordinates in full.
  const std::vector<std::uint8_t>& inner = mk.interior[R - 1];
  std::vector<std::pair<index_t, index_t>> in_runs, out_runs;
  {
    const index_t ni = ext[R - 1];
    index_t c = 0;
    while (c < ni) {
      index_t e = c;
      const bool v = inner[static_cast<std::size_t>(c)] != 0;
      while (e < ni && (inner[static_cast<std::size_t>(e)] != 0) == v) ++e;
      (v ? in_runs : out_runs).push_back({c, e});
      c = e;
    }
  }
  const index_t st_inner = strides[R - 1];
  const index_t rows = n / std::max<index_t>(ext[R - 1], 1);
  // Row-major divisors over the R-1 outer extents.
  std::array<index_t, R> rdiv{};
  {
    index_t acc = 1;
    for (std::size_t a = R; a-- > 1;) {
      rdiv[a - 1] = acc;
      acc *= ext[a - 1];
    }
  }
  // sweep(pass1): interior rows x interior runs. sweep(pass2): everything
  // else — boundary rows whole, interior rows' complement runs.
  const auto sweep = [&](bool pass1) {
    parallel_range(rows, [&](index_t rlo, index_t rhi) {
      for (index_t r = rlo; r < rhi; ++r) {
        index_t rem = r;
        index_t lin = 0;
        bool row_interior = true;
        for (std::size_t a = 0; a + 1 < R; ++a) {
          const index_t coord = rem / rdiv[a];
          rem %= rdiv[a];
          lin += coord * strides[a];
          if (mk.interior[a][static_cast<std::size_t>(coord)] == 0) {
            row_interior = false;
          }
        }
        const auto run = [&](index_t lo, index_t hi) {
          if (st_inner == 1) {
            vec::map(lin + lo, lin + hi, [&](index_t c) { dst[c] = fn(c); });
          } else {
            for (index_t j = lo; j < hi; ++j) {
              const index_t c = lin + j * st_inner;
              dst[c] = fn(c);
            }
          }
        };
        if (row_interior) {
          for (const auto& [lo, hi] : pass1 ? in_runs : out_runs) run(lo, hi);
        } else if (!pass1) {
          run(0, ext[R - 1]);
        }
      }
    });
  };
  sweep(true);
  finish_halos();
  sweep(false);
  flops::add_weighted(weighted_flops_per_elem * n);
}

/// Records a Stencil event without moving data — used when a stencil is
/// realized by chained CSHIFTs (step4) or sections fused into another loop
/// but the benchmark reports the logical stencil too.
template <typename T, std::size_t R>
void record_stencil(const Array<T, R>& a, index_t points,
                    index_t halo_width = 1) {
  const int p = Machine::instance().vps();
  index_t offproc = 0;
  if (p > 1 && a.layout().has_parallel_axis()) {
    if (a.layout().dist() == Dist::Block) {
      for (std::size_t ax = 0; ax < R; ++ax) {
        const int g = a.layout().procs_on_axis(ax, p);
        if (g <= 1) continue;
        offproc += 2 * (g - 1) * halo_width * (a.bytes() / a.extent(ax));
      }
    } else {
      offproc = a.bytes() * (p - 1) / p;
    }
  }
  detail::record(CommPattern::Stencil, static_cast<int>(R),
                 static_cast<int>(R), a.bytes(), offproc, points);
}

}  // namespace dpf::comm
