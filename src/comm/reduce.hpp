#pragma once

/// \file reduce.hpp
/// Global and per-axis reductions.
///
/// Reductions are counted at their sequential FLOP cost, N-1 for N elements
/// (paper section 1.5, attribute 1), and recorded as CommPattern::Reduction
/// with the source/destination array ranks the paper's tables use (e.g.
/// "3 2-D to 1-D Reductions" in md, "Reductions 2-D to scalar" in qmc).
///
/// Per-VP partials run on the dpf::vec lane kernels: each block folds into
/// kLanes fixed accumulator lanes combined in a deterministic order, so the
/// result is identical under DPF_SIMD=on and off and stable across worker
/// counts (see vec/kernels.hpp). Every full reduction to a scalar but the
/// serial MAXLOC is a kernel and a fold handed to detail::reduce_full.

#include <algorithm>
#include <vector>

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/flops.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "vec/vec.hpp"

namespace dpf::comm {

namespace detail {

/// The one full reduction to a scalar. Every VP's partial starts at `init`
/// (a VP with an empty block keeps it) and takes `kernel(block)` over its
/// block; the partials travel the transport allgather under a
/// message-passing DPF_NET mode, then fold in ascending VP order with
/// `fold`, starting from `init` or, when `from_first` (max and min), from
/// VP 0's partial. Records one Reduction of a rank-R array to a scalar:
/// `bytes` of payload and (p-1)·sizeof(P) off-processor bytes, one partial
/// from every other VP. Each caller passes its own kernel lambda, so each
/// reduction keeps its own grain Site (spmd keys Sites by body type).
template <std::size_t R, typename P, typename Kernel, typename Fold>
[[nodiscard]] P reduce_full(index_t n, index_t bytes, P init, bool from_first,
                            const Kernel& kernel, const Fold& fold) {
  const int p = Machine::instance().vps();
  OpTimer timer;
  std::vector<P> partial(static_cast<std::size_t>(p), init);
  for_each_block(n, [&](int vp, Block b) {
    partial[static_cast<std::size_t>(vp)] = kernel(b);
  });
  share_partials(partial);
  P total = from_first ? partial[0] : init;
  for (const P& v : partial) total = fold(total, v);
  record(CommPattern::Reduction, static_cast<int>(R), 0, bytes,
         (p - 1) * static_cast<index_t>(sizeof(P)), 0, timer.seconds());
  return total;
}

}  // namespace detail

/// Full sum-reduction to a scalar.
template <typename T, std::size_t R>
[[nodiscard]] T reduce_sum(const Array<T, R>& a) {
  const T* xs = a.data().data();
  flops::add_reduction(a.size());
  return detail::reduce_full<R>(
      a.size(), a.bytes(), T{}, false,
      [xs](Block b) { return vec::sum(xs + b.begin, b.size()); },
      [](T x, T y) { return x + y; });
}

/// Inner product sum(a*b): n multiplies plus an (n-1)-FLOP reduction.
template <typename T, std::size_t R>
[[nodiscard]] T dot(const Array<T, R>& a, const Array<T, R>& b) {
  assert(a.size() == b.size());
  const T* as = a.data().data();
  const T* bs = b.data().data();
  flops::add(flops::Kind::AddSubMul, a.size());  // the elementwise products
  flops::add_reduction(a.size());
  return detail::reduce_full<R>(
      a.size(), a.bytes(), T{}, false,
      [as, bs](Block blk) {
        return vec::dot(as + blk.begin, bs + blk.begin, blk.size());
      },
      [](T x, T y) { return x + y; });
}

/// Full max-reduction (counted N-1 like any reduction).
template <typename T, std::size_t R>
[[nodiscard]] T reduce_max(const Array<T, R>& a) {
  assert(a.size() > 0);
  const T* xs = a.data().data();
  flops::add_reduction(a.size());
  return detail::reduce_full<R>(
      a.size(), a.bytes(), a[0], true,
      [xs](Block b) { return vec::max(xs + b.begin, b.size()); },
      [](T x, T y) { return std::max(x, y); });
}

/// Full min-reduction.
template <typename T, std::size_t R>
[[nodiscard]] T reduce_min(const Array<T, R>& a) {
  assert(a.size() > 0);
  const T* xs = a.data().data();
  flops::add_reduction(a.size());
  return detail::reduce_full<R>(
      a.size(), a.bytes(), a[0], true,
      [xs](Block b) { return vec::min(xs + b.begin, b.size()); },
      [](T x, T y) { return std::min(x, y); });
}

/// Max-of-absolute-values reduction (the usual convergence check).
template <typename T, std::size_t R>
[[nodiscard]] T reduce_absmax(const Array<T, R>& a) {
  assert(a.size() > 0);
  const T* xs = a.data().data();
  flops::add_reduction(a.size());
  return detail::reduce_full<R>(
      a.size(), a.bytes(), T{}, false,
      [xs](Block b) { return vec::absmax(xs + b.begin, b.size()); },
      [](T x, T y) { return std::max(x, y); });
}

/// Index of the maximum element of a rank-1 array (MAXLOC). Recorded as a
/// Reduction; counted N-1. Serial scan in both DPF_NET modes (the
/// value+index pair is not worth a message round at these sizes).
template <typename T>
[[nodiscard]] index_t maxloc(const Array<T, 1>& a) {
  assert(a.size() > 0);
  detail::OpTimer timer;
  index_t best = 0;
  for (index_t i = 1; i < a.size(); ++i) {
    if (a[i] > a[best]) best = i;
  }
  flops::add_reduction(a.size());
  const int p = Machine::instance().vps();
  detail::record(CommPattern::Reduction, 1, 0, a.bytes(),
                 (p - 1) * static_cast<index_t>(sizeof(T)), 0,
                 timer.seconds());
  return best;
}

/// Product reduction (the PRODUCT intrinsic): counted N-1 like any
/// reduction.
template <typename T, std::size_t R>
[[nodiscard]] T reduce_product(const Array<T, R>& a) {
  const T* xs = a.data().data();
  flops::add_reduction(a.size());
  return detail::reduce_full<R>(
      a.size(), a.bytes(), T{1}, false,
      [xs](Block b) { return vec::product(xs + b.begin, b.size()); },
      [](T x, T y) { return x * y; });
}

/// The HPF ANY intrinsic: true if any mask element is set. A logical
/// reduction — recorded, no FLOPs.
template <std::size_t R>
[[nodiscard]] bool any(const Array<std::uint8_t, R>& mask) {
  const std::uint8_t* ms = mask.data().data();
  return detail::reduce_full<R>(
             mask.size(), mask.bytes(), std::uint8_t{0}, false,
             [ms](Block b) {
               std::uint8_t acc = 0;
               for (index_t i = b.begin; i < b.end && !acc; ++i) acc |= ms[i];
               return acc;
             },
             [](std::uint8_t x, std::uint8_t y) {
               return static_cast<std::uint8_t>(x || y);
             }) != 0;
}

/// The HPF ALL intrinsic: true if every mask element is set.
template <std::size_t R>
[[nodiscard]] bool all(const Array<std::uint8_t, R>& mask) {
  const std::uint8_t* ms = mask.data().data();
  return detail::reduce_full<R>(
             mask.size(), mask.bytes(), std::uint8_t{1}, false,
             [ms](Block b) {
               std::uint8_t acc = 1;
               for (index_t i = b.begin; i < b.end && acc; ++i) {
                 acc = static_cast<std::uint8_t>(acc && ms[i]);
               }
               return acc;
             },
             [](std::uint8_t x, std::uint8_t y) {
               return static_cast<std::uint8_t>(x && y);
             }) != 0;
}

/// The HPF COUNT intrinsic: number of set mask elements.
template <std::size_t R>
[[nodiscard]] index_t count_true(const Array<std::uint8_t, R>& mask) {
  const std::uint8_t* ms = mask.data().data();
  return detail::reduce_full<R>(
      mask.size(), mask.bytes(), index_t{0}, false,
      [ms](Block b) { return vec::count_true(ms + b.begin, b.size()); },
      [](index_t x, index_t y) { return x + y; });
}

/// Masked sum — the paper's own example of HPF execution semantics
/// (section 1.4): sum(v*v, mask) is *executed* for all elements, so the
/// FLOPs are counted for the whole array, while only the unmasked values
/// contribute to the result.
template <typename T, std::size_t R>
[[nodiscard]] T reduce_sum_masked(const Array<T, R>& a,
                                  const Array<std::uint8_t, R>& mask) {
  assert(mask.size() == a.size());
  const T* xs = a.data().data();
  const std::uint8_t* ms = mask.data().data();
  flops::add_reduction(a.size());  // full-array count per HPF semantics
  return detail::reduce_full<R>(
      a.size(), a.bytes(), T{}, false,
      [xs, ms](Block b) {
        return vec::sum_masked(xs + b.begin, ms + b.begin, b.size());
      },
      [](T x, T y) { return x + y; });
}

/// Sum-reduction along `axis`, producing an array of rank R-1.
/// FLOPs: out_size * (extent(axis) - 1).
template <typename T, std::size_t R>
  requires(R >= 2)
void reduce_axis_sum_into(Array<T, R - 1>& dst, const Array<T, R>& src,
                          std::size_t axis) {
  assert(axis < R);
  const index_t n = src.extent(axis);
  const auto strides = src.shape().strides();
  const index_t st = strides[axis];
  const index_t inner = st;
  const index_t outer = src.size() / (n * inner);
  assert(dst.size() == outer * inner);

  // Stays direct in both DPF_NET modes: each output element folds along the
  // reduced axis locally, so there is no cross-VP combine to reformulate.
  detail::OpTimer timer;
  if (st == 1) {
    // Innermost axis: every output element folds a contiguous line — use
    // the lane-partial vector kernel directly.
    const T* ss = src.data().data();
    parallel_range(outer, [&](index_t lo, index_t hi) {
      for (index_t o = lo; o < hi; ++o) dst[o] = vec::sum(ss + o * n, n);
    });
  } else {
    parallel_range(outer * inner, [&](index_t lo, index_t hi) {
      for (index_t oi = lo; oi < hi; ++oi) {
        const index_t o = oi / inner;
        const index_t i = oi % inner;
        const index_t base = o * n * inner + i;
        T acc{};
        for (index_t j = 0; j < n; ++j) acc += src[base + j * st];
        dst[oi] = acc;
      }
    });
  }
  if (n > 1) flops::add(flops::Kind::AddSubMul, (n - 1) * outer * inner);
  const int p = Machine::instance().vps();
  detail::record(CommPattern::Reduction, static_cast<int>(R),
                 static_cast<int>(R - 1), src.bytes(),
                 src.layout().distributed_axis() == axis
                     ? (p - 1) * dst.bytes() / std::max<index_t>(p, 1)
                     : 0,
                 0, timer.seconds());
}

/// Returns the axis sum-reduction as a library temporary (all-parallel
/// layout on the remaining axes).
template <typename T, std::size_t R>
  requires(R >= 2)
[[nodiscard]] Array<T, R - 1> reduce_axis_sum(const Array<T, R>& src,
                                              std::size_t axis) {
  std::array<index_t, R - 1> ext{};
  std::size_t w = 0;
  for (std::size_t a = 0; a < R; ++a) {
    if (a != axis) ext[w++] = src.extent(a);
  }
  Array<T, R - 1> dst(Shape<R - 1>(ext), Layout<R - 1>{}, MemKind::Temporary);
  reduce_axis_sum_into(dst, src, axis);
  return dst;
}

}  // namespace dpf::comm
