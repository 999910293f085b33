#pragma once

/// \file matvec.hpp
/// Dense matrix-vector multiplication in the four data layouts of Table 2:
///   (1) y(:)            = A(:,:)              x(:)
///   (2) y(:,:)          = A(:,:,:)            x(:,:)        (i instances)
///   (3) y(:serial,:)    = A(:serial,:serial,:) x(:serial,:) (serial matrix
///       per parallel instance; local, direct access)
///   (4) y(:,:)          = A(:serial,:,:)      x(:,:)
///
/// The data-parallel formulation broadcasts x along the rows of A and
/// reduces the products along the columns — 1 Broadcast + 1 Reduction per
/// instance evaluation (Table 3/4), 2nm FLOPs per instance.

#include "comm/broadcast.hpp"
#include "comm/reduce.hpp"
#include "core/array.hpp"
#include "core/ops.hpp"
#include "vec/vec.hpp"

namespace dpf::la {

/// Variant (1): y = A x with A (n x m), data-parallel over the whole matrix.
/// Basic version: spread x over rows, elementwise multiply, reduce rows.
inline void matvec1(Array1<double>& y, const Array2<double>& a,
                    const Array1<double>& x) {
  const index_t n = a.extent(0);
  const index_t m = a.extent(1);
  assert(x.size() == m && y.size() == n);

  // Broadcast x along a new leading axis (1-D to 2-D), multiply, reduce.
  Array2<double> xs(Shape<2>(n, m), Layout<2>{}, MemKind::Temporary);
  comm::spread_into(xs, x, 0, CommPattern::Broadcast);
  Array2<double> prod(Shape<2>(n, m), Layout<2>{}, MemKind::Temporary);
  assign(prod, 1, [&](index_t k) { return a[k] * xs[k]; });
  comm::reduce_axis_sum_into(y, prod, 1);
}

/// Variant (1), optimized: fused per-row dot products (no whole-matrix
/// temporary); identical FLOP count, same logical Broadcast + Reduction.
inline void matvec1_opt(Array1<double>& y, const Array2<double>& a,
                        const Array1<double>& x) {
  const index_t n = a.extent(0);
  const index_t m = a.extent(1);
  assert(x.size() == m && y.size() == n);
  // Fused row dots on the vector unit: each row of A is contiguous, x is
  // contiguous, so the inner product runs on the lane-partial kernel.
  const double* xs = x.data().data();
  parallel_range(n, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) y[i] = vec::dot(&a(i, 0), xs, m);
  });
  flops::add(flops::Kind::AddSubMul, n * m);          // multiplies
  if (m > 1) flops::add(flops::Kind::AddSubMul, n * (m - 1));  // adds
  const int p = Machine::instance().vps();
  comm::detail::record(CommPattern::Broadcast, 1, 2, x.bytes(),
                       p > 1 ? x.bytes() * (p - 1) / p : 0);
  comm::detail::record(CommPattern::Reduction, 2, 1, a.bytes(), (p - 1) * 8);
}

/// Variant (1) in complex arithmetic — the paper's c/z rows of Table 4:
/// 8nm FLOPs per evaluation (a complex multiply is 6, a complex add 2).
inline void matvec1_complex(Array1<complexd>& y, const Array2<complexd>& a,
                            const Array1<complexd>& x) {
  const index_t n = a.extent(0);
  const index_t m = a.extent(1);
  assert(x.size() == m && y.size() == n);
  const complexd* xs = x.data().data();
  parallel_range(n, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) y[i] = vec::dot(&a(i, 0), xs, m);
  });
  flops::add_weighted(8 * n * m);
  const int p = Machine::instance().vps();
  comm::detail::record(CommPattern::Broadcast, 1, 2, x.bytes(),
                       p > 1 ? x.bytes() * (p - 1) / p : 0);
  comm::detail::record(CommPattern::Reduction, 2, 1, a.bytes(), (p - 1) * 16);
}

/// Variant (2): i instances, y(l,:) = A(l,:,:) x(l,:) with everything
/// parallel. One Broadcast + Reduction pair covers all instances.
inline void matvec2(Array2<double>& y, const Array3<double>& a,
                    const Array2<double>& x) {
  const index_t inst = a.extent(0);
  const index_t n = a.extent(1);
  const index_t m = a.extent(2);
  assert(x.extent(0) == inst && x.extent(1) == m);
  assert(y.extent(0) == inst && y.extent(1) == n);

  parallel_range(inst * n, [&](index_t lo, index_t hi) {
    for (index_t k = lo; k < hi; ++k) {
      const index_t l = k / n;
      const index_t i = k % n;
      y(l, i) = vec::dot(&a(l, i, 0), &x(l, 0), m);
    }
  });
  flops::add(flops::Kind::AddSubMul, inst * n * m);
  if (m > 1) flops::add(flops::Kind::AddSubMul, inst * n * (m - 1));
  const int p = Machine::instance().vps();
  comm::detail::record(CommPattern::Broadcast, 2, 3, x.bytes(),
                       p > 1 ? x.bytes() * (p - 1) / p : 0);
  comm::detail::record(CommPattern::Reduction, 3, 2, a.bytes(), (p - 1) * 8);
}

/// Variant (3): the matrix and vector axes are serial; instances are
/// parallel. A is (n, m, inst) as X(:serial,:serial,:) — every matrix is
/// local to a VP, so the multiply is pure local computation with direct
/// access (no communication events).
inline void matvec3(Array2<double>& y, const Array<double, 3>& a,
                    const Array2<double>& x) {
  const index_t n = a.extent(0);
  const index_t m = a.extent(1);
  const index_t inst = a.extent(2);
  assert(x.extent(0) == m && x.extent(1) == inst);
  assert(y.extent(0) == n && y.extent(1) == inst);

  parallel_range(inst, [&](index_t lo, index_t hi) {
    for (index_t l = lo; l < hi; ++l) {
      for (index_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (index_t j = 0; j < m; ++j) acc += a(i, j, l) * x(j, l);
        y(i, l) = acc;
      }
    }
  });
  flops::add(flops::Kind::AddSubMul, inst * n * m);
  if (m > 1) flops::add(flops::Kind::AddSubMul, inst * n * (m - 1));
}

/// Variant (4): A(:serial,:,:) — the row axis is serial, column and
/// instance axes parallel; x(:,:) is parallel. The reduction runs along the
/// parallel column axis.
inline void matvec4(Array2<double>& y, const Array3<double>& a,
                    const Array2<double>& x) {
  const index_t n = a.extent(0);  // serial rows
  const index_t m = a.extent(1);
  const index_t inst = a.extent(2);
  assert(x.extent(0) == m && x.extent(1) == inst);
  assert(y.extent(0) == n && y.extent(1) == inst);

  Array3<double> prod(Shape<3>(n, m, inst),
                      Layout<3>(AxisKind::Serial, AxisKind::Parallel,
                                AxisKind::Parallel),
                      MemKind::Temporary);
  // Broadcast x over the serial row axis and multiply.
  parallel_range(n * m * inst, [&](index_t lo, index_t hi) {
    for (index_t k = lo; k < hi; ++k) {
      const index_t i = k / (m * inst);
      const index_t rest = k % (m * inst);
      const index_t j = rest / inst;
      const index_t l = rest % inst;
      prod(i, j, l) = a(i, j, l) * x(j, l);
    }
  });
  flops::add(flops::Kind::AddSubMul, n * m * inst);
  const int p = Machine::instance().vps();
  comm::detail::record(CommPattern::Broadcast, 2, 3, x.bytes(),
                       p > 1 ? x.bytes() * (p - 1) / p : 0);
  // Reduce along the parallel column axis (axis 1).
  Array2<double> yt(Shape<2>(n, inst),
                    Layout<2>(AxisKind::Serial, AxisKind::Parallel),
                    MemKind::Temporary);
  comm::reduce_axis_sum_into(yt, prod, 1);
  copy(yt, y);
}

}  // namespace dpf::la
