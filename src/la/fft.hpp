#pragma once

/// \file fft.hpp
/// Complex radix-2 FFTs in one, two and three dimensions.
///
/// The communication structure follows the CM implementation the paper
/// instruments (Table 4): each butterfly stage exchanges partners at
/// distance len/2 — realized on the machine as 2 CSHIFTs per stage — and
/// each per-axis transform performs one all-to-all personalized exchange
/// (the bit-reversal / data-reordering step). The counted arithmetic is
/// exactly 5n FLOPs per stage per transform of length n (n/2 butterflies,
/// each one complex multiply (6) plus a complex add and subtract (2+2)).
/// Twiddle factors are precomputed per call, as a scientific library would,
/// and excluded from the count.

#include <complex>
#include <vector>

#include "comm/cshift.hpp"
#include "comm/detail.hpp"
#include "comm/transpose.hpp"
#include "core/array.hpp"
#include "core/flops.hpp"
#include "core/ops.hpp"

namespace dpf::la {

enum class FftDirection { Forward, Inverse };

namespace fft_detail {

[[nodiscard]] constexpr bool is_pow2(index_t n) {
  return n > 0 && (n & (n - 1)) == 0;
}

[[nodiscard]] constexpr index_t log2i(index_t n) {
  index_t l = 0;
  while ((index_t{1} << l) < n) ++l;
  return l;
}

/// Transforms `batch` contiguous rows of length n in place (row-major
/// buffer of batch*n complex values). Records 2 CShifts per stage covering
/// all rows; arithmetic counted at 5n per stage per row.
inline void fft_batch(complexd* data, index_t batch, index_t n,
                      FftDirection dir) {
  assert(is_pow2(n));
  if (n == 1) return;
  const int p = Machine::instance().vps();
  const double sign = dir == FftDirection::Forward ? -1.0 : 1.0;

  // Twiddle table: w[j] = exp(sign * 2*pi*i * j / n), j < n/2 (library
  // setup, not counted).
  std::vector<complexd> w(static_cast<std::size_t>(n / 2));
  for (index_t j = 0; j < n / 2; ++j) {
    const double ang = sign * 2.0 * M_PI * static_cast<double>(j) /
                       static_cast<double>(n);
    w[static_cast<std::size_t>(j)] = complexd(std::cos(ang), std::sin(ang));
  }

  // Bit-reversal permutation of every row.
  const index_t lg = log2i(n);
  parallel_range(batch, [&](index_t lo, index_t hi) {
    for (index_t b = lo; b < hi; ++b) {
      complexd* row = data + b * n;
      for (index_t i = 0; i < n; ++i) {
        index_t r = 0;
        for (index_t bit = 0; bit < lg; ++bit) {
          r |= ((i >> bit) & 1) << (lg - 1 - bit);
        }
        if (r > i) std::swap(row[i], row[r]);
      }
    }
  });

  for (index_t len = 2; len <= n; len <<= 1) {
    const index_t half = len / 2;
    const index_t tstep = n / len;
    parallel_range(batch, [&](index_t lo, index_t hi) {
      for (index_t b = lo; b < hi; ++b) {
        complexd* row = data + b * n;
        for (index_t i = 0; i < n; i += len) {
          for (index_t j = 0; j < half; ++j) {
            const complexd u = row[i + j];
            const complexd v =
                row[i + j + half] * w[static_cast<std::size_t>(j * tstep)];
            row[i + j] = u + v;
            row[i + j + half] = u - v;
          }
        }
      }
    });
    flops::add_weighted(5 * n * batch);
    // The ±(len/2) partner exchange: 2 CSHIFTs per stage. Its count is
    // keyed on (half, p) with n folded in, so each stage sweeps once.
    const index_t bytes = 16 * n * batch;
    index_t off = 0;
    if (p > 1) {
      comm::detail::KeyHash key;
      key.mix(0x4653u);  // stage tag: FFT partner exchange
      key.mix(static_cast<std::uint64_t>(half));
      key.mix(static_cast<std::uint64_t>(p));
      const auto owner = [=](index_t i) { return owner_of(n, p, i); };
      off = comm::detail::moved_elems(
                key.h, n, [=](index_t i) { return i ^ half; }, owner, owner) *
            16 * batch;
    }
    comm::detail::record(CommPattern::CShift, 1, 1, bytes, off / 2);
    comm::detail::record(CommPattern::CShift, 1, 1, bytes, off / 2);
  }

  if (dir == FftDirection::Inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    parallel_range(batch * n, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) data[i] *= inv;
    });
    flops::add(flops::Kind::DivSqrt, 1);
    flops::add(flops::Kind::AddSubMul, 2 * batch * n);
  }
}

}  // namespace fft_detail

/// In-place 1-D FFT of a rank-1 complex array (extent a power of two).
/// Records log2(n) butterfly-stage CSHIFT pairs and one AAPC (bit-reversal).
inline void fft_1d(Array1<complexd>& x, FftDirection dir) {
  comm::record_aapc(x);
  fft_detail::fft_batch(x.data().data(), 1, x.size(), dir);
}

/// The *basic* CMF formulation of the same transform: a decimation-in-
/// frequency ladder whose partner exchange at each stage is two literal
/// whole-array CSHIFTs (±len/2) combined under a mask — the code a
/// knowledgeable but not machine-tuning user would write (section 1.2).
/// Identical results and identical logical communication counts as
/// fft_1d; much more data motion at runtime, which is the point.
inline void fft_1d_basic(Array1<complexd>& x, FftDirection dir) {
  const index_t n = x.size();
  assert(fft_detail::is_pow2(n));
  if (n == 1) return;
  const double sign = dir == FftDirection::Forward ? -1.0 : 1.0;
  std::vector<complexd> w(static_cast<std::size_t>(n / 2));
  for (index_t j = 0; j < n / 2; ++j) {
    const double ang =
        sign * 2.0 * M_PI * static_cast<double>(j) / static_cast<double>(n);
    w[static_cast<std::size_t>(j)] = complexd(std::cos(ang), std::sin(ang));
  }

  for (index_t len = n; len >= 2; len >>= 1) {
    const index_t half = len / 2;
    const index_t tstep = n / len;
    auto up = comm::cshift(x, 0, +half);
    auto dn = comm::cshift(x, 0, -half);
    update(x, 5, [&](index_t i, complexd xi) {
      const index_t j = i % len;
      if (j < half) return xi + up[i];
      const index_t k = j - half;
      return (dn[i] - xi) * w[static_cast<std::size_t>(k * tstep)];
    });
  }
  // Bit-reversal unscrambling: the AAPC.
  comm::record_aapc(x);
  const index_t lg = fft_detail::log2i(n);
  for (index_t i = 0; i < n; ++i) {
    index_t r = 0;
    for (index_t bit = 0; bit < lg; ++bit) {
      r |= ((i >> bit) & 1) << (lg - 1 - bit);
    }
    if (r > i) std::swap(x[i], x[r]);
  }
  if (dir == FftDirection::Inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    update(x, 2, [&](index_t, complexd v) { return v * inv; });
    flops::add(flops::Kind::DivSqrt, 1);
  }
}

/// Real-input forward FFT: transforms a real signal of even length n using
/// one complex FFT of length n/2 (the classic packing trick the CM library
/// used for its "3 FFT" real Poisson solves). Returns the n/2+1
/// non-redundant spectrum bins; the remaining bins follow from Hermitian
/// symmetry X[n-k] = conj(X[k]).
inline void rfft_forward(const Array1<double>& x, Array1<complexd>& spectrum) {
  const index_t n = x.size();
  assert(n % 2 == 0 && fft_detail::is_pow2(n));
  assert(spectrum.size() == n / 2 + 1);
  const index_t h = n / 2;

  // Pack even samples into the real parts, odd into the imaginary parts.
  Array1<complexd> z(Shape<1>(h), Layout<1>{}, MemKind::Temporary);
  assign(z, 0, [&](index_t i) {
    return complexd(x[2 * i], x[2 * i + 1]);
  });
  fft_1d(z, FftDirection::Forward);

  // Unpack: X[k] = E[k] + w^k O[k] with
  //   E[k] = (Z[k] + conj(Z[h-k]))/2, O[k] = (Z[k] - conj(Z[h-k]))/(2i).
  parallel_range(h + 1, [&](index_t lo, index_t hi) {
    for (index_t k = lo; k < hi; ++k) {
      const complexd zk = (k == h) ? z[0] : z[k];
      const complexd zh = std::conj(z[(h - k) % h]);
      const complexd e = 0.5 * (zk + zh);
      const complexd o = complexd(0.0, -0.5) * (zk - zh);
      const double ang = -2.0 * M_PI * static_cast<double>(k) /
                         static_cast<double>(n);
      spectrum[k] = e + complexd(std::cos(ang), std::sin(ang)) * o;
    }
  });
  // Unpack arithmetic: ~2 complex adds + 1 complex multiply per bin.
  flops::add_weighted(10 * (h + 1));
}

/// Inverse of rfft_forward: reconstructs the real signal from the n/2+1
/// non-redundant bins (Hermitian symmetry assumed).
inline void rfft_inverse(const Array1<complexd>& spectrum, Array1<double>& x) {
  const index_t n = x.size();
  assert(n % 2 == 0 && fft_detail::is_pow2(n));
  assert(spectrum.size() == n / 2 + 1);
  // Expand to the full Hermitian spectrum and run a complex inverse FFT —
  // the straightforward (library-internal) route.
  Array1<complexd> full(Shape<1>(n), Layout<1>{}, MemKind::Temporary);
  parallel_range(n, [&](index_t lo, index_t hi) {
    for (index_t k = lo; k < hi; ++k) {
      full[k] = (k <= n / 2) ? spectrum[k] : std::conj(spectrum[n - k]);
    }
  });
  fft_1d(full, FftDirection::Inverse);
  assign(x, 0, [&](index_t i) { return full[i].real(); });
}

/// In-place FFT along every row of a rank-2 complex array.
inline void fft_rows(Array2<complexd>& x, FftDirection dir) {
  comm::record_aapc(x);
  fft_detail::fft_batch(x.data().data(), x.extent(0), x.extent(1), dir);
}

/// In-place 2-D FFT: row transforms, AAPC transpose, row transforms,
/// transpose back (the "six-step" structure; the paper's Table 4 counts one
/// AAPC per axis pass).
inline void fft_2d(Array2<complexd>& x, FftDirection dir) {
  fft_rows(x, dir);
  Array2<complexd> xt = comm::transpose(x);
  fft_detail::fft_batch(xt.data().data(), xt.extent(0), xt.extent(1), dir);
  // Transpose back in place (data motion already counted by the transpose
  // above in the six-step formulation; this one is the return leg).
  const index_t n0 = x.extent(0);
  const index_t n1 = x.extent(1);
  parallel_range(n0, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      for (index_t j = 0; j < n1; ++j) x(i, j) = xt(j, i);
    }
  });
}

/// In-place 3-D FFT: one batched pass per axis, with an AAPC reordering for
/// every non-contiguous axis.
inline void fft_3d(Array3<complexd>& x, FftDirection dir) {
  const index_t n0 = x.extent(0);
  const index_t n1 = x.extent(1);
  const index_t n2 = x.extent(2);

  // Axis 2 (contiguous): direct batched transform.
  comm::record_aapc(x);
  fft_detail::fft_batch(x.data().data(), n0 * n1, n2, dir);

  // Axis 1: reorder lines into a contiguous buffer (AAPC), transform, put
  // back.
  {
    comm::record_aapc(x);
    Array2<complexd> buf(Shape<2>(n0 * n2, n1), Layout<2>{},
                         MemKind::Temporary);
    parallel_range(n0, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        for (index_t k = 0; k < n2; ++k) {
          for (index_t j = 0; j < n1; ++j) buf(i * n2 + k, j) = x(i, j, k);
        }
      }
    });
    fft_detail::fft_batch(buf.data().data(), n0 * n2, n1, dir);
    parallel_range(n0, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        for (index_t k = 0; k < n2; ++k) {
          for (index_t j = 0; j < n1; ++j) x(i, j, k) = buf(i * n2 + k, j);
        }
      }
    });
  }
  // Axis 0.
  {
    comm::record_aapc(x);
    Array2<complexd> buf(Shape<2>(n1 * n2, n0), Layout<2>{},
                         MemKind::Temporary);
    parallel_range(n1, [&](index_t lo, index_t hi) {
      for (index_t j = lo; j < hi; ++j) {
        for (index_t k = 0; k < n2; ++k) {
          for (index_t i = 0; i < n0; ++i) buf(j * n2 + k, i) = x(i, j, k);
        }
      }
    });
    fft_detail::fft_batch(buf.data().data(), n1 * n2, n0, dir);
    parallel_range(n1, [&](index_t lo, index_t hi) {
      for (index_t j = lo; j < hi; ++j) {
        for (index_t k = 0; k < n2; ++k) {
          for (index_t i = 0; i < n0; ++i) x(i, j, k) = buf(j * n2 + k, i);
        }
      }
    });
  }
}

}  // namespace dpf::la
