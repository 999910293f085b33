#pragma once

/// \file transpose.hpp
/// Matrix transposition — realized as all-to-all personalized communication
/// (AAPC) on a distributed-memory machine (paper section 2: "the transpose
/// ... may be used to confirm advertised bisection bandwidths").
///
/// Under DPF_NET=overlap the exchange runs through the planned engine
/// (exchange_plan.hpp): a cached routing table replaces the per-element
/// functor scans.

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "net/exchange_plan.hpp"

namespace dpf::comm {

namespace transpose_detail {

/// Direct shared-memory path: cache-blocked tile transpose, parallel over
/// destination row blocks.
template <typename T>
void direct_tiles(Array<T, 2>& dst, const Array<T, 2>& src) {
  const index_t n = src.extent(0);
  const index_t m = src.extent(1);
  constexpr index_t kTile = 32;
  parallel_range(m, [&](index_t lo, index_t hi) {
    for (index_t i0 = lo; i0 < hi; i0 += kTile) {
      const index_t i1 = std::min(i0 + kTile, hi);
      for (index_t j0 = 0; j0 < n; j0 += kTile) {
        const index_t j1 = std::min(j0 + kTile, n);
        for (index_t i = i0; i < i1; ++i) {
          for (index_t j = j0; j < j1; ++j) dst(i, j) = src(j, i);
        }
      }
    }
  });
}

}  // namespace transpose_detail

/// dst = transpose(src) for rank-2 arrays; dst must be shaped (m,n) for an
/// (n,m) source. Recorded as one AAPC.
template <typename T>
void transpose_into(Array<T, 2>& dst, const Array<T, 2>& src) {
  const index_t n = src.extent(0);
  const index_t m = src.extent(1);
  assert(dst.extent(0) == m && dst.extent(1) == n);

  // dst element L = i*n + j pulls src element j*m + i. The routing and the
  // off-processor count depend only on (n, m) and both arrays' owner
  // structures; they share one key.
  const auto source_of = [n, m](index_t L) { return (L % n) * m + L / n; };
  const auto owner_dst = [&](index_t L) {
    return detail::owner_id_linear(dst, L);
  };
  const auto owner_src = [&](index_t J) {
    return detail::owner_id_linear(src, J);
  };
  const int p = Machine::instance().vps();
  detail::KeyHash key;
  key.mix(0x5452u);  // pattern discriminator: transpose
  key.mix(static_cast<std::uint64_t>(n));
  key.mix(static_cast<std::uint64_t>(m));
  key.mix(sizeof(T));
  key.mix_owner_structure(src, p);
  key.mix_owner_structure(dst, p);
  detail::OpTimer timer;
  if (net::algorithmic() && p > 1 && dst.size() > 0) {
    // Pairwise-exchange AAPC.
    const auto plan =
        net::plan_for(key.h, dst.size(), p, source_of, owner_dst, owner_src);
    net::exchange_planned(dst.data().data(), src.data().data(), *plan);
  } else {
    transpose_detail::direct_tiles(dst, src);
  }
  const double seconds = timer.seconds();
  const index_t moved =
      p > 1 ? detail::moved_elems(key.h, dst.size(), source_of, owner_dst,
                                  owner_src)
            : 0;
  detail::record(CommPattern::AAPC, 2, 2, src.bytes(),
                 moved * static_cast<index_t>(sizeof(T)), 0, seconds);
}

/// Returns the transpose as a library temporary.
template <typename T>
[[nodiscard]] Array<T, 2> transpose(const Array<T, 2>& src) {
  Array<T, 2> dst(Shape<2>(src.extent(1), src.extent(0)), Layout<2>{},
                  MemKind::Temporary);
  transpose_into(dst, src);
  return dst;
}

/// Records an AAPC event without moving data — used by algorithms whose
/// personalized exchange is folded into another loop (e.g. the FFT
/// bit-reversal permutation applied in place).
template <typename T, std::size_t R>
void record_aapc(const Array<T, R>& a) {
  const int p = Machine::instance().vps();
  detail::record(CommPattern::AAPC, static_cast<int>(R), static_cast<int>(R),
                 a.bytes(), p > 1 ? a.bytes() * (p - 1) / p : 0);
}

}  // namespace dpf::comm
