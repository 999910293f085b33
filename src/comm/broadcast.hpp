#pragma once

/// \file broadcast.hpp
/// Broadcast and SPREAD — one-to-many replication.
///
/// `broadcast_fill` replicates a scalar over an array (a front-end-to-nodes
/// broadcast on the CM-5). `spread_into` replicates a rank-(R-1) array along
/// a new axis, the Fortran-90 SPREAD intrinsic; the paper's tables label the
/// same data motion "1-D to 2-D Broadcast" in some codes (jacobi,
/// matrix-vector) and "SPREAD" in others (md, n-body), so the recorded
/// pattern is a parameter.

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "net/exchange_plan.hpp"

namespace dpf::comm {

/// Replicates a scalar over every element of dst; recorded as a Broadcast
/// from rank 0 (scalar) to rank R. Under DPF_NET=overlap the scalar
/// travels a binomial tree through the transport and each VP fills its own
/// block with the copy it received (bit-exact, so both modes agree).
template <typename T, std::size_t R>
void broadcast_fill(Array<T, R>& dst, T value) {
  const int p = Machine::instance().vps();
  detail::OpTimer timer;
  if (net::algorithmic() && p > 1) {
    const std::vector<T> vals = net::bcast_value(value);
    for_each_block(dst.size(), [&](int vp, Block b) {
      const T v = vals[static_cast<std::size_t>(vp)];
      for (index_t i = b.begin; i < b.end; ++i) dst[i] = v;
    });
  } else {
    fill_par(dst, value);
  }
  detail::record(CommPattern::Broadcast, 0, static_cast<int>(R), dst.bytes(),
                 (p - 1) * static_cast<index_t>(sizeof(T)), 0,
                 timer.seconds());
}

/// dst(..., j at `axis`, ...) = src(...) for every j: SPREAD along `axis`.
/// dst's shape with `axis` removed must equal src's shape.
template <typename T, std::size_t R>
  requires(R >= 2)
void spread_into(Array<T, R>& dst, const Array<T, R - 1>& src,
                 std::size_t axis, CommPattern pattern = CommPattern::Spread) {
  assert(axis < R);
  const index_t n = dst.extent(axis);
  const auto strides = dst.shape().strides();
  const index_t st = strides[axis];
  const index_t inner = st;
  const index_t outer = dst.size() / (n * inner);
  assert(src.size() == outer * inner);
  // dst element L = (o*n + j)*inner + i replicates src element o*inner + i.
  const auto source_of = [n, inner](index_t L) {
    return (L / (n * inner)) * inner + L % inner;
  };
  const auto owner_dst = [&](index_t L) {
    return detail::owner_id_linear(dst, L);
  };
  const auto owner_src = [&](index_t j) {
    return detail::owner_id_linear(src, j);
  };

  // The routing and the off-processor count depend only on (n, inner) and
  // both arrays' owner structures; they share one key.
  const int p = Machine::instance().vps();
  detail::KeyHash key;
  key.mix(0x5350u);  // pattern discriminator: spread
  key.mix(static_cast<std::uint64_t>(n));
  key.mix(static_cast<std::uint64_t>(inner));
  key.mix(sizeof(T));
  key.mix_owner_structure(dst, p);
  key.mix_owner_structure(src, p);
  detail::OpTimer timer;
  if (net::algorithmic() && p > 1) {
    // Personalized exchange: every replica crosses as one message element.
    const auto plan = net::plan_for(key.h, dst.size(), p, source_of,
                                    owner_dst, owner_src);
    net::exchange_planned(dst.data().data(), src.data().data(), *plan);
  } else {
    parallel_range(outer * inner, [&](index_t lo, index_t hi) {
      for (index_t oi = lo; oi < hi; ++oi) {
        const index_t o = oi / inner;
        const index_t i = oi % inner;
        const index_t base = o * n * inner + i;
        const T v = src[oi];
        for (index_t j = 0; j < n; ++j) dst[base + j * st] = v;
      }
    });
  }

  const double seconds = timer.seconds();
  // Off-processor bytes: the replicas whose owner differs from their
  // source element's owner.
  const index_t moved =
      p > 1 ? detail::moved_elems(key.h, dst.size(), source_of, owner_dst,
                                  owner_src)
            : 0;
  detail::record(pattern, static_cast<int>(R - 1), static_cast<int>(R),
                 dst.bytes(), moved * static_cast<index_t>(sizeof(T)), 0,
                 seconds);
}

/// Returns SPREAD(src, axis, copies) as a library temporary.
template <typename T, std::size_t R>
[[nodiscard]] Array<T, R + 1> spread(const Array<T, R>& src, std::size_t axis,
                                     index_t copies,
                                     CommPattern pattern = CommPattern::Spread) {
  std::array<index_t, R + 1> ext{};
  for (std::size_t a = 0, w = 0; a < R + 1; ++a) {
    ext[a] = (a == axis) ? copies : src.extent(w++);
  }
  Array<T, R + 1> dst(Shape<R + 1>(ext), Layout<R + 1>{}, MemKind::Temporary);
  spread_into(dst, src, axis, pattern);
  return dst;
}

}  // namespace dpf::comm
