#pragma once

/// \file butterfly.hpp
/// Butterfly exchange — the FFT data motion (CommPattern::Butterfly):
/// dst(i) = src(i XOR h) for a power-of-two stage distance h. Stage k of an
/// FFT of length n performs butterfly_into with h = n >> (k+1).
///
/// The primitive is explicitly in-place capable: dst and src may share one
/// backing store, in which case the exchange degenerates to pair swaps.
/// Accounting follows the payload-once rule (see CommEvent): the event's
/// `bytes` is the array payload counted once, whether the exchange runs
/// out-of-place, in-place, or stages through a snapshot/transport on the
/// message-passing path. A naive formulation that records the staging copy
/// as a second event would double-count the motion; the regression tests
/// in test_net_transport.cpp pin this down.

#include <vector>

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "net/exchange_plan.hpp"

namespace dpf::comm {

/// dst = butterfly(src, h): dst(i) = src(i ^ h). Requires h a positive power
/// of two and size a multiple of 2h. dst may alias src (full-store aliasing
/// only — partial overlap is not supported).
template <typename T, std::size_t R>
void butterfly_into(Array<T, R>& dst, const Array<T, R>& src, index_t h) {
  assert(h > 0 && (h & (h - 1)) == 0);
  assert(dst.shape() == src.shape());
  const index_t n = src.size();
  if (n == 0) return;
  assert(n % (2 * h) == 0);

  const bool inplace = detail::same_store(dst, src);
  const auto partner = [h](index_t i) { return i ^ h; };
  const auto owner_dst = [&](index_t L) {
    return detail::owner_id_linear(dst, L);
  };
  const auto owner_src = [&](index_t j) {
    return detail::owner_id_linear(src, j);
  };
  // The routing and the off-processor count depend only on (h, n) and both
  // arrays' owner structures; they share one key.
  const int p = Machine::instance().vps();
  detail::KeyHash key;
  key.mix(0x4246u);  // pattern discriminator: butterfly
  key.mix(static_cast<std::uint64_t>(h));
  key.mix(static_cast<std::uint64_t>(n));
  key.mix(sizeof(T));
  key.mix_owner_structure(src, p);
  key.mix_owner_structure(dst, p);
  detail::OpTimer timer;

  if (net::algorithmic() && p > 1) {
    const T* sp = src.data().data();
    std::vector<T> snap;
    if (inplace) {
      // Snapshot the store so the exchange reads stable sources. The copy
      // is staging, not payload — it is not recorded as an event.
      snap.assign(sp, sp + n);
      sp = snap.data();
    }
    const auto plan = net::plan_for(key.h, n, p, partner, owner_dst, owner_src);
    net::exchange_planned(dst.data().data(), sp, *plan);
  } else if (inplace) {
    // Pair swap: pair k couples i and i + h with i = (k/h)*2h + k%h.
    T* dp = dst.data().data();
    parallel_range(n / 2, [&](index_t lo, index_t hi) {
      for (index_t k = lo; k < hi; ++k) {
        const index_t i = (k / h) * 2 * h + k % h;
        std::swap(dp[i], dp[i + h]);
      }
    });
  } else {
    const T* sp = src.data().data();
    T* dp = dst.data().data();
    parallel_range(n, [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) dp[i] = sp[i ^ h];
    });
  }

  const double seconds = timer.seconds();
  const index_t moved =
      p > 1 ? detail::moved_elems(key.h, n, partner, owner_dst, owner_src) : 0;
  detail::record(CommPattern::Butterfly, static_cast<int>(R),
                 static_cast<int>(R), src.bytes(),
                 moved * static_cast<index_t>(sizeof(T)), h, seconds);
}

/// Returns butterfly(src, h) as a library temporary.
template <typename T, std::size_t R>
[[nodiscard]] Array<T, R> butterfly(const Array<T, R>& src, index_t h) {
  Array<T, R> dst(src.shape(), src.layout(), MemKind::Temporary);
  butterfly_into(dst, src, h);
  return dst;
}

}  // namespace dpf::comm
