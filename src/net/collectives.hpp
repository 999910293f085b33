#pragma once

/// \file collectives.hpp
/// Message-passing formulations of the group-communication primitives,
/// built on the Transport mailboxes and the SPMD region barrier.
///
/// Every collective is a sequence of *phases*: a posting region followed by
/// a fetching region (the region boundary is the barrier that publishes the
/// mailboxes). No region body ever blocks — with fewer workers than VPs a
/// blocking receive would deadlock the chunked dispatcher — so each
/// communication round costs two SPMD regions.
///
/// Bit-identity with the direct shared-memory path is by construction:
/// allgather_slots moves per-VP partial results (recursive doubling for
/// power-of-two P, a ring otherwise) and the caller combines them in the
/// same ascending-VP order as the direct path, so floating-point reductions
/// associate identically; bcast_value delivers bit-exact copies. The
/// data-movement collectives run the personalized exchange of
/// exchange_plan.hpp.
///
/// None of them records a CommEvent. They are the realization of a
/// dpf::comm primitive, which records the one event of the pattern the
/// program asked for (comm::detail::record); their own traffic shows in
/// Transport::stats() only.

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/machine.hpp"
#include "net/net.hpp"

namespace dpf::net {

namespace coll_detail {

inline bool is_pow2(int p) { return p > 0 && (p & (p - 1)) == 0; }

inline int log2_ceil(int p) {
  int r = 0;
  while ((1 << r) < p) ++r;
  return r;
}

}  // namespace coll_detail

/// Allgather of one slot per VP: on entry slot[v] is VP v's contribution;
/// on return every slot has travelled through the transport (the returned
/// values are VP 0's gathered view — bit-exact copies of the originals).
/// Recursive doubling when P is a power of two, a ring otherwise.
template <typename T>
void allgather_slots(std::vector<T>& slot) {
  static_assert(std::is_trivially_copyable_v<T>);
  Machine& m = Machine::instance();
  const int p = m.vps();
  if (p <= 1) return;
  assert(slot.size() == static_cast<std::size_t>(p));
  Transport& t = transport();

  // local[v*p + u] = slot u as known by VP v.
  std::vector<T> local(static_cast<std::size_t>(p) * p, T{});
  for (int v = 0; v < p; ++v) {
    local[static_cast<std::size_t>(v) * p + v] = slot[static_cast<std::size_t>(v)];
  }

  if (coll_detail::is_pow2(p)) {
    // Recursive doubling: after round r every VP holds the 2^(r+1)-aligned
    // segment containing its own slot.
    const int rounds = coll_detail::log2_ceil(p);
    const std::uint64_t base = next_tags(static_cast<std::uint64_t>(rounds));
    for (int r = 0; r < rounds; ++r) {
      const int seg = 1 << r;
      m.spmd([&](int v) {
        const int partner = v ^ seg;
        const int start = (v >> r) << r;
        t.post(v, partner, base + static_cast<std::uint64_t>(r),
               &local[static_cast<std::size_t>(v) * p + start],
               static_cast<std::size_t>(seg) * sizeof(T));
      });
      m.spmd([&](int v) {
        const int partner = v ^ seg;
        const int pstart = (partner >> r) << r;
        const bool ok =
            t.try_fetch(v, partner, base + static_cast<std::uint64_t>(r),
                        &local[static_cast<std::size_t>(v) * p + pstart],
                        static_cast<std::size_t>(seg) * sizeof(T));
        assert(ok);
        (void)ok;
      });
    }
  } else {
    // Ring: in round k, VP v forwards the slot it received k rounds ago to
    // its right neighbour.
    const std::uint64_t base = next_tags(static_cast<std::uint64_t>(p - 1));
    for (int k = 0; k < p - 1; ++k) {
      m.spmd([&](int v) {
        const int b_send = ((v - k) % p + p) % p;
        t.post(v, (v + 1) % p, base + static_cast<std::uint64_t>(k),
               &local[static_cast<std::size_t>(v) * p + b_send], sizeof(T));
      });
      m.spmd([&](int v) {
        const int left = (v - 1 + p) % p;
        const int b_recv = ((v - 1 - k) % p + p) % p;
        const bool ok =
            t.try_fetch(v, left, base + static_cast<std::uint64_t>(k),
                        &local[static_cast<std::size_t>(v) * p + b_recv],
                        sizeof(T));
        assert(ok);
        (void)ok;
      });
    }
  }

  for (int u = 0; u < p; ++u) {
    slot[static_cast<std::size_t>(u)] = local[static_cast<std::size_t>(u)];
  }
}

/// Binomial-tree broadcast of one value from VP 0 (recursive doubling of
/// the informed set). Returns the per-VP received copies.
template <typename T>
[[nodiscard]] std::vector<T> bcast_value(T root_value) {
  static_assert(std::is_trivially_copyable_v<T>);
  Machine& m = Machine::instance();
  const int p = m.vps();
  std::vector<T> vals(static_cast<std::size_t>(std::max(p, 1)), T{});
  vals[0] = root_value;
  if (p <= 1) return vals;
  Transport& t = transport();
  const int rounds = coll_detail::log2_ceil(p);
  const std::uint64_t base = next_tags(static_cast<std::uint64_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const int span = 1 << r;
    m.spmd([&](int v) {
      if (v < span && v + span < p) {
        t.post(v, v + span, base + static_cast<std::uint64_t>(r),
               &vals[static_cast<std::size_t>(v)], sizeof(T));
      }
    });
    m.spmd([&](int v) {
      if (v >= span && v < 2 * span && v < p) {
        const bool ok =
            t.try_fetch(v, v - span, base + static_cast<std::uint64_t>(r),
                        &vals[static_cast<std::size_t>(v)], sizeof(T));
        assert(ok);
        (void)ok;
      }
    });
  }
  return vals;
}

}  // namespace dpf::net
