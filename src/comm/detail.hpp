#pragma once

/// \file detail.hpp
/// Shared helpers for the collective-communication library: ownership
/// classification of data movement under the block distribution of an
/// array's distributed axis.

#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/array.hpp"
#include "core/comm_log.hpp"
#include "core/machine.hpp"
#include "core/memo.hpp"
#include "net/collectives.hpp"
#include "net/net.hpp"

namespace dpf::comm::detail {

/// Wall-clock timer for one collective operation; feeds the measured
/// `seconds` field of the recorded CommEvent.
class OpTimer {
 public:
  OpTimer() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// FNV-1a key accumulator for the engine's memos (core/memo.hpp): the
/// exchange-plan memo, the owner-table memo and the count memo below.
struct KeyHash {
  std::uint64_t h = kFnvBasis;
  void mix(std::uint64_t v) { h = fnv_mix(h, v); }
  /// Folds in everything ownership classification of `a` depends on: rank,
  /// per-axis extents, per-axis processor counts under p VPs, and the
  /// distribution kind. Two arrays with equal folds place every linear
  /// index on the same owner.
  template <typename T, std::size_t R>
  void mix_owner_structure(const Array<T, R>& a, int p) {
    mix(R);
    mix(static_cast<std::uint64_t>(static_cast<int>(a.layout().dist())));
    for (std::size_t ax = 0; ax < R; ++ax) {
      mix(static_cast<std::uint64_t>(a.extent(ax)));
      mix(static_cast<std::uint64_t>(a.layout().procs_on_axis(ax, p)));
    }
  }
};

/// True when two arrays share one backing store (full aliasing — the
/// in-place case the payload-once accounting rule covers).
template <typename T, std::size_t R>
[[nodiscard]] bool same_store(const Array<T, R>& a, const Array<T, R>& b) {
  return a.data().data() == b.data().data();
}

/// Memo of off-processor element counts (moved_elems below), one per
/// thread, 64 entries like net::PlanMemo. The counts are pure functions of
/// a movement's shape, and the suite's codes repeat the same shapes
/// every iteration, so each count sweeps once per shape: the whole suite
/// holds 54 keys at DPF_VPS=16 and a warm pass builds none.
using CountMemo = LruMemo<index_t, 64>;

/// This thread's count memo; its stats() count the sweeps it ran and the
/// lookups it saved.
[[nodiscard]] inline CountMemo& count_memo() {
  static thread_local CountMemo memo;
  return memo;
}

/// Off-processor elements of the data movement dst[i] = src[map(i)], i in
/// [0, n): the i whose owner differs from the owner of their source
/// element (docs/METRICS.md section 4). Every swept count of the library
/// is this loop. A boundary fill maps i to an element with i's own owner,
/// so it never counts. The body stays a plain compare-add: a guarded form
/// (`if (j >= 0 && ...) ++moved`) doubled the router's scan.
template <typename Map, typename OwnerDst, typename OwnerSrc>
[[nodiscard]] index_t moved_elems(index_t n, Map&& map, OwnerDst&& owner_dst,
                                  OwnerSrc&& owner_src) {
  index_t moved = 0;
  for (index_t i = 0; i < n; ++i) moved += owner_dst(i) != owner_src(map(i));
  return moved;
}

/// moved_elems through this thread's count memo. `key` must fold every
/// input of the count but n, which is folded in here; callers pass the
/// key they give net::plan_for, or an axis key for the shifts.
template <typename Map, typename OwnerDst, typename OwnerSrc>
[[nodiscard]] index_t moved_elems(std::uint64_t key, index_t n, Map&& map,
                                  OwnerDst&& owner_dst, OwnerSrc&& owner_src) {
  return count_memo().get(fnv_mix(key, static_cast<std::uint64_t>(n)), [&] {
    return moved_elems(n, map, owner_dst, owner_src);
  });
}

/// Off-processor bytes of a shift of `src` by `s` along `axis`: the axis
/// positions whose source lies on another processor, times the bytes per
/// axis position. `circular` selects CSHIFT (r(j) = a((j + s) mod n)) or
/// EOSHIFT (r(j) = a(j + s), boundary fills local) semantics; a circular
/// `s` must already be reduced to [0, n). The position count depends only
/// on (extent, s, distribution, processors on the axis, circular), so it
/// is keyed on exactly those: no element type or rank, and one entry
/// serves every cshift, eoshift and ShiftBundle member of one axis shape.
template <typename T, std::size_t R>
[[nodiscard]] index_t shift_offproc_bytes(const Array<T, R>& src,
                                          std::size_t axis, index_t s,
                                          bool circular) {
  const index_t n = src.extent(axis);
  const int procs = src.layout().procs_on_axis(axis, Machine::instance().vps());
  if (procs <= 1 || s == 0 || n == 0) return 0;
  const Dist d = src.layout().dist();
  KeyHash key;
  key.mix(circular ? 1 : 0);
  key.mix(static_cast<std::uint64_t>(s));
  key.mix(static_cast<std::uint64_t>(static_cast<int>(d)));
  key.mix(static_cast<std::uint64_t>(procs));
  const auto owner = [=](index_t j) { return owner_of(n, procs, j, d); };
  const index_t moved =
      circular
          ? moved_elems(
                key.h, n, [=](index_t j) { return (j + s) % n; }, owner, owner)
          : moved_elems(
                key.h, n,
                [=](index_t j) {
                  const index_t jj = j + s;
                  return (jj >= 0 && jj < n) ? jj : j;  // fills are local
                },
                owner, owner);
  return moved * (src.bytes() / n);
}

/// Encoded owner id of linear element i of array a, combining the per-axis
/// owners of every distributed axis (explicit grid when set, the
/// outermost-parallel-axis fold otherwise).
template <typename T, std::size_t R>
[[nodiscard]] int owner_id_linear(const Array<T, R>& a, index_t i) {
  const int p = Machine::instance().vps();
  if (p <= 1) return 0;
  const auto& layout = a.layout();
  const auto strides = a.shape().strides();
  int id = 0;
  for (std::size_t ax = 0; ax < R; ++ax) {
    const int g = layout.procs_on_axis(ax, p);
    if (g <= 1) continue;
    const index_t c = (i / strides[ax]) % a.extent(ax);
    id = id * g + owner_of(a.extent(ax), g, c, layout.dist());
  }
  return id;
}

/// Owner ids of every linear element of one ownership structure:
/// element i holds owner_id_linear(a, i) for any array `a` of that
/// structure. Immutable once built.
using OwnerTable = std::vector<int>;

/// Control-thread memo of owner tables (core/memo.hpp) under the VP count
/// plus the ownership structure. The element type is not in the key, so
/// arrays of different types with one structure share one table. The
/// suite's router operations touch 9 structures at DPF_VPS=16 under
/// DPF_NET=direct and overlap, so a warm pass builds no table.
using OwnerTableMemo = LruMemo<std::shared_ptr<const OwnerTable>, 16>;

/// This thread's owner-table memo; its stats() count table builds and
/// reuses.
[[nodiscard]] inline OwnerTableMemo& owner_table_memo() {
  static thread_local OwnerTableMemo memo;
  return memo;
}

/// The owner table of `a`'s ownership structure at the current VP count,
/// built by one owner_id_linear decode per element on first use and shared
/// afterwards. Control thread only.
template <typename T, std::size_t R>
[[nodiscard]] std::shared_ptr<const OwnerTable> owner_table(
    const Array<T, R>& a) {
  const int p = Machine::instance().vps();
  KeyHash key;
  key.mix(static_cast<std::uint64_t>(p));
  key.mix_owner_structure(a, p);
  auto table = owner_table_memo().get(key.h, [&] {
    OwnerTable owners(static_cast<std::size_t>(a.size()));
    for (index_t i = 0; i < a.size(); ++i) {
      owners[static_cast<std::size_t>(i)] = owner_id_linear(a, i);
    }
    return std::make_shared<const OwnerTable>(std::move(owners));
  });
  assert(static_cast<index_t>(table->size()) == a.size());
  return table;
}

/// Bytes per distributed-axis slot of an array: total bytes / extent of the
/// distributed axis (or all bytes when the array has no parallel axis).
template <typename T, std::size_t R>
[[nodiscard]] index_t slot_bytes(const Array<T, R>& a) {
  const index_t d = a.distributed_extent();
  return d > 0 ? a.bytes() / d : 0;
}

/// Routes per-VP reduction/scan partials through the transport allgather
/// when the message-passing formulation is selected. The gathered copies are
/// bit-exact, so the caller's ascending combine loop — and therefore the
/// floating-point result — is unchanged.
template <typename T>
void share_partials(std::vector<T>& partial) {
  if (partial.size() > 1 && net::algorithmic()) {
    net::allgather_slots(partial);
  }
}

/// Records one event on the global log, annotated with the fat-tree hop
/// count and (when the cost model is calibrated) the predicted time. The
/// one way an event enters the log: the primitives call it with their
/// measured `seconds`, the analytic records of the la and app layers
/// without (untimed). `bytes` follows the payload-once rule (see
/// CommEvent): the logical payload is counted exactly once regardless of
/// aliasing or staging.
inline void record(CommPattern pattern, int src_rank, int dst_rank,
                   index_t bytes, index_t offproc_bytes, index_t detail = 0,
                   double seconds = 0.0) {
  CommEvent e{pattern, src_rank, dst_rank, bytes, offproc_bytes, detail};
  e.seconds = seconds;
  net::annotate(e);
  CommLog::instance().record(e);
}

/// Records one *split-phase* event: `seconds` covers the posting and
/// completion phases only, `overlap_seconds` is the in-flight window the
/// caller spent computing between them. The cost model subtracts the
/// window from its transfer prediction (cost_model.hpp), keeping
/// predicted-vs-measured comparable for overlapped collectives.
inline void record_split(CommPattern pattern, int src_rank, int dst_rank,
                         index_t bytes, index_t offproc_bytes, index_t detail,
                         double seconds, double overlap_seconds) {
  CommEvent e{pattern, src_rank, dst_rank, bytes, offproc_bytes, detail};
  e.seconds = seconds;
  e.overlap_seconds = overlap_seconds;
  e.split_phase = true;
  net::annotate(e);
  CommLog::instance().record(e);
}

}  // namespace dpf::comm::detail
