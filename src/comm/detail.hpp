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
/// `seconds` field of the recorded CommEvent. Every recording primitive
/// constructs one at its top, so the embedded RecordScope marks the
/// primitive's dynamic extent: collectives a primitive calls internally
/// (the DPF_NET=algorithmic realizations) see themselves nested and their
/// events are dropped in favour of the outermost pattern.
class OpTimer {
 public:
  OpTimer() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  CommLog::RecordScope scope_;
  std::chrono::steady_clock::time_point t0_;
};

/// FNV-1a key accumulator for the engine's memos (core/memo.hpp): the
/// exchange-plan memo, the owner-table memo and the off-processor byte
/// memos below.
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

/// Memo of off-processor byte scans, one per call site and thread. The
/// scans are pure functions of the arrays' ownership structure, and the
/// suite's apps re-issue the same operation shape every iteration — so each
/// scan runs once per shape instead of once per call. Record-side only
/// (control thread).
using OffprocMemo = LruMemo<index_t, 16>;

/// True when two arrays share one backing store (full aliasing — the
/// in-place case the payload-once accounting rule covers).
template <typename T, std::size_t R>
[[nodiscard]] bool same_store(const Array<T, R>& a, const Array<T, R>& b) {
  return a.data().data() == b.data().data();
}

/// Number of positions j in [0,n) whose owner under the given distribution
/// over `procs` processors (the machine VP count when 0) differs from the
/// owner of perm(j).
template <typename PermFn>
[[nodiscard]] index_t moved_slots(index_t n, PermFn&& perm,
                                  Dist d = Dist::Block, int procs = 0) {
  const int p = procs > 0 ? procs : Machine::instance().vps();
  if (p <= 1 || n == 0) return 0;
  index_t moved = 0;
  for (index_t j = 0; j < n; ++j) {
    const index_t k = perm(j);
    if (owner_of(n, p, j, d) != owner_of(n, p, k, d)) ++moved;
  }
  return moved;
}

/// Off-processor bytes of a shift of `src` by `s` along `axis`: the axis
/// positions whose source lies on another processor, times the bytes per
/// axis position. `circular` selects CSHIFT (r(j) = a((j + s) mod n)) or
/// EOSHIFT (r(j) = a(j + s), boundary fills local) semantics; a circular
/// `s` must already be reduced to [0, n). The position count depends only
/// on (extent, s, distribution, processors on the axis, circular), so it
/// is memoized on exactly those.
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
  key.mix(static_cast<std::uint64_t>(n));
  key.mix(static_cast<std::uint64_t>(s));
  key.mix(static_cast<std::uint64_t>(static_cast<int>(d)));
  key.mix(static_cast<std::uint64_t>(procs));
  static thread_local OffprocMemo memo;
  const index_t moved = memo.get(key.h, [&] {
    if (circular) {
      return moved_slots(n, [&](index_t j) { return (j + s) % n; }, d, procs);
    }
    return moved_slots(
        n,
        [&](index_t j) {
          const index_t jj = j + s;
          return (jj >= 0 && jj < n) ? jj : j;  // boundary fills are local
        },
        d, procs);
  });
  return moved * (src.bytes() / n);
}

/// Encoded owner id of the element at `coord` of array `a`, combining the
/// per-axis owners of every distributed axis (explicit grid when set, the
/// outermost-parallel-axis fold otherwise).
template <typename T, std::size_t R>
[[nodiscard]] int owner_id(const Array<T, R>& a,
                           const std::array<index_t, R>& coord) {
  const int p = Machine::instance().vps();
  if (p <= 1) return 0;
  const auto& layout = a.layout();
  int id = 0;
  for (std::size_t ax = 0; ax < R; ++ax) {
    const int g = layout.procs_on_axis(ax, p);
    if (g <= 1) continue;
    id = id * g + owner_of(a.extent(ax), g, coord[ax], layout.dist());
  }
  return id;
}

/// Encoded owner id of linear element i of array a.
template <typename T, std::size_t R>
[[nodiscard]] int owner_id_linear(const Array<T, R>& a, index_t i) {
  const auto strides = a.shape().strides();
  std::array<index_t, R> coord{};
  for (std::size_t ax = 0; ax < R; ++ax) {
    coord[ax] = (i / strides[ax]) % a.extent(ax);
  }
  return owner_id(a, coord);
}

/// Owner ids of every linear element of one ownership structure:
/// element i holds owner_id_linear(a, i) for any array `a` of that
/// structure. Immutable once built.
using OwnerTable = std::vector<int>;

/// Control-thread memo of owner tables (core/memo.hpp) under the VP count
/// plus the ownership structure. The element type is not in the key, so
/// arrays of different types with one structure share one table. The
/// suite's router operations touch 9 structures at DPF_VPS=16 under
/// DPF_NET=direct, algorithmic and overlap, so a warm pass builds no table.
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

/// Owner of position i on the distributed axis of extent n; 0 if n == 0.
[[nodiscard]] inline int owner(index_t n, index_t i, Dist d = Dist::Block) {
  const int p = Machine::instance().vps();
  return (p <= 1 || n == 0) ? 0 : owner_of(n, p, i, d);
}

/// Bytes per distributed-axis slot of an array: total bytes / extent of the
/// distributed axis (or all bytes when the array has no parallel axis).
template <typename T, std::size_t R>
[[nodiscard]] index_t slot_bytes(const Array<T, R>& a) {
  const index_t d = a.distributed_extent();
  return d > 0 ? a.bytes() / d : 0;
}

/// Routes per-VP reduction/scan partials through the transport allgather
/// when the algorithmic formulation is selected. The gathered copies are
/// bit-exact, so the caller's ascending combine loop — and therefore the
/// floating-point result — is unchanged.
template <typename T>
void share_partials(std::vector<T>& partial) {
  if (partial.size() > 1 && net::algorithmic()) {
    net::allgather_slots(partial);
  }
}

/// Records one event on the global log, annotated with the fat-tree hop
/// count and (when the cost model is calibrated) the predicted time.
/// `bytes` follows the payload-once rule (see CommEvent): the logical
/// payload is counted exactly once regardless of aliasing or staging.
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
                         double seconds, double overlap_seconds,
                         int blocks = 1) {
  CommEvent e{pattern, src_rank, dst_rank, bytes, offproc_bytes, detail};
  e.seconds = seconds;
  e.overlap_seconds = overlap_seconds;
  e.split_phase = true;
  e.blocks = blocks;
  net::annotate(e);
  CommLog::instance().record(e);
}

}  // namespace dpf::comm::detail
