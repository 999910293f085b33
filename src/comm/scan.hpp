#pragma once

/// \file scan.hpp
/// Parallel-prefix operations: inclusive/exclusive sum scans and segmented
/// scans (sum and copy). Counted at their sequential FLOP cost N-1 per the
/// paper; recorded as CommPattern::Scan. Used by pic-gather-scatter (81
/// scans/iter), qmc, and qptransport.

#include <vector>

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/flops.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "vec/vec.hpp"

namespace dpf::comm {

/// Inclusive sum scan of a rank-1 array: dst[i] = sum(src[0..i]).
/// Two-pass blocked parallel algorithm (per-block partials, then offset fix).
template <typename T>
void scan_sum_into(Array<T, 1>& dst, const Array<T, 1>& src,
                   bool exclusive = false) {
  assert(dst.size() == src.size());
  const index_t n = src.size();
  if (n == 0) return;
  const int p = Machine::instance().vps();
  detail::OpTimer timer;
  std::vector<T> block_total(static_cast<std::size_t>(p), T{});

  for_each_block(n, [&](int vp, Block b) {
    T acc{};
    for (index_t i = b.begin; i < b.end; ++i) {
      acc += src[i];
      dst[i] = acc;
    }
    block_total[static_cast<std::size_t>(vp)] = acc;
  });
  // Under DPF_NET=overlap the block totals travel the transport
  // allgather; the copies are bit-exact, so the exclusive prefix below (and
  // therefore the scan) is unchanged.
  detail::share_partials(block_total);
  // Exclusive prefix of the block totals.
  std::vector<T> offset(static_cast<std::size_t>(p), T{});
  for (int vp = 1; vp < p; ++vp) {
    offset[static_cast<std::size_t>(vp)] =
        offset[static_cast<std::size_t>(vp - 1)] +
        block_total[static_cast<std::size_t>(vp - 1)];
  }
  // Offset-fix pass. The exclusive variant folds the shift-right-by-one in
  // here instead of running a serial post-pass on the control processor, so
  // its O(n) cost lands inside the SPMD region (busy time + trace spans):
  // within a block the exclusive prefix at i is the pass-1 local inclusive
  // prefix at i-1 plus the block offset, and at a block head it is the block
  // offset itself — bit-identical to shifting the inclusive result, since
  // offset[vp] = offset[vp-1] + block_total[vp-1] is the same addition the
  // shifted head element would have seen.
  T* ds = dst.data().data();
  for_each_block(n, [&](int vp, Block b) {
    const T off = offset[static_cast<std::size_t>(vp)];
    if (exclusive) {
      // Downward sweep: dst[i-1] is still the pass-1 value when read.
      for (index_t i = b.end - 1; i > b.begin; --i) ds[i] = ds[i - 1] + off;
      ds[b.begin] = off;
    } else {
      vec::add_scalar(ds + b.begin, b.size(), off);
    }
  });
  // A sum scan costs N-1 sequential FLOPs (paper section 1.5, attribute 1),
  // exactly like scan_sum_axis_into; pinned by ScanMetrics regression tests.
  if (n > 1) flops::add(flops::Kind::AddSubMul, n - 1);
  detail::record(CommPattern::Scan, 1, 1, src.bytes(),
                 (p - 1) * static_cast<index_t>(sizeof(T)), 0,
                 timer.seconds());
}

/// Returns the inclusive sum scan as a library temporary.
template <typename T>
[[nodiscard]] Array<T, 1> scan_sum(const Array<T, 1>& src,
                                   bool exclusive = false) {
  Array<T, 1> dst(src.shape(), src.layout(), MemKind::Temporary);
  scan_sum_into(dst, src, exclusive);
  return dst;
}

/// Segmented inclusive sum scan: the running sum restarts wherever
/// seg_start[i] != 0. Executed serially on the control processor after a
/// parallel first pass is not profitable at our scale; counted N-1, recorded
/// as a Scan.
template <typename T>
void segmented_scan_sum_into(Array<T, 1>& dst, const Array<T, 1>& src,
                             const Array<std::uint8_t, 1>& seg_start) {
  assert(dst.size() == src.size() && seg_start.size() == src.size());
  const index_t n = src.size();
  // Serial in both DPF_NET modes: the data-dependent segment restarts make
  // a message formulation pointless at our sizes.
  detail::OpTimer timer;
  T acc{};
  for (index_t i = 0; i < n; ++i) {
    if (seg_start[i]) acc = T{};
    acc += src[i];
    dst[i] = acc;
  }
  // Counted N-1 like every sum scan (segment restarts don't change the
  // paper's sequential-cost accounting).
  if (n > 1) flops::add(flops::Kind::AddSubMul, n - 1);
  const int p = Machine::instance().vps();
  detail::record(CommPattern::Scan, 1, 1, src.bytes(),
                 (p - 1) * static_cast<index_t>(sizeof(T)), /*detail=*/1,
                 timer.seconds());
}

/// Segmented copy scan: every element takes the value at the start of its
/// segment (the "segmented copy scan" used by branching Monte-Carlo codes).
/// No FLOPs (a data move); recorded as a Scan.
template <typename T>
void segmented_copy_scan_into(Array<T, 1>& dst, const Array<T, 1>& src,
                              const Array<std::uint8_t, 1>& seg_start) {
  assert(dst.size() == src.size() && seg_start.size() == src.size());
  const index_t n = src.size();
  detail::OpTimer timer;
  T cur{};
  for (index_t i = 0; i < n; ++i) {
    if (i == 0 || seg_start[i]) cur = src[i];
    dst[i] = cur;
  }
  const int p = Machine::instance().vps();
  detail::record(CommPattern::Scan, 1, 1, src.bytes(),
                 (p - 1) * static_cast<index_t>(sizeof(T)), /*detail=*/2,
                 timer.seconds());
}

/// Sum scan along `axis` of a rank-R array (scans each line independently).
template <typename T, std::size_t R>
void scan_sum_axis_into(Array<T, R>& dst, const Array<T, R>& src,
                        std::size_t axis) {
  assert(dst.shape() == src.shape());
  const index_t n = src.extent(axis);
  if (n == 0) return;
  const auto strides = src.shape().strides();
  const index_t st = strides[axis];
  const index_t inner = st;
  const index_t outer = src.size() / (n * inner);

  // Each line scans locally along the (serial) axis; direct in both modes.
  detail::OpTimer timer;
  parallel_range(outer * inner, [&](index_t lo, index_t hi) {
    for (index_t oi = lo; oi < hi; ++oi) {
      const index_t o = oi / inner;
      const index_t i = oi % inner;
      const index_t base = o * n * inner + i;
      T acc{};
      for (index_t j = 0; j < n; ++j) {
        acc += src[base + j * st];
        dst[base + j * st] = acc;
      }
    }
  });
  if (n > 1) flops::add(flops::Kind::AddSubMul, (n - 1) * outer * inner);
  const int p = Machine::instance().vps();
  detail::record(CommPattern::Scan, static_cast<int>(R), static_cast<int>(R),
                 src.bytes(),
                 src.layout().distributed_axis() == axis
                     ? (p - 1) * static_cast<index_t>(sizeof(T)) * outer * inner
                     : 0,
                 0, timer.seconds());
}

}  // namespace dpf::comm
