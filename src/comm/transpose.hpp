#pragma once

/// \file transpose.hpp
/// Matrix transposition — realized as all-to-all personalized communication
/// (AAPC) on a distributed-memory machine (paper section 2: "the transpose
/// ... may be used to confirm advertised bisection bandwidths").
///
/// Under the message-passing DPF_NET modes the exchange runs through the
/// planned engine (exchange_plan.hpp): cached routing tables replace the
/// per-element functor scans, and under DPF_NET=overlap the destination is
/// split into pipelined diagonal blocks — block k+1's messages fly while
/// block k unpacks (pipeline.hpp). transpose_start() additionally exposes
/// the split-phase handle form so callers can run their own compute inside
/// the in-flight window.

#include <memory>
#include <vector>

#include "comm/detail.hpp"
#include "comm/pipeline.hpp"
#include "core/array.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"

namespace dpf::comm {

namespace transpose_detail {

/// Structural key of the transpose routing: map parameters plus both
/// ownership structures.
template <typename T>
[[nodiscard]] std::uint64_t struct_key(const Array<T, 2>& dst,
                                       const Array<T, 2>& src, int p) {
  detail::KeyHash key;
  key.mix(0x5452u);  // pattern discriminator: transpose
  key.mix(static_cast<std::uint64_t>(src.extent(0)));
  key.mix(static_cast<std::uint64_t>(src.extent(1)));
  key.mix(sizeof(T));
  key.mix_owner_structure(src, p);
  key.mix_owner_structure(dst, p);
  return key.h;
}

/// Memoized off-processor byte count of the transpose (the O(n*m)
/// ownership sweep runs once per shape).
template <typename T>
[[nodiscard]] index_t offproc_bytes(const Array<T, 2>& dst,
                                    const Array<T, 2>& src, int p) {
  if (p <= 1) return 0;
  const index_t n = src.extent(0);
  const index_t m = src.extent(1);
  detail::KeyHash key;
  key.mix(static_cast<std::uint64_t>(p));
  key.mix_owner_structure(src, p);
  key.mix_owner_structure(dst, p);
  static thread_local detail::OffprocMemo memo;
  return memo.get(key.h, [&] {
    const index_t eb = static_cast<index_t>(sizeof(T));
    index_t offproc = 0;
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        const int os = detail::owner_id(src, {j, i});
        const int od = detail::owner_id(dst, {i, j});
        if (os != od) offproc += eb;
      }
    }
    return offproc;
  });
}

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
/// (n,m) source. Recorded as one AAPC (split-phase with the pipeline's
/// block count under DPF_NET=overlap).
template <typename T>
void transpose_into(Array<T, 2>& dst, const Array<T, 2>& src) {
  const index_t n = src.extent(0);
  const index_t m = src.extent(1);
  assert(dst.extent(0) == m && dst.extent(1) == n);

  const int p = Machine::instance().vps();
  detail::OpTimer timer;
  // Pairwise-exchange AAPC: dst element i*n + j pulls src element j*m + i.
  const detail::PipelineStats ps = detail::planned_engine_exchange(
      dst.data().data(), dst.size(), src.data().data(),
      transpose_detail::struct_key(dst, src, p), CommPattern::AAPC,
      [=](index_t L) { return (L % n) * m + L / n; },
      [&](index_t L) { return detail::owner_id_linear(dst, L); },
      [&](index_t J) { return detail::owner_id_linear(src, J); });
  if (!ps.used) transpose_detail::direct_tiles(dst, src);

  const index_t offproc = transpose_detail::offproc_bytes(dst, src, p);
  if (ps.split) {
    detail::record_split(CommPattern::AAPC, 2, 2, src.bytes(), offproc, 0,
                         ps.seconds, ps.overlap_seconds, ps.blocks);
  } else {
    detail::record(CommPattern::AAPC, 2, 2, src.bytes(), offproc, 0,
                   timer.seconds());
  }
}

/// Returns the transpose as a library temporary.
template <typename T>
[[nodiscard]] Array<T, 2> transpose(const Array<T, 2>& src) {
  Array<T, 2> dst(Shape<2>(src.extent(1), src.extent(0)), Layout<2>{},
                  MemKind::Temporary);
  transpose_into(dst, src);
  return dst;
}

/// Split-phase transpose: posts every block's messages and performs the
/// locally-satisfied copies at start; the remote elements of dst stay
/// undefined until finish() consumes them. The caller computes inside the
/// window. Posted payloads are copies (the caller may overwrite src inside
/// the window); under DPF_NET=direct the whole transpose runs at start.
/// Results are bit-identical to transpose_into in every mode.
template <typename T>
class [[nodiscard]] TransposeHandle {
 public:
  TransposeHandle(TransposeHandle&& o) noexcept
      : dst_(o.dst_),
        src_(o.src_),
        plans_(std::move(o.plans_)),
        ops_(std::move(o.ops_)),
        posted_bytes_(o.posted_bytes_),
        start_ns_(o.start_ns_),
        post_end_ns_(o.post_end_ns_),
        finished_(o.finished_) {
    o.finished_ = true;  // moved-from shell owes no completion
  }
  TransposeHandle& operator=(TransposeHandle&&) = delete;
  TransposeHandle(const TransposeHandle&) = delete;
  TransposeHandle& operator=(const TransposeHandle&) = delete;
  ~TransposeHandle() { assert(finished_); }

  void finish() {
    assert(!finished_);
    finished_ = true;
    if (dst_->size() == 0) return;
    const int p = Machine::instance().vps();
    const std::uint64_t f0 = trace::now_ns();
    if (!ops_.empty()) net::planned_consume(ops_.data(), ops_.size(), false);
    const std::uint64_t f1 = trace::now_ns();
    const index_t offproc = transpose_detail::offproc_bytes(*dst_, *src_, p);
    if (!ops_.empty()) {
      if (trace::enabled(trace::Mode::Summary)) {
        trace::overlap_span(static_cast<std::uint8_t>(CommPattern::AAPC),
                            posted_bytes_, post_end_ns_, f0, 0);
      }
      detail::record_split(
          CommPattern::AAPC, 2, 2, src_->bytes(), offproc, 0,
          static_cast<double>((post_end_ns_ - start_ns_) + (f1 - f0)) * 1e-9,
          static_cast<double>(f0 - post_end_ns_) * 1e-9,
          static_cast<int>(ops_.size()));
    } else {
      detail::record(CommPattern::AAPC, 2, 2, src_->bytes(), offproc, 0,
                     static_cast<double>(post_end_ns_ - start_ns_) * 1e-9);
    }
  }

 private:
  template <typename U>
  friend TransposeHandle<U> transpose_start(Array<U, 2>& dst,
                                            const Array<U, 2>& src);

  TransposeHandle() = default;

  Array<T, 2>* dst_ = nullptr;
  const Array<T, 2>* src_ = nullptr;
  std::vector<std::shared_ptr<const net::ExchangePlan>> plans_;
  std::vector<net::PlanOp<T>> ops_;
  std::uint64_t posted_bytes_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t post_end_ns_ = 0;
  bool finished_ = false;
};

/// Starts a split-phase dst = transpose(src); see TransposeHandle for the
/// window contract. dst and src must outlive the handle and not alias.
template <typename T>
[[nodiscard]] TransposeHandle<T> transpose_start(Array<T, 2>& dst,
                                                 const Array<T, 2>& src) {
  const index_t n = src.extent(0);
  const index_t m = src.extent(1);
  assert(dst.extent(0) == m && dst.extent(1) == n);
  assert(dst.data().data() != src.data().data());
  TransposeHandle<T> h;
  h.dst_ = &dst;
  h.src_ = &src;
  h.start_ns_ = trace::now_ns();
  const int p = Machine::instance().vps();
  const index_t sz = dst.size();
  if (net::algorithmic() && p > 1 && sz > 0) {
    const std::uint64_t skey = transpose_detail::struct_key(dst, src, p);
    const index_t nb = detail::pipeline_blocks(sz, p);
    const auto map = [=](index_t L) { return (L % n) * m + L / n; };
    const auto od = [&dst](index_t L) {
      return detail::owner_id_linear(dst, L);
    };
    const auto os = [&src](index_t J) {
      return detail::owner_id_linear(src, J);
    };
    h.plans_.resize(nb);
    h.ops_.resize(nb);
    const std::uint64_t tags_per =
        static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p);
    for (index_t k = 0; k < nb; ++k) {
      const Block b = block_of(sz, static_cast<int>(nb), static_cast<int>(k));
      detail::KeyHash key;
      key.mix(skey);
      key.mix(static_cast<std::uint64_t>(nb));
      key.mix(static_cast<std::uint64_t>(k) + 1);
      h.plans_[k] = net::plan_for(key.h, b.begin, b.end, p, map, od, os);
      h.ops_[k] = net::PlanOp<T>{dst.data().data(), src.data().data(),
                                 h.plans_[k].get(), net::next_tags(tags_per),
                                 T{}};
    }
    h.posted_bytes_ = net::planned_post(h.ops_.data(), h.ops_.size());
    net::planned_local(h.ops_.data(), h.ops_.size());
  } else if (sz > 0) {
    transpose_detail::direct_tiles(dst, src);
  }
  h.post_end_ns_ = trace::now_ns();
  return h;
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
