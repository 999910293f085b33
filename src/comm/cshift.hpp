#pragma once

/// \file cshift.hpp
/// Circular and end-off shifts — the workhorse communication primitives of
/// grid-based DPF codes (Tables 7 and 8: boson, ellip-2D, rp, step4,
/// qcd-kernel, mdcell, wave-1D all build their stencils from CSHIFTs).
///
/// Semantics follow Fortran-90 CSHIFT/EOSHIFT: `cshift(a, axis, s)` yields
/// r(i) = a((i + s) mod n) along `axis`. A shift along the array's
/// distributed axis moves data between virtual processors; shifts along
/// serial axes are local memory moves. Both are recorded; the off-processor
/// byte count reflects the block distribution.
///
/// Implementation: because arrays are dense row-major, shifting axis `a`
/// (extent n, stride st) rotates each contiguous (outer) slab of n*st
/// elements by s*st positions. Every shift therefore reduces to two-segment
/// std::copy rotates per slab — no per-element `oi / inner` and `oi % inner`
/// arithmetic, and contiguous loads/stores the compiler turns into memmove.
/// The VP partition slices the flattened element space, so slabs split
/// across VPs keep full parallelism (a 1-D array is one big slab).

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "net/exchange_plan.hpp"

namespace dpf::comm {

namespace shift_detail {

/// Copies dst[lo, hi) from a slab-rotated source: within each slab of
/// `slab` contiguous elements, dst[base + k] = src[base + (k + rot) % slab].
/// Runs over an arbitrary subrange, emitting at most three bulk copies per
/// slab intersection.
template <typename T>
void rotate_range(T* dst, const T* src, index_t slab, index_t rot, index_t lo,
                  index_t hi) {
  while (lo < hi) {
    const index_t base = (lo / slab) * slab;
    const index_t slab_hi = std::min(hi, base + slab);
    index_t k = lo - base;
    while (lo < slab_hi) {
      const index_t src_off = k + rot < slab ? k + rot : k + rot - slab;
      const index_t len = std::min(slab_hi - lo, slab - src_off);
      std::copy(src + base + src_off, src + base + src_off + len, dst + lo);
      lo += len;
      k += len;
    }
  }
}

/// Fills/copies dst[lo, hi) with end-off shift semantics: within each slab,
/// positions [copy_lo, copy_hi) come from src at offset +shift elements,
/// everything else takes `boundary`.
template <typename T>
void eoshift_range(T* dst, const T* src, index_t slab, index_t shift_elems,
                   index_t copy_lo, index_t copy_hi, T boundary, index_t lo,
                   index_t hi) {
  while (lo < hi) {
    const index_t base = (lo / slab) * slab;
    const index_t slab_hi = std::min(hi, base + slab);
    index_t k = lo - base;
    while (lo < slab_hi) {
      index_t len;
      if (k < copy_lo) {
        len = std::min(slab_hi - lo, copy_lo - k);
        std::fill(dst + lo, dst + lo + len, boundary);
      } else if (k < copy_hi) {
        len = std::min(slab_hi - lo, copy_hi - k);
        const index_t s0 = base + k + shift_elems;
        std::copy(src + s0, src + s0 + len, dst + lo);
      } else {
        len = slab_hi - lo;
        std::fill(dst + lo, dst + lo + len, boundary);
      }
      lo += len;
      k += len;
    }
  }
}

/// Cached routing plan for a slab rotation (the cshift index map). The key
/// folds everything the routing depends on: the map parameters and both
/// arrays' ownership structures.
template <typename T, std::size_t R>
[[nodiscard]] std::shared_ptr<const net::ExchangePlan> rotate_plan(
    const Array<T, R>& dst, const Array<T, R>& src, index_t slab,
    index_t rot) {
  const int p = Machine::instance().vps();
  detail::KeyHash key;
  key.mix(0x5348u);  // pattern discriminator: circular shift
  key.mix(static_cast<std::uint64_t>(src.size()));
  key.mix(static_cast<std::uint64_t>(slab));
  key.mix(static_cast<std::uint64_t>(rot));
  key.mix(sizeof(T));
  key.mix_owner_structure(src, p);
  key.mix_owner_structure(dst, p);
  return net::plan_for(
      key.h, 0, src.size(), p,
      [slab, rot](index_t L) {
        const index_t base = (L / slab) * slab;
        const index_t k = L - base + rot;
        return base + (k < slab ? k : k - slab);
      },
      [&dst](index_t L) { return detail::owner_id_linear(dst, L); },
      [&src](index_t j) { return detail::owner_id_linear(src, j); });
}

/// Cached routing plan for an end-off shift (negative map index = boundary
/// fill).
template <typename T, std::size_t R>
[[nodiscard]] std::shared_ptr<const net::ExchangePlan> eoshift_plan(
    const Array<T, R>& dst, const Array<T, R>& src, index_t slab,
    index_t shift_elems, index_t copy_lo, index_t copy_hi) {
  const int p = Machine::instance().vps();
  detail::KeyHash key;
  key.mix(0x454fu);  // pattern discriminator: end-off shift
  key.mix(static_cast<std::uint64_t>(src.size()));
  key.mix(static_cast<std::uint64_t>(slab));
  key.mix(static_cast<std::uint64_t>(shift_elems));
  key.mix(static_cast<std::uint64_t>(copy_lo));
  key.mix(static_cast<std::uint64_t>(copy_hi));
  key.mix(sizeof(T));
  key.mix_owner_structure(src, p);
  key.mix_owner_structure(dst, p);
  return net::plan_for(
      key.h, 0, src.size(), p,
      [slab, shift_elems, copy_lo, copy_hi](index_t L) -> index_t {
        const index_t k = L % slab;
        if (k < copy_lo || k >= copy_hi) return -1;  // boundary fill
        return L + shift_elems;
      },
      [&dst](index_t L) { return detail::owner_id_linear(dst, L); },
      [&src](index_t j) { return detail::owner_id_linear(src, j); });
}

}  // namespace shift_detail

/// dst = cshift(src, axis, s). dst must have src's shape and must not alias
/// src.
template <typename T, std::size_t R>
void cshift_into(Array<T, R>& dst, const Array<T, R>& src, std::size_t axis,
                 index_t s, CommPattern pattern = CommPattern::CShift) {
  assert(dst.shape() == src.shape());
  assert(axis < R);
  assert(dst.data().data() != src.data().data());
  const index_t n = src.extent(axis);
  if (n == 0 || src.size() == 0) return;
  const index_t st = src.shape().strides()[axis];
  // Normalize the shift into [0, n).
  index_t sh = s % n;
  if (sh < 0) sh += n;

  const index_t slab = n * st;   // contiguous elements per outer slab
  const index_t rot = sh * st;   // rotation amount within a slab
  const T* sp = src.data().data();
  T* dp = dst.data().data();
  const int p = Machine::instance().vps();
  const net::ScopedMode tuned(
      net::mode_for(pattern, static_cast<std::uint64_t>(src.bytes())));
  detail::OpTimer timer;
  if (net::algorithmic() && p > 1) {
    // Ring formulation: each VP packs the rotated-in elements it owns and
    // pushes them to the destination owner; local elements copy in place.
    // The routing is a cached plan, so iterative callers pay index gathers
    // only — no per-element functor evaluation.
    net::exchange_planned(dp, sp, shift_detail::rotate_plan(dst, src, slab,
                                                            rot));
  } else {
    parallel_range(src.size(), [&](index_t lo, index_t hi) {
      shift_detail::rotate_range(dp, sp, slab, rot, lo, hi);
    });
  }

  detail::record(pattern, static_cast<int>(R), static_cast<int>(R),
                 src.bytes(), detail::shift_offproc_bytes(src, axis, sh, true),
                 0, timer.seconds());
}

/// Returns cshift(src, axis, s) as a library temporary.
template <typename T, std::size_t R>
[[nodiscard]] Array<T, R> cshift(const Array<T, R>& src, std::size_t axis,
                                 index_t s) {
  Array<T, R> dst(src.shape(), src.layout(), MemKind::Temporary);
  cshift_into(dst, src, axis, s);
  return dst;
}

/// Split-phase circular shift — the double-buffered halo exchange. Under a
/// message-passing DPF_NET mode, cshift_start posts the boundary messages
/// and performs the locally-owned copies immediately; the remote halo
/// elements of dst stay undefined until finish() consumes them. The caller
/// computes between start and finish (interior work, other arrays) while
/// the halo is in flight. Payloads are captured at start (the transport
/// copies every message at post time and the local copies land before start
/// returns), so the caller may overwrite src inside the window — the posted
/// halos are immune to aliasing; only dst's halo stays unread until
/// finish(). Under DPF_NET=direct the whole shift runs at start and
/// finish() only closes the record — same contract, zero-length window.
/// Results are bit-identical to cshift_into in every mode.
template <typename T, std::size_t R>
class [[nodiscard]] ShiftHandle {
 public:
  ShiftHandle(ShiftHandle&& o) noexcept
      : dst_(o.dst_),
        src_(o.src_),
        net_(std::move(o.net_)),
        pattern_(o.pattern_),
        axis_(o.axis_),
        sh_(o.sh_),
        mode_(o.mode_),
        start_ns_(o.start_ns_),
        post_end_ns_(o.post_end_ns_),
        finished_(o.finished_) {
    o.finished_ = true;  // moved-from shell owes no completion
  }
  ShiftHandle& operator=(ShiftHandle&&) = delete;
  ShiftHandle(const ShiftHandle&) = delete;
  ShiftHandle& operator=(const ShiftHandle&) = delete;
  ~ShiftHandle() { assert(finished_); }

  void finish() {
    assert(!finished_);
    if (src_->size() == 0 || src_->extent(axis_) == 0) {
      finished_ = true;  // empty shift: nothing moved, nothing recorded
      return;
    }
    // The completion phase (and its record/annotate) must see the mode the
    // posting phase decided, not whatever the ambient DPF_NET says now.
    const net::ScopedMode tuned(mode_);
    const bool split = net_.pending();
    const std::uint64_t f0 = trace::now_ns();
    if (split) net_.complete();
    const std::uint64_t f1 = trace::now_ns();

    const index_t offproc =
        detail::shift_offproc_bytes(*src_, axis_, sh_, true);
    if (split) {
      if (trace::enabled(trace::Mode::Summary)) {
        trace::overlap_span(static_cast<std::uint8_t>(pattern_),
                            net_.posted_bytes(), post_end_ns_, f0, 0);
      }
      detail::record_split(
          pattern_, static_cast<int>(R), static_cast<int>(R), src_->bytes(),
          offproc, 0,
          static_cast<double>((post_end_ns_ - start_ns_) + (f1 - f0)) * 1e-9,
          static_cast<double>(f0 - post_end_ns_) * 1e-9);
    } else {
      detail::record(pattern_, static_cast<int>(R), static_cast<int>(R),
                     src_->bytes(), offproc, 0,
                     static_cast<double>(post_end_ns_ - start_ns_) * 1e-9);
    }
    finished_ = true;
  }

 private:
  template <typename U, std::size_t RR>
  friend ShiftHandle<U, RR> cshift_start(Array<U, RR>& dst,
                                         const Array<U, RR>& src,
                                         std::size_t axis, index_t s,
                                         CommPattern pattern);

  ShiftHandle() = default;

  Array<T, R>* dst_ = nullptr;
  const Array<T, R>* src_ = nullptr;
  net::PlanHandle<T> net_;
  CommPattern pattern_ = CommPattern::CShift;
  std::size_t axis_ = 0;
  index_t sh_ = 0;
  net::Mode mode_ = net::Mode::Direct;  ///< mode decided at start
  std::uint64_t start_ns_ = 0;
  std::uint64_t post_end_ns_ = 0;
  bool finished_ = false;
};

/// Starts a split-phase dst = cshift(src, axis, s); see ShiftHandle for the
/// window contract. dst and src must outlive the handle and not alias.
template <typename T, std::size_t R>
[[nodiscard]] ShiftHandle<T, R> cshift_start(
    Array<T, R>& dst, const Array<T, R>& src, std::size_t axis, index_t s,
    CommPattern pattern = CommPattern::CShift) {
  assert(dst.shape() == src.shape());
  assert(axis < R);
  assert(dst.data().data() != src.data().data());
  ShiftHandle<T, R> h;
  h.dst_ = &dst;
  h.src_ = &src;
  h.pattern_ = pattern;
  h.axis_ = axis;
  h.start_ns_ = trace::now_ns();
  const index_t n = src.extent(axis);
  if (n == 0 || src.size() == 0) {
    h.post_end_ns_ = h.start_ns_;
    return h;
  }
  const index_t st = src.shape().strides()[axis];
  index_t sh = s % n;
  if (sh < 0) sh += n;
  h.sh_ = sh;
  const index_t slab = n * st;
  const index_t rot = sh * st;
  const T* sp = src.data().data();
  T* dp = dst.data().data();
  const int p = Machine::instance().vps();
  h.mode_ = net::mode_for(pattern, static_cast<std::uint64_t>(src.bytes()));
  const net::ScopedMode tuned(h.mode_);
  if (net::algorithmic() && p > 1) {
    h.net_ = net::post_exchange_planned(
        dp, sp, shift_detail::rotate_plan(dst, src, slab, rot));
    // The locally-sourced elements copy now (a second region), so the
    // in-flight window that follows covers only the remote halo.
    h.net_.complete_local();
  } else {
    parallel_range(src.size(), [&](index_t lo, index_t hi) {
      shift_detail::rotate_range(dp, sp, slab, rot, lo, hi);
    });
  }
  h.post_end_ns_ = trace::now_ns();
  return h;
}

/// dst = eoshift(src, axis, s, boundary): elements shifted past the end are
/// dropped; vacated positions take `boundary`. dst must not alias src.
template <typename T, std::size_t R>
void eoshift_into(Array<T, R>& dst, const Array<T, R>& src, std::size_t axis,
                  index_t s, T boundary) {
  assert(dst.shape() == src.shape());
  assert(axis < R);
  assert(dst.data().data() != src.data().data());
  const index_t n = src.extent(axis);
  if (n == 0 || src.size() == 0) return;
  const index_t st = src.shape().strides()[axis];
  const index_t slab = n * st;
  // Within each slab, dst positions [copy_lo, copy_hi) map to src at a
  // fixed offset of s*st elements; the rest take the boundary value.
  const index_t copy_lo = std::max<index_t>(0, -s) * st;
  const index_t copy_hi = std::max<index_t>(0, std::min(n, n - s)) * st;
  const T* sp = src.data().data();
  T* dp = dst.data().data();
  const int p = Machine::instance().vps();
  const net::ScopedMode tuned(net::mode_for(
      CommPattern::EOShift, static_cast<std::uint64_t>(src.bytes())));
  detail::OpTimer timer;
  if (net::algorithmic() && p > 1) {
    const index_t chi = std::max(copy_lo, copy_hi);
    net::exchange_planned(
        dp, sp,
        shift_detail::eoshift_plan(dst, src, slab, s * st, copy_lo, chi),
        boundary);
  } else {
    parallel_range(src.size(), [&](index_t lo, index_t hi) {
      shift_detail::eoshift_range(dp, sp, slab, s * st, copy_lo,
                                  std::max(copy_lo, copy_hi), boundary, lo,
                                  hi);
    });
  }

  detail::record(CommPattern::EOShift, static_cast<int>(R),
                 static_cast<int>(R), src.bytes(),
                 detail::shift_offproc_bytes(src, axis, s, false), 0,
                 timer.seconds());
}

/// Returns eoshift(src, axis, s, boundary) as a library temporary.
template <typename T, std::size_t R>
[[nodiscard]] Array<T, R> eoshift(const Array<T, R>& src, std::size_t axis,
                                  index_t s, T boundary) {
  Array<T, R> dst(src.shape(), src.layout(), MemKind::Temporary);
  eoshift_into(dst, src, axis, s, boundary);
  return dst;
}

/// A bundle of split-phase shifts posted together — the halo exchange of a
/// multi-point stencil as one operation. Where k separate cshift_start
/// handles cost 3k SPMD regions (post, local, consume each), the bundle
/// fuses each phase across all members: one posting region, one local
/// region at start(), one consume region at finish(), regardless of k.
/// Members may mix ranks and shift kinds (circular / end-off) over any
/// arrays of one element type.
///
/// The window contract matches ShiftHandle: payloads are captured at
/// start() (posted messages are copies; local elements land before start()
/// returns), each member's remote halo elements stay undefined until
/// finish(). Under DPF_NET=direct the shifts run whole at start(). Each
/// member records its own CShift/EOShift event (detail = 1, the fused
/// marker pshift uses), with the bundle's measured time divided evenly.
template <typename T>
class [[nodiscard]] ShiftBundle {
 public:
  ShiftBundle() = default;
  ShiftBundle(const ShiftBundle&) = delete;
  ShiftBundle& operator=(const ShiftBundle&) = delete;
  ShiftBundle(ShiftBundle&& o) noexcept = default;
  ShiftBundle& operator=(ShiftBundle&&) = delete;
  ~ShiftBundle() { assert(finished_ || items_.empty()); }

  /// Adds dst = cshift(src, axis, s). Both arrays must outlive the bundle
  /// and not alias each other.
  template <std::size_t R>
  void add_cshift(Array<T, R>& dst, const Array<T, R>& src, std::size_t axis,
                  index_t s, CommPattern pattern = CommPattern::CShift) {
    assert(!started_);
    assert(dst.shape() == src.shape());
    assert(dst.data().data() != src.data().data());
    const index_t n = src.extent(axis);
    if (n == 0 || src.size() == 0) return;  // empty: nothing moves/records
    const index_t st = src.shape().strides()[axis];
    index_t sh = s % n;
    if (sh < 0) sh += n;
    const index_t slab = n * st;
    const index_t rot = sh * st;
    Item it;
    it.pattern = pattern;
    it.rank = static_cast<int>(R);
    it.bytes = src.bytes();
    it.offproc = detail::shift_offproc_bytes(src, axis, sh, true);
    const int p = Machine::instance().vps();
    T* dp = dst.data().data();
    const T* sp = src.data().data();
    // The first member's (pattern, bytes) decides the bundle's mode: every
    // member must take the same path so the phases fuse.
    decide_mode(pattern, src.bytes());
    const net::ScopedMode tuned(mode_);
    if (net::algorithmic() && p > 1) {
      it.plan = shift_detail::rotate_plan(dst, src, slab, rot);
      it.op = net::PlanOp<T>{dp, sp, it.plan.get(), 0, T{}};
    } else {
      it.size = src.size();
      it.direct_fn = [dp, sp, slab, rot](index_t lo, index_t hi) {
        shift_detail::rotate_range(dp, sp, slab, rot, lo, hi);
      };
    }
    items_.push_back(std::move(it));
  }

  /// Adds dst = eoshift(src, axis, s, boundary).
  template <std::size_t R>
  void add_eoshift(Array<T, R>& dst, const Array<T, R>& src, std::size_t axis,
                   index_t s, T boundary) {
    assert(!started_);
    assert(dst.shape() == src.shape());
    assert(dst.data().data() != src.data().data());
    const index_t n = src.extent(axis);
    if (n == 0 || src.size() == 0) return;
    const index_t st = src.shape().strides()[axis];
    const index_t slab = n * st;
    const index_t copy_lo = std::max<index_t>(0, -s) * st;
    const index_t copy_hi =
        std::max(copy_lo, std::max<index_t>(0, std::min(n, n - s)) * st);
    Item it;
    it.pattern = CommPattern::EOShift;
    it.rank = static_cast<int>(R);
    it.bytes = src.bytes();
    it.offproc = detail::shift_offproc_bytes(src, axis, s, false);
    const int p = Machine::instance().vps();
    T* dp = dst.data().data();
    const T* sp = src.data().data();
    decide_mode(CommPattern::EOShift, src.bytes());
    const net::ScopedMode tuned(mode_);
    if (net::algorithmic() && p > 1) {
      it.plan = shift_detail::eoshift_plan(dst, src, slab, s * st, copy_lo,
                                           copy_hi);
      it.op = net::PlanOp<T>{dp, sp, it.plan.get(), 0, boundary};
    } else {
      const index_t shift_elems = s * st;
      it.size = src.size();
      it.direct_fn = [dp, sp, slab, shift_elems, copy_lo, copy_hi,
                      boundary](index_t lo, index_t hi) {
        shift_detail::eoshift_range(dp, sp, slab, shift_elems, copy_lo,
                                    copy_hi, boundary, lo, hi);
      };
    }
    items_.push_back(std::move(it));
  }

  /// Posts every member's boundary messages (one region) and performs the
  /// locally-sourced copies (one region); under DPF_NET=direct runs the
  /// whole shifts in a single fused region.
  void start() {
    assert(!started_);
    started_ = true;
    const net::ScopedMode tuned(mode_);
    start_ns_ = trace::now_ns();
    if (items_.empty()) {
      post_end_ns_ = start_ns_;
      return;
    }
    if (!items_[0].direct_fn) {
      split_ = true;
      const int p = Machine::instance().vps();
      std::vector<net::PlanOp<T>> ops;
      ops.reserve(items_.size());
      for (Item& it : items_) {
        it.op.base = net::next_tags(static_cast<std::uint64_t>(p) *
                                    static_cast<std::uint64_t>(p));
        ops.push_back(it.op);
      }
      posted_bytes_ = net::planned_post(ops.data(), ops.size());
      net::planned_local(ops.data(), ops.size());
    } else {
      Machine& m = Machine::instance();
      const int p = m.vps();
      m.spmd([&](int vp) {
        for (const Item& it : items_) {
          const Block b = block_of(it.size, p, vp);
          if (b.size() > 0) it.direct_fn(b.begin, b.end);
        }
      });
    }
    post_end_ns_ = trace::now_ns();
  }

  /// Consumes the remote halos (one region) and records every member.
  void finish() {
    assert(started_ && !finished_);
    finished_ = true;
    if (items_.empty()) return;
    const net::ScopedMode tuned(mode_);
    const std::uint64_t f0 = trace::now_ns();
    if (split_) {
      std::vector<net::PlanOp<T>> ops;
      ops.reserve(items_.size());
      for (const Item& it : items_) ops.push_back(it.op);
      net::planned_consume(ops.data(), ops.size(), false);
    }
    const std::uint64_t f1 = trace::now_ns();
    const double k = static_cast<double>(items_.size());
    if (split_) {
      if (trace::enabled(trace::Mode::Summary)) {
        trace::overlap_span(static_cast<std::uint8_t>(items_[0].pattern),
                            posted_bytes_, post_end_ns_, f0, 0);
      }
      const double seconds =
          static_cast<double>((post_end_ns_ - start_ns_) + (f1 - f0)) * 1e-9 /
          k;
      const double window =
          static_cast<double>(f0 - post_end_ns_) * 1e-9 / k;
      for (const Item& it : items_) {
        detail::record_split(it.pattern, it.rank, it.rank, it.bytes,
                             it.offproc, 1, seconds, window);
      }
    } else {
      const double seconds =
          static_cast<double>(post_end_ns_ - start_ns_) * 1e-9 / k;
      for (const Item& it : items_) {
        detail::record(it.pattern, it.rank, it.rank, it.bytes, it.offproc, 1,
                       seconds);
      }
    }
  }

 private:
  /// Fixes the bundle's mode from the first member added; later members
  /// scope under the same decision regardless of their own sizes.
  void decide_mode(CommPattern pattern, index_t bytes) {
    if (mode_decided_) return;
    mode_ = net::mode_for(pattern, static_cast<std::uint64_t>(bytes));
    mode_decided_ = true;
  }

  struct Item {
    net::PlanOp<T> op{};
    std::shared_ptr<const net::ExchangePlan> plan;
    std::function<void(index_t, index_t)> direct_fn;  // direct path sweep
    index_t size = 0;
    CommPattern pattern = CommPattern::CShift;
    int rank = 0;
    index_t bytes = 0;
    index_t offproc = 0;
  };

  std::vector<Item> items_;
  std::uint64_t posted_bytes_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t post_end_ns_ = 0;
  net::Mode mode_ = net::Mode::Direct;  ///< decided by the first member
  bool mode_decided_ = false;
  bool started_ = false;
  bool split_ = false;
  bool finished_ = false;
};

}  // namespace dpf::comm
