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
#include <memory>
#include <vector>

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "net/exchange_plan.hpp"
#include "trace/trace.hpp"

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
      key.h, src.size(), p,
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
      key.h, src.size(), p,
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
  detail::OpTimer timer;
  if (net::algorithmic() && p > 1) {
    // Ring formulation: each VP packs the rotated-in elements it owns and
    // pushes them to the destination owner; local elements copy in place.
    // The routing is a cached plan, so iterative callers pay index gathers
    // only — no per-element functor evaluation.
    net::exchange_planned(dp, sp,
                          *shift_detail::rotate_plan(dst, src, slab, rot));
  } else {
    parallel_range(src.size(), [&](index_t lo, index_t hi) {
      shift_detail::rotate_range(dp, sp, slab, rot, lo, hi);
    });
  }

  const double seconds = timer.seconds();
  detail::record(pattern, static_cast<int>(R), static_cast<int>(R),
                 src.bytes(), detail::shift_offproc_bytes(src, axis, sh, true),
                 0, seconds);
}

/// Returns cshift(src, axis, s) as a library temporary.
template <typename T, std::size_t R>
[[nodiscard]] Array<T, R> cshift(const Array<T, R>& src, std::size_t axis,
                                 index_t s) {
  Array<T, R> dst(src.shape(), src.layout(), MemKind::Temporary);
  cshift_into(dst, src, axis, s);
  return dst;
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
  detail::OpTimer timer;
  if (net::algorithmic() && p > 1) {
    const index_t chi = std::max(copy_lo, copy_hi);
    net::exchange_planned(
        dp, sp,
        *shift_detail::eoshift_plan(dst, src, slab, s * st, copy_lo, chi),
        boundary);
  } else {
    parallel_range(src.size(), [&](index_t lo, index_t hi) {
      shift_detail::eoshift_range(dp, sp, slab, s * st, copy_lo,
                                  std::max(copy_lo, copy_hi), boundary, lo,
                                  hi);
    });
  }

  const double seconds = timer.seconds();
  detail::record(CommPattern::EOShift, static_cast<int>(R),
                 static_cast<int>(R), src.bytes(),
                 detail::shift_offproc_bytes(src, axis, s, false), 0, seconds);
}

/// Returns eoshift(src, axis, s, boundary) as a library temporary.
template <typename T, std::size_t R>
[[nodiscard]] Array<T, R> eoshift(const Array<T, R>& src, std::size_t axis,
                                  index_t s, T boundary) {
  Array<T, R> dst(src.shape(), src.layout(), MemKind::Temporary);
  eoshift_into(dst, src, axis, s, boundary);
  return dst;
}

/// Split-phase shifts posted together — the double-buffered halo exchange
/// of a stencil as one operation. Under a message-passing DPF_NET mode,
/// start() posts every member's boundary messages (one SPMD region) and
/// performs the locally-sourced copies (one region); finish() consumes the
/// remote halos (one region), however many members the bundle holds. The
/// caller computes between start and finish (interior work, other arrays)
/// while the halos are in flight. Members may mix ranks and shift kinds
/// (circular / end-off) over any arrays of one element type.
///
/// Payloads are captured at start(): the transport copies every message at
/// post time and the local copies land before start() returns, so the
/// caller may overwrite src inside the window; each member's remote halo
/// elements of dst stay undefined until finish(). Under DPF_NET=direct the
/// shifts run whole at start() in one fused region and finish() only
/// records. Results are bit-identical to cshift_into / eoshift_into in
/// every mode. Each member records its own CShift/EOShift event with the
/// bundle's measured time divided evenly; the events of a bundle of two
/// or more carry the fused marker (detail = 1) that pshift uses.
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
    push(pattern, src, detail::shift_offproc_bytes(src, axis, sh, true),
         Sweep{dst.data().data(), src.data().data(), slab, rot, 0, slab, T{},
               true},
         [&] { return shift_detail::rotate_plan(dst, src, slab, rot); });
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
    push(CommPattern::EOShift, src,
         detail::shift_offproc_bytes(src, axis, s, false),
         Sweep{dst.data().data(), src.data().data(), slab, s * st, copy_lo,
               copy_hi, boundary, false},
         [&] {
           return shift_detail::eoshift_plan(dst, src, slab, s * st, copy_lo,
                                             copy_hi);
         });
  }

  /// Posts every member's boundary messages (one region) and performs the
  /// locally-sourced copies (one region); under DPF_NET=direct runs the
  /// whole shifts in a single fused region.
  void start() {
    assert(!started_);
    started_ = true;
    start_ns_ = trace::now_ns();
    if (items_.empty()) {
      post_end_ns_ = start_ns_;
      return;
    }
    Machine& m = Machine::instance();
    const int p = m.vps();
    if (engine_) {
      const std::uint64_t pp = static_cast<std::uint64_t>(p) *
                               static_cast<std::uint64_t>(p);
      for (net::PlanOp<T>& op : ops_) op.base = net::next_tags(pp);
      posted_bytes_ = net::planned_post(ops_.data(), ops_.size());
      net::planned_local(ops_.data(), ops_.size());
    } else {
      m.spmd([&](int vp) {
        for (const Item& it : items_) {
          const Block b = block_of(it.size, p, vp);
          if (b.size() > 0) it.sweep(b.begin, b.end);
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
    const std::uint64_t f0 = trace::now_ns();
    if (engine_) net::planned_consume(ops_.data(), ops_.size(), false);
    const std::uint64_t f1 = trace::now_ns();
    const double k = static_cast<double>(items_.size());
    const index_t fused = items_.size() > 1 ? 1 : 0;
    if (engine_) {
      if (trace::enabled(trace::Mode::Summary)) {
        trace::overlap_span(static_cast<std::uint8_t>(items_[0].pattern),
                            posted_bytes_, post_end_ns_, f0);
      }
      const double seconds =
          static_cast<double>((post_end_ns_ - start_ns_) + (f1 - f0)) * 1e-9 /
          k;
      const double window =
          static_cast<double>(f0 - post_end_ns_) * 1e-9 / k;
      for (const Item& it : items_) {
        detail::record_split(it.pattern, it.rank, it.rank, it.bytes,
                             it.offproc, fused, seconds, window);
      }
    } else {
      const double seconds =
          static_cast<double>(post_end_ns_ - start_ns_) * 1e-9 / k;
      for (const Item& it : items_) {
        detail::record(it.pattern, it.rank, it.rank, it.bytes, it.offproc,
                       fused, seconds);
      }
    }
  }

 private:
  /// One member's direct-path copy of dst[lo, hi): a slab rotation
  /// (circular) or an end-off shift with boundary fills.
  struct Sweep {
    T* dst;
    const T* src;
    index_t slab;
    index_t shift;  ///< rotation (circular) or source offset (end-off)
    index_t copy_lo;
    index_t copy_hi;
    T boundary;
    bool circular;

    void operator()(index_t lo, index_t hi) const {
      if (circular) {
        shift_detail::rotate_range(dst, src, slab, shift, lo, hi);
      } else {
        shift_detail::eoshift_range(dst, src, slab, shift, copy_lo, copy_hi,
                                    boundary, lo, hi);
      }
    }
  };

  struct Item {
    CommPattern pattern;
    int rank;
    index_t bytes;
    index_t offproc;
    index_t size;
    Sweep sweep;
    std::shared_ptr<const net::ExchangePlan> plan;  ///< engine path only
  };

  /// Appends a member. The first member decides the bundle's path: every
  /// member takes the same path so the phases fuse.
  template <std::size_t R, typename PlanFn>
  void push(CommPattern pattern, const Array<T, R>& src, index_t offproc,
            const Sweep& sweep, PlanFn&& plan_of) {
    if (items_.empty()) {
      engine_ = net::algorithmic() && Machine::instance().vps() > 1;
    }
    items_.push_back(Item{pattern, static_cast<int>(R), src.bytes(), offproc,
                          src.size(), sweep, nullptr});
    if (engine_) {
      items_.back().plan = plan_of();
      ops_.push_back(net::PlanOp<T>{sweep.dst, sweep.src,
                                    items_.back().plan.get(), 0,
                                    sweep.boundary});
    }
  }

  std::vector<Item> items_;
  std::vector<net::PlanOp<T>> ops_;  ///< engine path: one per member
  std::uint64_t posted_bytes_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t post_end_ns_ = 0;
  bool engine_ = false;  ///< message-passing path (decided by the first member)
  bool started_ = false;
  bool finished_ = false;
};

/// Starts a split-phase dst = cshift(src, axis, s): a started bundle of one
/// shift, completed by its finish(). dst and src must outlive the bundle
/// and not alias.
template <typename T, std::size_t R>
[[nodiscard]] ShiftBundle<T> cshift_start(
    Array<T, R>& dst, const Array<T, R>& src, std::size_t axis, index_t s,
    CommPattern pattern = CommPattern::CShift) {
  ShiftBundle<T> bundle;
  bundle.add_cshift(dst, src, axis, s, pattern);
  bundle.start();
  return bundle;
}

}  // namespace dpf::comm
