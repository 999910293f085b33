#pragma once

/// \file gather_scatter.hpp
/// General gather/scatter (the CMF get/send router) with optional combiners.
///
/// Index maps hold *linear* indices into the peer array, which lets one set
/// of primitives serve every rank combination the paper's tables use
/// ("1-D to 3-D Scatters", "3-D to 1-D Gather", ...). Ownership of a linear
/// index is derived from its coordinate on the array's distributed axes,
/// and read per element from the structure's cached owner table
/// (detail::owner_table).
///
/// The same data motion is recorded under different pattern names in the
/// paper depending on the language construct that expressed it (Gather vs
/// Get, Scatter vs Send); callers select the recorded pattern. Every
/// variant runs on the one exchange engine (net/exchange_plan.hpp) under a
/// message-passing DPF_NET mode: the gather side as a plain exchange, the
/// scatter side (with or without a combiner) as a staged exchange followed
/// by the serial ascending-j combine (gs_detail::combine_into).

#include <memory>
#include <vector>

#include "comm/detail.hpp"
#include "core/array.hpp"
#include "core/flops.hpp"
#include "core/machine.hpp"
#include "core/ops.hpp"
#include "net/exchange_plan.hpp"
#include "trace/trace.hpp"

namespace dpf::comm {

namespace gs_detail {

/// Off-processor bytes of the element pairs (a[i], b[map[i]]) over every
/// linear i of `map`: the pairs whose owners differ, times the element
/// size. One detail::moved_elems sweep over the owner tables per call; the
/// map is data, so nothing is memoized.
template <typename TA, typename TB, std::size_t RA, std::size_t RB>
[[nodiscard]] index_t offproc_bytes(const Array<TA, RA>& a,
                                    const Array<TB, RB>& b,
                                    const Array<index_t, RA>& map) {
  if (Machine::instance().vps() <= 1) return 0;
  const auto oa = detail::owner_table(a);
  const auto ob = detail::owner_table(b);
  const int* da = oa->data();
  const int* db = ob->data();
  const index_t* mp = map.data().data();
  return detail::moved_elems(
             map.size(), [mp](index_t i) { return mp[i]; },
             [da](index_t i) { return da[i]; },
             [db](index_t j) { return db[j]; }) *
         static_cast<index_t>(sizeof(TB));
}

/// The contributions of one combining exchange, staged: under a
/// message-passing mode, src[j] travels to staging slot j on the VP that
/// owns dst element map[j]. Empty (no plan) under DPF_NET=direct or on one
/// VP, where the combine reads src itself. The map is data, not shape, so
/// every exchange builds its own plan.
template <typename T>
struct Staged {
  std::shared_ptr<const net::ExchangePlan> plan;
  std::vector<T> slots;
  std::uint64_t base = 0;  ///< first of the p*p message tags

  [[nodiscard]] net::PlanOp<T> op(const T* src) {
    return net::PlanOp<T>{slots.data(), src, plan.get(), base, T{}};
  }
};

/// Posts the staged contributions of dst[map[j]] op= src[j] (one region)
/// when the current mode is message-passing. The messages, tags and bytes
/// are those of a push exchange scanning j ascending.
template <typename T, std::size_t RD, std::size_t RS>
[[nodiscard]] Staged<T> post_staged(const Array<T, RD>& dst,
                                    const Array<T, RS>& src,
                                    const Array<index_t, RS>& map) {
  Staged<T> st;
  const int p = Machine::instance().vps();
  if (!net::algorithmic() || p <= 1) return st;
  const index_t* mp = map.data().data();
  const auto od = detail::owner_table(dst);
  const auto os = detail::owner_table(src);
  st.plan = net::build_exchange_plan(
      src.size(), p, [](index_t j) { return j; },
      [&](index_t j) { return (*od)[mp[j]]; },
      [&](index_t j) { return (*os)[j]; });
  st.slots.resize(static_cast<std::size_t>(src.size()));
  st.base = net::next_tags(static_cast<std::uint64_t>(p) *
                           static_cast<std::uint64_t>(p));
  const net::PlanOp<T> op = st.op(src.data().data());
  net::planned_post(&op, 1);
  return st;
}

/// Lands the staged contributions — fetches the remote ones and copies the
/// local ones, one region — then applies dst[map[j]] op= value in
/// ascending j on the control thread, so collision winners (highest j) and
/// floating-point association are those of the serial loop in every mode.
/// With nothing staged the same loop runs on src.
template <typename T, std::size_t RD, std::size_t RS>
void apply_staged(Array<T, RD>& dst, const Array<T, RS>& src,
                  const Array<index_t, RS>& map, bool add, Staged<T>& st) {
  const T* vals = src.data().data();
  if (st.plan) {
    const net::PlanOp<T> op = st.op(vals);
    net::planned_consume(&op, 1, /*include_local=*/true);
    vals = st.slots.data();
  }
  T* d = dst.data().data();
  const index_t* mp = map.data().data();
  const index_t n = src.size();
  if (add) {
    for (index_t j = 0; j < n; ++j) {
      assert(mp[j] >= 0 && mp[j] < dst.size());
      d[mp[j]] += vals[j];
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      assert(mp[j] >= 0 && mp[j] < dst.size());
      d[mp[j]] = vals[j];
    }
  }
}

/// The router's scatter side: dst[map[j]] = src[j] (`add == false`, the
/// highest j wins a collision) or dst[map[j]] += src[j] (`add == true`, one
/// FLOP per source element), recorded under `pattern`.
template <typename T, std::size_t RD, std::size_t RS>
void combine_into(Array<T, RD>& dst, const Array<T, RS>& src,
                  const Array<index_t, RS>& map, bool add,
                  CommPattern pattern) {
  assert(map.size() == src.size());
  detail::OpTimer timer;
  Staged<T> st = post_staged(dst, src, map);
  apply_staged(dst, src, map, add, st);
  if (add) flops::add(flops::Kind::AddSubMul, src.size());
  const double seconds = timer.seconds();
  detail::record(pattern, static_cast<int>(RS), static_cast<int>(RD),
                 src.bytes(), offproc_bytes(src, dst, map), 0, seconds);
}

}  // namespace gs_detail

/// dst[i] = src[map[i]] for every linear i of dst (CMF "get" / FORALL with
/// indirect addressing on the right-hand side).
template <typename T, std::size_t RD, std::size_t RS>
void gather_into(Array<T, RD>& dst, const Array<T, RS>& src,
                 const Array<index_t, RD>& map,
                 CommPattern pattern = CommPattern::Gather) {
  assert(map.size() == dst.size());
  const int p = Machine::instance().vps();
  detail::OpTimer timer;
  if (net::algorithmic() && p > 1) {
    const index_t* mp = map.data().data();
    const auto od = detail::owner_table(dst);
    const auto os = detail::owner_table(src);
    const auto plan = net::build_exchange_plan(
        dst.size(), p, [mp](index_t i) { return mp[i]; },
        [&](index_t i) { return (*od)[i]; },
        [&](index_t j) { return (*os)[j]; });
    net::exchange_planned(dst.data().data(), src.data().data(), *plan);
  } else {
    parallel_range(dst.size(), [&](index_t lo, index_t hi) {
      for (index_t i = lo; i < hi; ++i) {
        assert(map[i] >= 0 && map[i] < src.size());
        dst[i] = src[map[i]];
      }
    });
  }
  const double seconds = timer.seconds();
  detail::record(pattern, static_cast<int>(RS), static_cast<int>(RD),
                 dst.bytes(), gs_detail::offproc_bytes(dst, src, map), 0,
                 seconds);
}

/// dst[i] = sum over j with map[j] == i of src[j], added onto dst
/// ("gather with combine": FORALL w/ SUM in pic-simple). One FLOP per source
/// element (the adds), plus the router motion.
template <typename T, std::size_t RD, std::size_t RS>
void gather_add_into(Array<T, RD>& dst, const Array<T, RS>& src,
                     const Array<index_t, RS>& map,
                     CommPattern pattern = CommPattern::GatherCombine) {
  gs_detail::combine_into(dst, src, map, /*add=*/true, pattern);
}

/// dst[map[j]] = src[j] (CMF "send overwrite"); on collisions the highest j
/// wins (deterministic).
template <typename T, std::size_t RD, std::size_t RS>
void scatter_into(Array<T, RD>& dst, const Array<T, RS>& src,
                  const Array<index_t, RS>& map,
                  CommPattern pattern = CommPattern::Scatter) {
  gs_detail::combine_into(dst, src, map, /*add=*/false, pattern);
}

/// dst[map[j]] += src[j] (CMF "send with add"). One FLOP per source element.
template <typename T, std::size_t RD, std::size_t RS>
void scatter_add_into(Array<T, RD>& dst, const Array<T, RS>& src,
                      const Array<index_t, RS>& map,
                      CommPattern pattern = CommPattern::ScatterCombine) {
  gs_detail::combine_into(dst, src, map, /*add=*/true, pattern);
}

/// Convenience wrappers recording the Send/Get patterns the paper's tables
/// distinguish from Gather/Scatter (gauss-jordan, jacobi, md, qmc).
template <typename T, std::size_t RD, std::size_t RS>
void send_into(Array<T, RD>& dst, const Array<T, RS>& src,
               const Array<index_t, RS>& map) {
  gs_detail::combine_into(dst, src, map, /*add=*/false, CommPattern::Send);
}

template <typename T, std::size_t RD, std::size_t RS>
void send_add_into(Array<T, RD>& dst, const Array<T, RS>& src,
                   const Array<index_t, RS>& map) {
  gs_detail::combine_into(dst, src, map, /*add=*/true, CommPattern::Send);
}

template <typename T, std::size_t RD, std::size_t RS>
void get_into(Array<T, RD>& dst, const Array<T, RS>& src,
              const Array<index_t, RD>& map) {
  gather_into(dst, src, map, CommPattern::Get);
}

/// Split-phase scatter-add: posts the staged contributions immediately and
/// defers every write to dst — local adds included — to finish(). Between
/// start and finish the caller may freely rewrite dst (the canonical use
/// zeroes the accumulator while the contributions are in flight); src and
/// map must stay unmutated until finish(). Results are bit-identical to
/// scatter_add_into in every DPF_NET mode. Under DPF_NET=direct the whole
/// combine simply runs at finish() (no messages to overlap).
template <typename T, std::size_t RD, std::size_t RS>
class [[nodiscard]] ScatterAddHandle {
 public:
  ScatterAddHandle(ScatterAddHandle&& o) noexcept
      : dst_(o.dst_),
        src_(o.src_),
        map_(o.map_),
        pattern_(o.pattern_),
        staged_(std::move(o.staged_)),
        start_ns_(o.start_ns_),
        post_end_ns_(o.post_end_ns_),
        finished_(o.finished_) {
    o.finished_ = true;  // moved-from shell owes no completion
  }
  ScatterAddHandle& operator=(ScatterAddHandle&&) = delete;
  ScatterAddHandle(const ScatterAddHandle&) = delete;
  ScatterAddHandle& operator=(const ScatterAddHandle&) = delete;
  ~ScatterAddHandle() { assert(finished_); }

  void finish() {
    assert(!finished_);
    const bool split = staged_.plan != nullptr;
    const std::uint64_t f0 = trace::now_ns();
    gs_detail::apply_staged(*dst_, *src_, *map_, /*add=*/true, staged_);
    const std::uint64_t f1 = trace::now_ns();
    const index_t offproc = gs_detail::offproc_bytes(*src_, *dst_, *map_);
    if (split) {
      const double phase_s =
          static_cast<double>((post_end_ns_ - start_ns_) + (f1 - f0)) * 1e-9;
      const double window_s = static_cast<double>(f0 - post_end_ns_) * 1e-9;
      if (trace::enabled(trace::Mode::Summary)) {
        trace::overlap_span(static_cast<std::uint8_t>(pattern_),
                            staged_.plan->posted_bytes(sizeof(T)),
                            post_end_ns_, f0);
      }
      detail::record_split(pattern_, static_cast<int>(RS),
                           static_cast<int>(RD), src_->bytes(), offproc, 0,
                           phase_s, window_s);
    } else {
      detail::record(pattern_, static_cast<int>(RS), static_cast<int>(RD),
                     src_->bytes(), offproc, 0,
                     static_cast<double>(f1 - f0) * 1e-9);
    }
    flops::add(flops::Kind::AddSubMul, src_->size());
    finished_ = true;
  }

 private:
  template <typename U, std::size_t RDD, std::size_t RSS>
  friend ScatterAddHandle<U, RDD, RSS> scatter_add_start(
      Array<U, RDD>& dst, const Array<U, RSS>& src,
      const Array<index_t, RSS>& map, CommPattern pattern);

  ScatterAddHandle() = default;

  Array<T, RD>* dst_ = nullptr;
  const Array<T, RS>* src_ = nullptr;
  const Array<index_t, RS>* map_ = nullptr;
  CommPattern pattern_ = CommPattern::ScatterCombine;
  gs_detail::Staged<T> staged_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t post_end_ns_ = 0;
  bool finished_ = false;
};

/// Starts a split-phase dst[map[j]] += src[j]; see ScatterAddHandle for the
/// window contract. All three arrays must outlive the handle.
template <typename T, std::size_t RD, std::size_t RS>
[[nodiscard]] ScatterAddHandle<T, RD, RS> scatter_add_start(
    Array<T, RD>& dst, const Array<T, RS>& src, const Array<index_t, RS>& map,
    CommPattern pattern = CommPattern::ScatterCombine) {
  assert(map.size() == src.size());
  ScatterAddHandle<T, RD, RS> h;
  h.dst_ = &dst;
  h.src_ = &src;
  h.map_ = &map;
  h.pattern_ = pattern;
  h.start_ns_ = trace::now_ns();
  h.staged_ = gs_detail::post_staged(dst, src, map);
  h.post_end_ns_ = trace::now_ns();
  return h;
}

}  // namespace dpf::comm
