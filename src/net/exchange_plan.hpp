#pragma once

/// \file exchange_plan.hpp
/// Precomputed routing plans for the personalized exchange engine.
///
/// The std::function-erased engine (split_phase.hpp) has every sender VP
/// scan all n destination indices through the map/owner functors, so one
/// exchange costs O(p*n) functor evaluations per phase. For the suite's
/// iterative apps the map is a pure function of (shape, layout, p) and the
/// same exchange shape repeats every iteration — so the routing is computed
/// once, on the control thread, into flat index tables:
///
///   pack_idx / recv_idx   per-(sender, receiver) segments: the source
///                         gather order and the matching destination
///                         scatter order (byte-for-byte the message layout
///                         the functor engine produces)
///   local_dst / local_src per-receiver locally-satisfied copy pairs
///   bound_idx             per-receiver boundary fills (map(i) < 0)
///
/// Execution is then index gathers: each VP walks only its own segments,
/// total O(n) work across the machine with zero functor calls on the hot
/// path. Because the builder scans destination indices ascending — exactly
/// the functor engine's order — the per-pair message contents and the
/// consume order are identical, so results stay bit-identical across
/// DPF_NET=direct|algorithmic|overlap and the transport sees the same
/// messages, bytes, and tags as the legacy path.
///
/// Plans restricted to a destination index range [lo, hi) support the
/// pipelined block formulation of transpose/butterfly: each block is an
/// independent exchange over a slice of the destination, so block k+1 can
/// be posted while block k's payload is unpacked (HPCC PTRANS diagonal
/// blocking).
///
/// The multi-op entry points (planned_post / planned_local /
/// planned_consume over a span of PlanOps) fuse several exchanges into one
/// SPMD region each — a halo bundle of k shifts costs 3 regions instead of
/// 3k.

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "core/memo.hpp"
#include "core/types.hpp"
#include "net/collectives.hpp"
#include "net/net.hpp"
#include "net/transport.hpp"
#include "trace/trace.hpp"

namespace dpf::net {

/// One immutable routing table for dst[i] = src[map(i)] over destination
/// indices [lo, hi). Shareable across calls (and cached — see PlanMemo);
/// never mutated after build.
struct ExchangePlan {
  int p = 1;
  index_t lo = 0;
  index_t hi = 0;
  index_t remote_elems = 0;  ///< total packed == total received elements

  /// Segment (s, d) spans [pair_off[s*p+d], pair_off[s*p+d+1]) of both
  /// index tables: pack_idx holds source indices in pack order, recv_idx
  /// the matching destination indices in consume order.
  std::vector<index_t> pack_idx;
  std::vector<index_t> recv_idx;
  std::vector<std::uint64_t> pair_off;

  /// Locally-satisfied pairs of receiver d: [local_off[d], local_off[d+1]).
  std::vector<index_t> local_dst;
  std::vector<index_t> local_src;
  std::vector<std::uint64_t> local_off;

  /// Boundary fills (map(i) < 0) of receiver d.
  std::vector<index_t> bound_idx;
  std::vector<std::uint64_t> bound_off;

  [[nodiscard]] std::uint64_t posted_bytes(std::size_t elem_size) const {
    return static_cast<std::uint64_t>(remote_elems) * elem_size;
  }
};

/// Builds the routing plan by one control-thread scan of the destination
/// indices ascending — the same order the functor engine packs and
/// consumes in, which is what makes planned execution bit-identical.
template <typename MapFn, typename OwnerDst, typename OwnerSrc>
[[nodiscard]] std::shared_ptr<const ExchangePlan> build_exchange_plan(
    index_t lo, index_t hi, int p, const MapFn& src_index_of,
    const OwnerDst& owner_dst, const OwnerSrc& owner_src) {
  auto plan = std::make_shared<ExchangePlan>();
  plan->p = p;
  plan->lo = lo;
  plan->hi = hi;
  const std::size_t pp = static_cast<std::size_t>(p) * p;
  std::vector<std::vector<index_t>> pk(pp), rv(pp);
  std::vector<std::vector<index_t>> ld(p), ls(p), bd(p);
  for (index_t i = lo; i < hi; ++i) {
    const int d = owner_dst(i);
    const index_t j = src_index_of(i);
    if (j < 0) {
      bd[static_cast<std::size_t>(d)].push_back(i);
      continue;
    }
    const int s = owner_src(j);
    if (s == d) {
      ld[static_cast<std::size_t>(d)].push_back(i);
      ls[static_cast<std::size_t>(d)].push_back(j);
      continue;
    }
    const std::size_t c = static_cast<std::size_t>(s) * p + d;
    pk[c].push_back(j);
    rv[c].push_back(i);
  }
  plan->pair_off.resize(pp + 1, 0);
  for (std::size_t c = 0; c < pp; ++c) {
    plan->pair_off[c + 1] = plan->pair_off[c] + pk[c].size();
  }
  plan->remote_elems = static_cast<index_t>(plan->pair_off[pp]);
  plan->pack_idx.reserve(plan->pair_off[pp]);
  plan->recv_idx.reserve(plan->pair_off[pp]);
  for (std::size_t c = 0; c < pp; ++c) {
    plan->pack_idx.insert(plan->pack_idx.end(), pk[c].begin(), pk[c].end());
    plan->recv_idx.insert(plan->recv_idx.end(), rv[c].begin(), rv[c].end());
  }
  plan->local_off.resize(static_cast<std::size_t>(p) + 1, 0);
  plan->bound_off.resize(static_cast<std::size_t>(p) + 1, 0);
  for (int d = 0; d < p; ++d) {
    plan->local_off[d + 1] = plan->local_off[d] + ld[d].size();
    plan->bound_off[d + 1] = plan->bound_off[d] + bd[d].size();
  }
  plan->local_dst.reserve(plan->local_off[p]);
  plan->local_src.reserve(plan->local_off[p]);
  plan->bound_idx.reserve(plan->bound_off[p]);
  for (int d = 0; d < p; ++d) {
    plan->local_dst.insert(plan->local_dst.end(), ld[d].begin(), ld[d].end());
    plan->local_src.insert(plan->local_src.end(), ls[d].begin(), ls[d].end());
    plan->bound_idx.insert(plan->bound_idx.end(), bd[d].begin(), bd[d].end());
  }
  return plan;
}

/// Control-thread memo of exchange plans (core/memo.hpp): fully
/// associative under exact keys, 64 plans, least recently used evicted
/// first. The suite's apps re-issue the same exchange shapes every
/// iteration, so each plan builds once while its shapes stay in use.
using PlanMemo = LruMemo<std::shared_ptr<const ExchangePlan>, 64>;

/// This thread's plan memo; its stats() count plan builds and reuses.
[[nodiscard]] inline PlanMemo& plan_memo() {
  static thread_local PlanMemo memo;
  return memo;
}

/// Cached plan lookup: returns the memoized plan for `key` or builds (and
/// caches) it from the functors. `key` must fold everything the routing
/// depends on (shape extents, strides, shift amounts, layouts); the plan's
/// own (p, lo, hi) are folded in here, so a hit is always the plan this
/// call would build. Control thread only.
template <typename MapFn, typename OwnerDst, typename OwnerSrc>
[[nodiscard]] std::shared_ptr<const ExchangePlan> plan_for(
    std::uint64_t key, index_t lo, index_t hi, int p,
    const MapFn& src_index_of, const OwnerDst& owner_dst,
    const OwnerSrc& owner_src) {
  key = fnv_mix(key, static_cast<std::uint64_t>(p));
  key = fnv_mix(key, static_cast<std::uint64_t>(lo));
  key = fnv_mix(key, static_cast<std::uint64_t>(hi));
  return plan_memo().get(key, [&] {
    return build_exchange_plan(lo, hi, p, src_index_of, owner_dst, owner_src);
  });
}

/// One planned exchange to execute: destination/source stores, the routing
/// plan, the first of the p*p reserved message tags, and the boundary fill
/// value. Several PlanOps passed to one phase call run in a single SPMD
/// region.
template <typename T>
struct PlanOp {
  T* dst = nullptr;
  const T* src = nullptr;
  const ExchangePlan* plan = nullptr;
  std::uint64_t base = 0;
  T boundary{};
};

/// Posting phase: every sender gathers its per-receiver segments and posts
/// one message per non-empty pair, for all ops in one SPMD region. Returns
/// total posted payload bytes (a plan property, so no worker reduction).
template <typename T>
std::uint64_t planned_post(const PlanOp<T>* ops, std::size_t k) {
  static_assert(std::is_trivially_copyable_v<T>);
  Machine& m = Machine::instance();
  Transport& t = transport();
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < k; ++c) {
    total += ops[c].plan->posted_bytes(sizeof(T));
  }
  m.spmd([&](int s) {
    // Per-thread staging, kept across calls: no allocation once warm.
    static thread_local std::vector<T> buf;
    for (std::size_t c = 0; c < k; ++c) {
      const PlanOp<T>& op = ops[c];
      const ExchangePlan& pl = *op.plan;
      const int p = pl.p;
      for (int d = 0; d < p; ++d) {
        if (d == s) continue;
        const std::size_t pair = static_cast<std::size_t>(s) * p + d;
        const std::uint64_t b0 = pl.pair_off[pair];
        const std::uint64_t b1 = pl.pair_off[pair + 1];
        if (b1 == b0) continue;
        buf.resize(static_cast<std::size_t>(b1 - b0));
        for (std::uint64_t x = b0; x < b1; ++x) {
          buf[static_cast<std::size_t>(x - b0)] = op.src[pl.pack_idx[x]];
        }
        t.post(s, d,
               op.base + static_cast<std::uint64_t>(s) *
                             static_cast<std::uint64_t>(p) +
                   static_cast<std::uint64_t>(d),
               buf.data(), buf.size() * sizeof(T));
      }
    }
  });
  return total;
}

/// Local phase: locally-satisfied copies and boundary fills, for all ops in
/// one SPMD region. Touches nothing in flight.
template <typename T>
void planned_local(const PlanOp<T>* ops, std::size_t k) {
  Machine& m = Machine::instance();
  m.spmd([&](int d) {
    for (std::size_t c = 0; c < k; ++c) {
      const PlanOp<T>& op = ops[c];
      const ExchangePlan& pl = *op.plan;
      if (d >= pl.p) continue;
      for (std::uint64_t x = pl.local_off[d]; x < pl.local_off[d + 1]; ++x) {
        op.dst[pl.local_dst[x]] = op.src[pl.local_src[x]];
      }
      for (std::uint64_t x = pl.bound_off[d]; x < pl.bound_off[d + 1]; ++x) {
        op.dst[pl.bound_idx[x]] = op.boundary;
      }
    }
  });
}

/// Completion phase: every receiver fetches each sender's message and
/// scatters it through the recv segment — the exact order the sender packed
/// — for all ops in one SPMD region. `include_local` folds the local phase
/// in (the one-shot unpack of a non-overlapped exchange).
template <typename T>
void planned_consume(const PlanOp<T>* ops, std::size_t k, bool include_local) {
  Machine& m = Machine::instance();
  Transport& t = transport();
  m.spmd([&](int d) {
    static thread_local std::vector<T> q;  // per-thread staging, kept
    for (std::size_t c = 0; c < k; ++c) {
      const PlanOp<T>& op = ops[c];
      const ExchangePlan& pl = *op.plan;
      if (d >= pl.p) continue;
      const int p = pl.p;
      if (include_local) {
        for (std::uint64_t x = pl.local_off[d]; x < pl.local_off[d + 1];
             ++x) {
          op.dst[pl.local_dst[x]] = op.src[pl.local_src[x]];
        }
        for (std::uint64_t x = pl.bound_off[d]; x < pl.bound_off[d + 1];
             ++x) {
          op.dst[pl.bound_idx[x]] = op.boundary;
        }
      }
      for (int o = 0; o < p; ++o) {
        if (o == d) continue;
        const std::size_t pair = static_cast<std::size_t>(o) * p + d;
        const std::uint64_t b0 = pl.pair_off[pair];
        const std::uint64_t b1 = pl.pair_off[pair + 1];
        if (b1 == b0) continue;
        const std::uint64_t tag =
            op.base + static_cast<std::uint64_t>(o) *
                          static_cast<std::uint64_t>(p) +
            static_cast<std::uint64_t>(d);
        const std::size_t bytes =
            static_cast<std::size_t>(b1 - b0) * sizeof(T);
        assert(t.probe(d, o, tag) == static_cast<std::ptrdiff_t>(bytes));
        q.resize(static_cast<std::size_t>(b1 - b0));
        const bool ok = t.try_fetch(d, o, tag, q.data(), bytes);
        assert(ok);
        (void)ok;
        for (std::uint64_t x = b0; x < b1; ++x) {
          op.dst[pl.recv_idx[x]] = q[static_cast<std::size_t>(x - b0)];
        }
      }
    }
  });
}

/// One in-flight planned exchange — the plan-backed analogue of
/// ExchangeHandle with the same post / [complete_local] / complete
/// contract and window semantics. Move-only.
template <typename T>
class [[nodiscard]] PlanHandle {
 public:
  PlanHandle() = default;
  PlanHandle(const PlanHandle&) = delete;
  PlanHandle& operator=(const PlanHandle&) = delete;
  PlanHandle(PlanHandle&& o) noexcept { swap(o); }
  PlanHandle& operator=(PlanHandle&& o) noexcept {
    if (this != &o) {
      assert(!pending());
      PlanHandle tmp(std::move(o));
      swap(tmp);
    }
    return *this;
  }
  ~PlanHandle() { assert(!pending()); }

  [[nodiscard]] bool pending() const { return posted_ && !completed_; }
  [[nodiscard]] std::uint64_t posted_bytes() const { return posted_bytes_; }
  [[nodiscard]] std::uint64_t post_end_ns() const { return post_end_ns_; }

  void complete_local() {
    assert(pending() && !local_done_);
    planned_local(&op_, 1);
    local_done_ = true;
  }

  void complete() {
    assert(pending());
    planned_consume(&op_, 1, !local_done_);
    completed_ = true;
  }

 private:
  template <typename U>
  friend PlanHandle<U> post_exchange_planned(
      U* dst, const U* src, std::shared_ptr<const ExchangePlan> plan,
      U boundary);

  void swap(PlanHandle& o) noexcept {
    std::swap(op_, o.op_);
    std::swap(plan_, o.plan_);
    std::swap(posted_bytes_, o.posted_bytes_);
    std::swap(post_end_ns_, o.post_end_ns_);
    std::swap(posted_, o.posted_);
    std::swap(local_done_, o.local_done_);
    std::swap(completed_, o.completed_);
  }

  PlanOp<T> op_{};
  std::shared_ptr<const ExchangePlan> plan_;  // keeps op_.plan alive
  std::uint64_t posted_bytes_ = 0;
  std::uint64_t post_end_ns_ = 0;
  bool posted_ = false;
  bool local_done_ = false;
  bool completed_ = false;
};

/// Posts a planned exchange and returns the in-flight handle. Control
/// thread only, outside any SPMD region.
template <typename T>
[[nodiscard]] PlanHandle<T> post_exchange_planned(
    T* dst, const T* src, std::shared_ptr<const ExchangePlan> plan,
    T boundary = T{}) {
  static_assert(std::is_trivially_copyable_v<T>);
  PlanHandle<T> h;
  h.plan_ = std::move(plan);
  const int p = h.plan_->p;
  h.op_ = PlanOp<T>{dst, src, h.plan_.get(),
                    next_tags(static_cast<std::uint64_t>(p) *
                              static_cast<std::uint64_t>(p)),
                    boundary};
  h.posted_bytes_ = planned_post(&h.op_, 1);
  h.post_end_ns_ = trace::now_ns();
  h.posted_ = true;
  return h;
}

/// One-shot planned exchange — the plan-backed net::exchange. Overlap mode
/// still exercises the three-phase protocol (post / local / consume).
template <typename T>
void exchange_planned(T* dst, const T* src,
                      std::shared_ptr<const ExchangePlan> plan,
                      T boundary = T{}) {
  coll_detail::EngineRecord rec(CommPattern::AAPC, 1, 1);
  auto h = post_exchange_planned(dst, src, std::move(plan), boundary);
  if (overlap()) h.complete_local();
  h.complete();
}

}  // namespace dpf::net
