#pragma once

/// \file exchange_plan.hpp
/// The personalized exchange engine: precomputed routing plans executed as
/// index gathers over the transport.
///
/// A plan routes dst[i] = src[map(i)] over a destination range. It is
/// computed once, on the control thread, into flat index tables:
///
///   pack_idx / recv_idx   per-(sender, receiver) segments: the source
///                         gather order and the matching destination
///                         scatter order
///   local_dst / local_src per-receiver locally-satisfied copy pairs
///   bound_idx             per-receiver boundary fills (map(i) < 0)
///
/// Execution walks only each VP's own segments: O(n) work across the
/// machine and no map or owner calls on the hot path. build_exchange_plan
/// scans destination indices ascending, so each message is consumed in
/// exactly the order it was packed and every element is a bit-exact copy;
/// results stay bit-identical across DPF_NET=direct|overlap.
/// When the map is a pure function of (shape, layout, p) — shifts,
/// transposes, spreads — the same plan serves every iteration (plan_for);
/// a map that is data (gather, the combining scatters) builds its plan per
/// call.
///
/// The multi-op entry points (planned_post / planned_local /
/// planned_consume over a span of PlanOps) fuse several exchanges into one
/// SPMD region each — a halo bundle of k shifts costs 3 regions instead of
/// 3k.

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/memo.hpp"
#include "core/types.hpp"
#include "net/net.hpp"
#include "net/transport.hpp"

namespace dpf::net {

/// One immutable routing table for dst[i] = src[map(i)] over destination
/// indices [0, n). Shareable across calls (and cached — see PlanMemo);
/// never mutated after build.
struct ExchangePlan {
  int p = 1;
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
/// indices ascending: pack order equals consume order, which is what makes
/// planned execution bit-identical.
template <typename MapFn, typename OwnerDst, typename OwnerSrc>
[[nodiscard]] std::shared_ptr<const ExchangePlan> build_exchange_plan(
    index_t n, int p, const MapFn& src_index_of, const OwnerDst& owner_dst,
    const OwnerSrc& owner_src) {
  auto plan = std::make_shared<ExchangePlan>();
  plan->p = p;
  const std::size_t pp = static_cast<std::size_t>(p) * p;
  std::vector<std::vector<index_t>> pk(pp), rv(pp);
  std::vector<std::vector<index_t>> ld(p), ls(p), bd(p);
  for (index_t i = 0; i < n; ++i) {
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
/// own (p, n) are folded in here, so a hit is always the plan this call
/// would build. Control thread only.
template <typename MapFn, typename OwnerDst, typename OwnerSrc>
[[nodiscard]] std::shared_ptr<const ExchangePlan> plan_for(
    std::uint64_t key, index_t n, int p, const MapFn& src_index_of,
    const OwnerDst& owner_dst, const OwnerSrc& owner_src) {
  key = fnv_mix(key, static_cast<std::uint64_t>(p));
  key = fnv_mix(key, static_cast<std::uint64_t>(n));
  return plan_memo().get(key, [&] {
    return build_exchange_plan(n, p, src_index_of, owner_dst, owner_src);
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
/// in (the staged combine of gather_scatter.hpp lands its local
/// contributions this way).
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

/// One-shot planned exchange in the three-phase protocol: post, the local
/// copies while the messages are in flight, then consume. Records nothing:
/// the calling primitive's event covers the exchange.
template <typename T>
void exchange_planned(T* dst, const T* src, const ExchangePlan& plan,
                      T boundary = T{}) {
  const std::uint64_t p = static_cast<std::uint64_t>(plan.p);
  const PlanOp<T> op{dst, src, &plan, next_tags(p * p), boundary};
  planned_post(&op, 1);
  planned_local(&op, 1);
  planned_consume(&op, 1, /*include_local=*/false);
}

}  // namespace dpf::net
