#pragma once

/// \file pipeline.hpp
/// Block-pipelined execution of whole-array personalized exchanges — the
/// HPCC PTRANS diagonal-blocking shape for the transpose/butterfly engines.
///
/// A monolithic exchange posts everything, then unpacks everything: the
/// CPU is idle while the first message travels and the network is idle
/// while the last payload scatters. Splitting the destination index space
/// into B contiguous blocks — each an independent planned exchange — lets
/// block k+1's messages fly while block k's payload is unpacked:
///
///   post(0); for k: { post(k+1); local(k); consume(k); }
///
/// Every block is a cached ExchangePlan (exchange_plan.hpp), so the
/// steady-state cost is index gathers plus the transport traffic. Under
/// DPF_NET=algorithmic (non-overlap) the exchange stays one-shot: a single
/// planned post + consume. Results are bit-identical either way: blocks
/// partition the destination indices, and within each (sender, receiver,
/// block) message the consume order is the pack order.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/detail.hpp"
#include "core/machine.hpp"
#include "net/exchange_plan.hpp"
#include "net/tune.hpp"
#include "trace/trace.hpp"

namespace dpf::comm::detail {

/// What a planned engine run did, for the caller's CommEvent record.
struct PipelineStats {
  bool used = false;    ///< engine path ran (algorithmic mode, p > 1)
  bool split = false;   ///< split-phase (overlap mode): record_split fields
  int blocks = 1;
  double seconds = 0.0;          ///< post + consume phase time (unhidden)
  double overlap_seconds = 0.0;  ///< in-flight window covered by other work
};

/// Pipeline block count for an n-element exchange: enough elements per
/// block to amortize the per-block region latency, capped at 4 blocks.
[[nodiscard]] inline index_t pipeline_blocks(index_t n, int p) {
  index_t b = std::min<index_t>({4, static_cast<index_t>(p), n / 1024});
  return std::max<index_t>(1, b);
}

/// Runs dst[i] = src[map(i)] (i in [0, n), negative map = boundary fill)
/// through the planned exchange engine. `struct_key` must fold everything
/// the routing depends on (the per-block keys extend it with the block
/// range); `span_pattern` labels the per-block trace Overlap spans. The
/// caller records the CommEvent from the returned stats.
template <typename T, typename MapFn, typename OwnerDst, typename OwnerSrc>
PipelineStats planned_engine_exchange(T* dst, index_t n, const T* src,
                                      std::uint64_t struct_key,
                                      CommPattern span_pattern,
                                      const MapFn& map, const OwnerDst& od,
                                      const OwnerSrc& os, T boundary = T{}) {
  PipelineStats st;
  const int p = Machine::instance().vps();
  if (!(net::algorithmic() && p > 1) || n == 0) return st;
  st.used = true;
  const std::uint64_t tags_per =
      static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p);

  if (!net::overlap()) {
    KeyHash key;
    key.mix(struct_key);
    key.mix(0);
    key.mix(static_cast<std::uint64_t>(n));
    auto plan = net::plan_for(key.h, 0, n, p, map, od, os);
    net::PlanOp<T> op{dst, src, plan.get(), net::next_tags(tags_per),
                     boundary};
    net::planned_post(&op, 1);
    net::planned_consume(&op, 1, /*include_local=*/true);
    return st;
  }

  // Overlap: pipelined blocks over contiguous destination ranges. The
  // unhidden time is what the post and consume calls cost; everything else
  // between the first post's end and the last consume's start (later
  // posts, local copies, plan lookups) runs while messages are in flight.
  const index_t nb = net::tuned_blocks(
      span_pattern, static_cast<std::uint64_t>(n) * sizeof(T),
      pipeline_blocks(n, p));
  st.split = true;
  st.blocks = static_cast<int>(nb);
  std::vector<std::shared_ptr<const net::ExchangePlan>> plans(nb);
  std::vector<net::PlanOp<T>> ops(nb);
  std::vector<std::uint64_t> post_end(nb), consume_start(nb);
  const auto build = [&](index_t k) {
    const Block b = block_of(n, static_cast<int>(nb), static_cast<int>(k));
    KeyHash key;
    key.mix(struct_key);
    key.mix(static_cast<std::uint64_t>(nb));
    key.mix(static_cast<std::uint64_t>(k) + 1);
    plans[k] = net::plan_for(key.h, b.begin, b.end, p, map, od, os);
    ops[k] = net::PlanOp<T>{dst, src, plans[k].get(),
                            net::next_tags(tags_per), boundary};
  };
  const std::uint64_t t0 = trace::now_ns();
  double phase_ns = 0.0;
  build(0);
  {
    const std::uint64_t a = trace::now_ns();
    net::planned_post(&ops[0], 1);
    post_end[0] = trace::now_ns();
    phase_ns += static_cast<double>(post_end[0] - a);
  }
  for (index_t k = 0; k < nb; ++k) {
    if (k + 1 < nb) {
      build(k + 1);
      const std::uint64_t a = trace::now_ns();
      net::planned_post(&ops[k + 1], 1);
      post_end[k + 1] = trace::now_ns();
      phase_ns += static_cast<double>(post_end[k + 1] - a);
    }
    net::planned_local(&ops[k], 1);
    consume_start[k] = trace::now_ns();
    net::planned_consume(&ops[k], 1, /*include_local=*/false);
    phase_ns += static_cast<double>(trace::now_ns() - consume_start[k]);
  }
  const std::uint64_t t1 = trace::now_ns();
  if (trace::enabled(trace::Mode::Summary)) {
    for (index_t k = 0; k < nb; ++k) {
      trace::overlap_span(static_cast<std::uint8_t>(span_pattern),
                          ops[k].plan->posted_bytes(sizeof(T)), post_end[k],
                          consume_start[k],
                          static_cast<std::uint64_t>(k));
    }
  }
  st.seconds = phase_ns * 1e-9;
  st.overlap_seconds =
      std::max(0.0, static_cast<double>(t1 - t0) * 1e-9 - st.seconds);
  return st;
}

}  // namespace dpf::comm::detail
