#pragma once

/// \file tune.hpp
/// The four pattern classes that split a run's communication time by cost
/// shape. perfbench's pass runner reports comm.s per class (shift_s,
/// tree_s, exchange_s, gather_scatter_s) in this enum's order, so the order
/// must not change.

#include <cstdint>

#include "core/comm_log.hpp"

namespace dpf::net {

/// The 17 CommPattern values collapse into four classes with different
/// cost shapes:
///   Shift          nearest-neighbour boundary motion (stencils, cshift)
///   Tree           root-to-leaves / leaves-to-root (reduce, broadcast, scan)
///   Exchange       all-to-all personalized (transpose, butterfly, sort)
///   GatherScatter  router-classified irregular motion (gather, scatter)
enum class PatternClass : std::uint8_t { Shift, Tree, Exchange, GatherScatter };

inline constexpr int kPatternClassCount = 4;

[[nodiscard]] inline PatternClass pattern_class(CommPattern pat) {
  switch (pat) {
    case CommPattern::Stencil:
    case CommPattern::CShift:
    case CommPattern::EOShift:
      return PatternClass::Shift;
    case CommPattern::Reduction:
    case CommPattern::Broadcast:
    case CommPattern::Spread:
    case CommPattern::Scan:
      return PatternClass::Tree;
    case CommPattern::AAPC:
    case CommPattern::AABC:
    case CommPattern::Butterfly:
    case CommPattern::Sort:
      return PatternClass::Exchange;
    case CommPattern::Gather:
    case CommPattern::GatherCombine:
    case CommPattern::Scatter:
    case CommPattern::ScatterCombine:
    case CommPattern::Send:
    case CommPattern::Get:
      return PatternClass::GatherScatter;
  }
  return PatternClass::Shift;
}

}  // namespace dpf::net
