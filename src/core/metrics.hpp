#pragma once

/// \file metrics.hpp
/// The paper's performance metrics (section 1.5):
///   (1) busy time, (2) elapsed time,
///   (3) busy FLOP rate, (4) elapsed FLOP rate,
/// plus the quantified attributes: FLOP count, memory usage, communication
/// events, and (for linear algebra) arithmetic efficiency.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/comm_log.hpp"
#include "core/types.hpp"

namespace dpf {

/// Measured metrics for one benchmark run (or one timed code segment, as the
/// paper reports for boson, fem-3D, md, ... and for qr/lu factor vs solve).
struct Metrics {
  double busy_seconds = 0.0;       ///< the paper's busy time: per-VP mean
  double busy_core_seconds = 0.0;  ///< region-body time summed over workers
  double elapsed_seconds = 0.0;
  std::int64_t flop_count = 0;
  std::int64_t memory_bytes = 0;  ///< peak user-declared bytes during the run
  std::vector<CommEvent> comm_events;

  [[nodiscard]] double busy_mflops() const {
    return busy_seconds > 0.0
               ? static_cast<double>(flop_count) / busy_seconds / 1e6
               : 0.0;
  }
  [[nodiscard]] double elapsed_mflops() const {
    return elapsed_seconds > 0.0
               ? static_cast<double>(flop_count) / elapsed_seconds / 1e6
               : 0.0;
  }

  /// Arithmetic efficiency (section 1.5, attribute 2) in percent: FLOPs
  /// over core-busy seconds times the measured per-core peak
  /// (Machine::core_peak_mflops()). Above 100% only if a kernel outruns the
  /// hardware.
  [[nodiscard]] double arithmetic_efficiency_pct(
      double core_peak_mflops) const {
    const double capacity = busy_core_seconds * core_peak_mflops * 1e6;
    return capacity > 0.0 ? 100.0 * static_cast<double>(flop_count) / capacity
                          : 0.0;
  }

  [[nodiscard]] index_t comm_op_count() const {
    return static_cast<index_t>(comm_events.size());
  }

  /// Measured communication time: sum of the per-primitive wall times of
  /// every recorded event (0 contributions from untimed events).
  [[nodiscard]] double comm_seconds() const {
    double s = 0.0;
    for (const CommEvent& e : comm_events) s += e.seconds;
    return s;
  }

  /// Predicted communication time under the net::CostModel fat-tree model
  /// (0 until the model has been calibrated).
  [[nodiscard]] double predicted_comm_seconds() const {
    double s = 0.0;
    for (const CommEvent& e : comm_events) s += e.predicted_seconds;
    return s;
  }

  [[nodiscard]] std::map<CommKey, index_t> comm_counts() const {
    std::map<CommKey, index_t> out;
    for (const CommEvent& e : comm_events) {
      ++out[CommKey{e.pattern, e.src_rank, e.dst_rank}];
    }
    return out;
  }
};

/// Measures one timed region: elapsed wall-clock and the machine's busy time,
/// FLOPs and communication events recorded between start() and stop().
class MetricScope {
 public:
  /// Starts measuring immediately.
  MetricScope();

  /// Stops and returns the metrics. Idempotent after the first call.
  Metrics stop();

 private:
  double t0_wall_;
  double t0_busy_core_;
  std::int64_t t0_flops_;
  std::size_t t0_events_;
  std::int64_t base_mem_;
  bool stopped_ = false;
  Metrics result_;
};

/// Accumulates the metrics of many small windows into one segment total —
/// the paper reports per-code-segment measures for boson, fem-3D, md,
/// mdcell, qcd-kernel, qptransport and step4, whose segments recur every
/// iteration.
class SegmentTimer {
 public:
  /// Measures one invocation of `body` and folds it into the total.
  template <typename F>
  void run(F&& body) {
    MetricScope scope;
    body();
    add(scope.stop());
  }

  void add(const Metrics& m) {
    total_.busy_seconds += m.busy_seconds;
    total_.busy_core_seconds += m.busy_core_seconds;
    total_.elapsed_seconds += m.elapsed_seconds;
    total_.flop_count += m.flop_count;
    total_.memory_bytes = std::max(total_.memory_bytes, m.memory_bytes);
    total_.comm_events.insert(total_.comm_events.end(), m.comm_events.begin(),
                              m.comm_events.end());
  }

  [[nodiscard]] const Metrics& total() const { return total_; }

 private:
  Metrics total_;
};

/// Formats metrics in the paper's output style; `label` names the benchmark
/// or code segment.
[[nodiscard]] std::string format_metrics(const std::string& label,
                                         const Metrics& m);

}  // namespace dpf
