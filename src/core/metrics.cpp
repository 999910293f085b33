#include "core/metrics.hpp"

#include <chrono>
#include <sstream>

#include "core/flops.hpp"
#include "core/machine.hpp"
#include "core/memory.hpp"

namespace dpf {
namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MetricScope::MetricScope()
    : t0_wall_(wall_now()),
      t0_busy_core_(Machine::instance().busy_core_seconds()),
      t0_flops_(flops::total()),
      t0_events_(CommLog::instance().event_count()),
      base_mem_(memory::current_bytes()) {
  memory::reset_peak();
}

Metrics MetricScope::stop() {
  if (stopped_) return result_;
  stopped_ = true;
  result_.elapsed_seconds = wall_now() - t0_wall_;
  const Machine& machine = Machine::instance();
  result_.busy_core_seconds = machine.busy_core_seconds() - t0_busy_core_;
  result_.busy_seconds =
      result_.busy_core_seconds / static_cast<double>(machine.vps());
  result_.flop_count = flops::total() - t0_flops_;
  result_.memory_bytes = memory::peak_bytes() - base_mem_;
  result_.comm_events = CommLog::instance().events_since(t0_events_);
  return result_;
}

std::string format_metrics(const std::string& label, const Metrics& m) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  // Nanoseconds, the clock's resolution: the rates below stay recomputable
  // from the printed times of a microsecond-scale run.
  os.precision(9);
  os << label << ":\n"
     << "  busy time (sec.)       : " << m.busy_seconds << "\n"
     << "  busy core time (sec.)  : " << m.busy_core_seconds << "\n"
     << "  elapsed time (sec.)    : " << m.elapsed_seconds << "\n";
  os.precision(3);
  os << "  busy floprate (MFLOPS) : " << m.busy_mflops() << "\n"
     << "  elapsed floprate (MFLOPS): " << m.elapsed_mflops() << "\n"
     << "  FLOP count             : " << m.flop_count << "\n"
     << "  memory usage (bytes)   : " << m.memory_bytes << "\n"
     << "  communication ops      : " << m.comm_op_count() << "\n";
  os.precision(6);
  os << "  comm time (sec.)       : " << m.comm_seconds() << "\n";
  if (m.predicted_comm_seconds() > 0.0) {
    os << "  predicted comm (sec.)  : " << m.predicted_comm_seconds() << "\n";
  }
  return os.str();
}

}  // namespace dpf
