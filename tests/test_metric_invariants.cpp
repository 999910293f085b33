// Invariants of the derived metrics. For every benchmark at its defaults,
// at DPF_VPS=16 with one worker and with four, and for the whole run and
// every timed segment:
//   - arithmetic efficiency (FLOPs over core-busy seconds times the per-core
//     peak) is at most 100%;
//   - core-busy seconds are at most elapsed seconds times the workers;
//   - every check has the same IEEE-754 bits at one worker and at four,
//     whichever regions ran inline on the dispatcher and which fanned out;
//   - every recorded comm event, timed or analytic, carries a hop count
//     and, with the cost model calibrated, a positive predicted time;
//   - the second sweep finds every off-processor count in the count memo.
// And the machine peak is the per-core peak times min(vps, workers, hardware
// threads), following configure() without a second probe.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/detail.hpp"
#include "core/comm_log.hpp"
#include "core/machine.hpp"
#include "core/memo.hpp"
#include "core/registry.hpp"
#include "net/net.hpp"
#include "suite/register_all.hpp"

namespace dpf {
namespace {

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Sets DPF_WORKERS and configures the machine at `vps` VPs; restores the
/// variable and the VP count on exit, since the sanitizer legs run every
/// test in one process.
class ScopedMachine {
 public:
  ScopedMachine(int workers, int vps) : vps_(Machine::instance().vps()) {
    if (const char* v = std::getenv("DPF_WORKERS")) workers_env_ = v;
    setenv("DPF_WORKERS", std::to_string(workers).c_str(), 1);
    Machine::instance().configure(vps);
  }
  ~ScopedMachine() {
    if (workers_env_) {
      setenv("DPF_WORKERS", workers_env_->c_str(), 1);
    } else {
      unsetenv("DPF_WORKERS");
    }
    Machine::instance().configure(vps_);
  }
  ScopedMachine(const ScopedMachine&) = delete;
  ScopedMachine& operator=(const ScopedMachine&) = delete;

 private:
  int vps_;
  std::optional<std::string> workers_env_;
};

using ChecksByBenchmark = std::map<std::string, std::map<std::string, double>>;

/// Runs every benchmark at its defaults at DPF_VPS=16 and `workers`
/// workers, asserts the invariants for the run and each segment, and
/// returns every benchmark's checks.
ChecksByBenchmark expect_invariants_for_all(int workers) {
  ScopedMachine scoped(workers, 16);
  Machine& machine = Machine::instance();
  EXPECT_EQ(machine.workers(), workers);
  net::calibrate();
  register_all_benchmarks();
  ChecksByBenchmark checks;
  std::vector<std::pair<std::string, Metrics>> windows;
  for (const auto* def : Registry::instance().all()) {
    const RunResult r = def->run_with_defaults(RunConfig{});
    checks[def->name] = r.checks;
    windows.emplace_back(def->name, r.metrics);
    for (const auto& [seg, m] : r.segments) {
      windows.emplace_back(def->name + " segment " + seg, m);
    }
  }
  EXPECT_GE(windows.size(), 32u);
  // The peak is read after the runs: a process that probes right after
  // the host idled must not deflate it.
  const double core_peak = machine.core_peak_mflops();
  EXPECT_GT(core_peak, 0.0);
  for (const auto& [what, m] : windows) {
    EXPECT_LE(m.arithmetic_efficiency_pct(core_peak), 100.0)
        << what << ": " << m.flop_count << " FLOPs in "
        << m.busy_core_seconds << " core-s against a " << core_peak
        << " MFLOPS per-core peak";
    EXPECT_LE(m.busy_core_seconds, m.elapsed_seconds * machine.workers())
        << what << " at " << machine.workers() << " workers";
    std::size_t unannotated = 0;
    for (const CommEvent& e : m.comm_events) {
      if (e.hops <= 0 || !(e.predicted_seconds > 0.0)) ++unannotated;
    }
    EXPECT_EQ(unannotated, 0u)
        << what << ": events without a hop count or a predicted time";
  }
  return checks;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(MetricInvariants, AllBenchmarksHoldAtOneWorker) {
  (void)expect_invariants_for_all(1);
}

TEST(MetricInvariants, AllBenchmarksHoldAtFourWorkers) {
  const ChecksByBenchmark four = expect_invariants_for_all(4);
  // The whole suite's off-processor counts fit the count memo: the second
  // sweep at DPF_VPS=16 sweeps no count again and evicts none.
  const MemoStats counts0 = comm::detail::count_memo().stats();
  const ChecksByBenchmark one = expect_invariants_for_all(1);
  const MemoStats counts1 = comm::detail::count_memo().stats();
  EXPECT_EQ(counts1.built - counts0.built, 0u);
  EXPECT_EQ(counts1.evicted - counts0.evicted, 0u);
  EXPECT_GT(counts1.reused - counts0.reused, 0u);
  ASSERT_EQ(four.size(), one.size());
  for (const auto& [name, checks] : one) {
    const auto it = four.find(name);
    ASSERT_NE(it, four.end()) << name;
    ASSERT_EQ(it->second.size(), checks.size()) << name;
    for (const auto& [key, v] : checks) {
      const auto jt = it->second.find(key);
      ASSERT_NE(jt, it->second.end()) << name << " " << key;
      EXPECT_EQ(bits_of(jt->second), bits_of(v))
          << name << " check " << key << ": " << jt->second
          << " at 4 workers, " << v << " at 1";
    }
  }
}

TEST(MetricInvariants, PeakIsPerCorePeakTimesCores) {
  for (int workers : {1, 4}) {
    ScopedMachine scoped(workers, 16);
    Machine& machine = Machine::instance();
    const int cores = std::min({16, machine.workers(), hardware_threads()});
    EXPECT_EQ(machine.peak_cores(), cores) << workers << " workers";
    EXPECT_EQ(machine.peak_mflops(), machine.core_peak_mflops() * cores)
        << workers << " workers";
  }
}

TEST(MetricInvariants, PeakFollowsConfigureWithoutProbingAgain) {
  ScopedMachine scoped(4, 16);
  Machine& machine = Machine::instance();
  const double core_peak = machine.core_peak_mflops();
  const int hw = hardware_threads();
  EXPECT_EQ(machine.peak_mflops(), core_peak * std::min(4, hw));
  machine.configure(2);
  const std::uint64_t serial = machine.region_serial();
  const double peak2 = machine.peak_mflops();
  EXPECT_EQ(machine.region_serial(), serial) << "peak probed again";
  EXPECT_EQ(peak2, core_peak * std::min(2, hw));
}

}  // namespace
}  // namespace dpf
