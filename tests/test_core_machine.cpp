// Tests for the virtual-processor machine model: SPMD execution, busy-time
// accounting, reconfiguration, and the elapsed-vs-busy relationship the
// paper's timers rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "core/machine.hpp"
#include "core/ops.hpp"

namespace dpf {
namespace {

class MachineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Machine::instance().configure(Machine::default_vps());
  }
};

TEST_F(MachineTest, SpmdRunsEveryVpExactlyOnce) {
  Machine& m = Machine::instance();
  for (int p : {1, 2, 3, 7, 16}) {
    m.configure(p);
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(p));
    m.spmd([&](int vp) {
      hits[static_cast<std::size_t>(vp)].fetch_add(1);
    });
    for (int vp = 0; vp < p; ++vp) {
      EXPECT_EQ(hits[static_cast<std::size_t>(vp)].load(), 1)
          << "p=" << p << " vp=" << vp;
    }
  }
}

TEST_F(MachineTest, RepeatedRegionsStayConsistent) {
  Machine& m = Machine::instance();
  m.configure(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    m.spmd([&](int) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 200 * 4);
}

TEST_F(MachineTest, BusyTimeAccumulatesAndResets) {
  Machine& m = Machine::instance();
  m.configure(2);
  m.reset_busy();
  EXPECT_EQ(m.busy_seconds(), 0.0);
  m.spmd([&](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  // Each VP slept ~5ms; mean per-VP busy ~5ms.
  EXPECT_GT(m.busy_seconds(), 0.002);
  EXPECT_LT(m.busy_seconds(), 0.2);
  m.reset_busy();
  EXPECT_EQ(m.busy_seconds(), 0.0);
}

TEST_F(MachineTest, BusyTimeIsMeanOverVpsNotSum) {
  Machine& m = Machine::instance();
  m.configure(4);
  m.reset_busy();
  // Only VP 0 works: mean busy should be ~work/4.
  m.spmd([&](int vp) {
    if (vp == 0) std::this_thread::sleep_for(std::chrono::milliseconds(8));
  });
  EXPECT_GT(m.busy_seconds(), 0.001);
  EXPECT_LT(m.busy_seconds(), 0.006);  // well under the 8ms single-VP time
}

TEST_F(MachineTest, ForEachBlockCoversIndexSpace) {
  Machine::instance().configure(3);
  const index_t n = 101;
  std::vector<std::atomic<int>> touched(static_cast<std::size_t>(n));
  for_each_block(n, [&](int, Block b) {
    for (index_t i = b.begin; i < b.end; ++i) {
      touched[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(touched[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST_F(MachineTest, ForEachBlockSkipsEmptyBlocks) {
  Machine::instance().configure(8);
  std::atomic<int> calls{0};
  for_each_block(3, [&](int, Block b) {
    EXPECT_GT(b.size(), 0);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);  // only 3 VPs own elements
}

TEST_F(MachineTest, ParallelRangeComputesCorrectly) {
  Machine::instance().configure(5);
  auto v = make_vector<double>(1000);
  parallel_range(v.size(), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) v[i] = static_cast<double>(i) * 2.0;
  });
  for (index_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], 2.0 * i);
}

TEST_F(MachineTest, PeakCalibrationIsPositiveAndCached) {
  Machine& m = Machine::instance();
  m.configure(2);
  const double p1 = m.peak_mflops();
  EXPECT_GT(p1, 10.0);  // any machine manages 10 MFLOPS
  const double p2 = m.peak_mflops();
  EXPECT_EQ(p1, p2);  // cached
}

TEST_F(MachineTest, NestedSpmdExecutesInline) {
  Machine& m = Machine::instance();
  m.configure(2);
  std::atomic<int> inner{0};
  m.spmd([&](int vp) {
    if (vp == 0) {
      // A nested region runs every VP's body inline on this thread.
      m.spmd([&](int) { inner.fetch_add(1); });
    }
  });
  EXPECT_EQ(inner.load(), 2);
}

/// Forces a pool of `workers` threads for one test and restores DPF_WORKERS
/// after it, since the sanitizer legs run every test in one process.
class ScopedWorkers {
 public:
  explicit ScopedWorkers(int workers) {
    if (const char* v = std::getenv("DPF_WORKERS")) saved_ = v;
    setenv("DPF_WORKERS", std::to_string(workers).c_str(), 1);
  }
  ~ScopedWorkers() {
    if (saved_) {
      setenv("DPF_WORKERS", saved_->c_str(), 1);
    } else {
      unsetenv("DPF_WORKERS");
    }
  }
  ScopedWorkers(const ScopedWorkers&) = delete;
  ScopedWorkers& operator=(const ScopedWorkers&) = delete;

 private:
  std::optional<std::string> saved_;
};

// A site's first region fans out; an empty body cannot repay the pool, so
// every later one runs inline on the dispatcher.
TEST_F(MachineTest, EmptyBodySiteRunsInlineFromItsSecondCall) {
  ScopedWorkers workers(4);
  Machine& m = Machine::instance();
  m.configure(16);
  ASSERT_EQ(m.workers(), 4);
  const auto before = m.region_counts();
  for (int r = 0; r < 20; ++r) m.spmd([](int) {});
  const auto after = m.region_counts();
  EXPECT_EQ(after.fanned_out - before.fanned_out, 1u);
  EXPECT_EQ(after.inlined - before.inlined, 19u);
}

// Sixteen VPs of ~1 ms each are worth the pool every time. The VPs sleep
// rather than spin, so they overlap on the pool however loaded the host's
// cores are.
TEST_F(MachineTest, HeavySiteFansOutOnEveryCall) {
  ScopedWorkers workers(4);
  Machine& m = Machine::instance();
  m.configure(16);
  const auto before = m.region_counts();
  std::atomic<int> bodies{0};
  for (int r = 0; r < 5; ++r) {
    m.spmd([&](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      bodies.fetch_add(1, std::memory_order_relaxed);
    });
  }
  const auto after = m.region_counts();
  EXPECT_EQ(bodies.load(), 5 * 16);
  EXPECT_EQ(after.fanned_out - before.fanned_out, 5u);
  EXPECT_EQ(after.inlined, before.inlined);
}

// configure() forgets what every site learned: its next region fans out.
TEST_F(MachineTest, ConfigureResetsSites) {
  ScopedWorkers workers(4);
  Machine& m = Machine::instance();
  const auto run = [&m] { m.spmd([](int) {}); };
  for (int round = 0; round < 2; ++round) {
    m.configure(8);
    const auto before = m.region_counts();
    run();
    run();
    run();
    const auto after = m.region_counts();
    EXPECT_EQ(after.fanned_out - before.fanned_out, 1u) << "round " << round;
    EXPECT_EQ(after.inlined - before.inlined, 2u) << "round " << round;
  }
}

// Inline or fanned out, a region runs every VP once and charges its body
// time to busy time; with one worker every region is inline.
TEST_F(MachineTest, SingleWorkerRunsEveryRegionInline) {
  ScopedWorkers workers(1);
  Machine& m = Machine::instance();
  m.configure(8);
  const auto before = m.region_counts();
  std::atomic<int> bodies{0};
  for (int r = 0; r < 3; ++r) {
    m.spmd([&](int) { bodies.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto after = m.region_counts();
  EXPECT_EQ(bodies.load(), 3 * 8);
  EXPECT_EQ(after.inlined - before.inlined, 3u);
  EXPECT_EQ(after.fanned_out, before.fanned_out);
}

// The grain rule's decisions from fixed evidence: no clock, no pool. Times
// are in ns; the pool's fan-out costs 2 us with the helpers spinning and
// 30 us with them parked.
using Grain = Machine::Grain;
constexpr Machine::PoolCost kPool{2'000.0, 30'000.0, 2'000.0};

// A site whose last region, one of `calls` so far, ran inline in `ns`.
Machine::Site inline_site(double ns, std::uint32_t calls = 10) {
  Machine::Site s;
  s.calls = calls;
  s.inline_ns = ns;
  s.last_inline = true;
  return s;
}

TEST(GrainRuleTest, FirstRegionFansOut) {
  EXPECT_EQ(Machine::grain_rule(Machine::Site{}, kPool, false),
            Grain::FanOut);
  EXPECT_EQ(Machine::grain_rule(Machine::Site{}, kPool, true), Grain::FanOut);
  EXPECT_EQ(Machine::grain_rule(Machine::Site{}, {}, false), Grain::FanOut);
}

TEST(GrainRuleTest, ExactOneMicrosecondBodyRunsInline) {
  EXPECT_EQ(Machine::grain_rule(inline_site(1'000.0), kPool, false),
            Grain::Inline);
}

TEST(GrainRuleTest, HundredMicrosecondBodyFansOutToSpinningHelpers) {
  EXPECT_EQ(Machine::grain_rule(inline_site(100'000.0), kPool, false),
            Grain::FanOut);
}

// Parked helpers cost a 30 us wake, more than an 8 us body: the site never
// fans out to check, however many regions it runs.
TEST(GrainRuleTest, EightMicrosecondBodyStaysInlineWhileHelpersPark) {
  for (std::uint32_t calls = 1; calls <= 5'000; ++calls) {
    ASSERT_EQ(Machine::grain_rule(inline_site(8'000.0, calls), kPool, true),
              Grain::Inline)
        << "call " << calls;
  }
}

// A body that went inline in a slow spell (fan-outs costing 140 us) fans out
// again once the pool's cost reads 2 us.
TEST(GrainRuleTest, BodyInlinedInSlowSpellFansOutAfterIt) {
  const Machine::Site s = inline_site(100'000.0);
  EXPECT_EQ(Machine::grain_rule(s, {140'000.0, 0.0, 2'000.0}, false),
            Grain::Inline);
  EXPECT_EQ(Machine::grain_rule(s, kPool, false), Grain::FanOut);
}

// Summed chunks of 10 us, under 8 of the cheapest 2 us fan-outs, may be a
// smaller body overstated: time it inline once, then trust the fan-outs.
TEST(GrainRuleTest, OneTrialWhenChunksSumUnderEightFanOuts) {
  Machine::Site s;
  s.calls = 1;
  s.wall_ns = 6'000.0;
  s.fanout_ns = 6'000.0;
  s.sum_ns = 10'000.0;
  s.own_serial_ns = 12'000.0;
  EXPECT_EQ(Machine::grain_rule(s, kPool, false), Grain::Trial);
  s.tried = true;
  EXPECT_EQ(Machine::grain_rule(s, kPool, false), Grain::FanOut);
  s.tried = false;
  s.sum_ns = 20'000.0;  // 10 fan-outs: no trial
  s.own_serial_ns = 24'000.0;
  EXPECT_EQ(Machine::grain_rule(s, kPool, false), Grain::FanOut);
}

TEST_F(MachineTest, DefaultVpsRespectsEnvironmentBounds) {
  // Cannot portably set env here, but the default must be sane.
  const int d = Machine::default_vps();
  EXPECT_GE(d, 1);
  EXPECT_LE(d, 4096);
}

}  // namespace
}  // namespace dpf
