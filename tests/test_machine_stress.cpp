// Stress tests for the chunked-dispatch SPMD engine: repeated reconfigure,
// nested regions, many back-to-back regions (exercising the spin/park
// transitions), forced multi-threaded pools on any host via DPF_WORKERS,
// and busy-time accounting sanity under all of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/machine.hpp"
#include "core/ops.hpp"

namespace dpf {
namespace {

class MachineStressTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("DPF_WORKERS");
    Machine::instance().configure(Machine::default_vps());
  }
};

TEST_F(MachineStressTest, RepeatedReconfigureAcrossVpCounts) {
  Machine& m = Machine::instance();
  for (int round = 0; round < 8; ++round) {
    for (int vps : {1, 3, 16, 64}) {
      m.configure(vps);
      ASSERT_EQ(m.vps(), vps);
      std::atomic<int> count{0};
      m.spmd([&](int) { count.fetch_add(1, std::memory_order_relaxed); });
      ASSERT_EQ(count.load(), vps) << "vps=" << vps << " round=" << round;
    }
  }
}

TEST_F(MachineStressTest, ManyBackToBackRegions) {
  Machine& m = Machine::instance();
  for (int vps : {1, 3, 16, 64}) {
    m.configure(vps);
    std::atomic<long> total{0};
    for (int r = 0; r < 500; ++r) {
      m.spmd([&](int) { total.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_EQ(total.load(), 500L * vps) << "vps=" << vps;
  }
}

TEST_F(MachineStressTest, NestedSpmdInsideEveryVp) {
  Machine& m = Machine::instance();
  for (int vps : {1, 3, 16}) {
    m.configure(vps);
    std::atomic<int> inner{0};
    m.spmd([&](int) {
      // Every VP body opens a nested region; each runs all VPs inline.
      m.spmd([&](int) { inner.fetch_add(1, std::memory_order_relaxed); });
    });
    EXPECT_EQ(inner.load(), vps * vps) << "vps=" << vps;
  }
}

TEST_F(MachineStressTest, ReconfigureBetweenEveryRegion) {
  Machine& m = Machine::instance();
  const int vp_cycle[] = {1, 3, 16, 64, 16, 3};
  std::atomic<long> total{0};
  long expect = 0;
  for (int r = 0; r < 60; ++r) {
    const int vps = vp_cycle[r % 6];
    m.configure(vps);
    m.spmd([&](int) { total.fetch_add(1, std::memory_order_relaxed); });
    expect += vps;
  }
  EXPECT_EQ(total.load(), expect);
}

TEST_F(MachineStressTest, BusyTimeSumsSanelyUnderChunkedDispatch) {
  Machine& m = Machine::instance();
  for (int vps : {1, 3, 16, 64}) {
    m.configure(vps);
    m.reset_busy();
    EXPECT_EQ(m.busy_seconds(), 0.0);
    // Each VP spins for ~0.5ms of wall time; mean busy must be of that
    // order: at least half of the per-VP work (chunk timing can only add
    // overhead, not lose it), and no more than the total across VPs.
    const auto spin = [] {
      const auto t0 = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - t0 <
             std::chrono::microseconds(500)) {
      }
    };
    m.spmd([&](int) { spin(); });
    const double busy = m.busy_seconds();
    EXPECT_GT(busy, 0.00025) << "vps=" << vps;
    EXPECT_LT(busy, 0.0005 * vps + 0.05) << "vps=" << vps;
    m.reset_busy();
    EXPECT_EQ(m.busy_seconds(), 0.0);
  }
}

TEST_F(MachineStressTest, BusyTimeAccumulatesOverNestedRegions) {
  Machine& m = Machine::instance();
  m.configure(4);
  m.reset_busy();
  m.spmd([&](int vp) {
    if (vp == 0) {
      m.spmd([&](int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
    }
  });
  // The nested inline region ran 4 bodies of ~1ms on one VP's clock:
  // mean busy ~= 4ms / 4 VPs = ~1ms.
  EXPECT_GT(m.busy_seconds(), 0.0005);
  EXPECT_LT(m.busy_seconds(), 0.1);
}

// Runs `body` through the untyped entry point, which names no site and so
// always fans the region out to the pool, however small the body.
template <typename F>
void fan_out(Machine& m, F& body) {
  m.spmd_raw([](void* ctx, int vp) { (*static_cast<F*>(ctx))(vp); }, &body);
}

// Forces a multi-threaded pool even on single-core CI hosts, so the
// generation-counter barrier, chunk claiming, and park/wake transitions
// actually run concurrently (this is the configuration the ThreadSanitizer
// job exercises). The counters confirm the regions really fanned out.
TEST_F(MachineStressTest, ForcedMultiWorkerPoolStaysConsistent) {
  setenv("DPF_WORKERS", "4", 1);
  Machine& m = Machine::instance();
  for (int vps : {3, 16, 64}) {
    m.configure(vps);
    EXPECT_EQ(m.workers(), std::min(4, vps));
    const auto before = m.region_counts();
    std::atomic<long> total{0};
    auto body = [&](int) { total.fetch_add(1, std::memory_order_relaxed); };
    for (int r = 0; r < 200; ++r) fan_out(m, body);
    EXPECT_EQ(total.load(), 200L * vps) << "vps=" << vps;
    EXPECT_EQ(m.region_counts().fanned_out - before.fanned_out, 200u)
        << "vps=" << vps;
  }
}

TEST_F(MachineStressTest, ForcedMultiWorkerParallelRangeCoversEverything) {
  setenv("DPF_WORKERS", "4", 1);
  Machine& m = Machine::instance();
  m.configure(16);
  const index_t n = 100000;
  std::vector<std::uint8_t> touched(static_cast<std::size_t>(n), 0);
  const auto before = m.region_counts();
  parallel_range(n, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      ++touched[static_cast<std::size_t>(i)];
    }
  });
  // A site's first region always fans out.
  EXPECT_EQ(m.region_counts().fanned_out - before.fanned_out, 1u);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(touched[static_cast<std::size_t>(i)], 1) << i;
  }
}

TEST_F(MachineStressTest, ForcedMultiWorkerSlowRegionsPark) {
  // Long gaps between regions push workers through the spin budget into
  // the parked state; the next region must wake them all.
  setenv("DPF_WORKERS", "3", 1);
  Machine& m = Machine::instance();
  m.configure(12);
  const auto before = m.region_counts();
  for (int r = 0; r < 5; ++r) {
    std::atomic<int> count{0};
    auto body = [&](int) { count.fetch_add(1, std::memory_order_relaxed); };
    fan_out(m, body);
    EXPECT_EQ(count.load(), 12);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_EQ(m.region_counts().fanned_out - before.fanned_out, 5u);
}

TEST_F(MachineStressTest, ForcedMultiWorkerBusyAccounting) {
  setenv("DPF_WORKERS", "4", 1);
  Machine& m = Machine::instance();
  m.configure(8);
  m.reset_busy();
  const auto before = m.region_counts();
  m.spmd([&](int) {
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::milliseconds(1)) {
    }
  });
  EXPECT_EQ(m.region_counts().fanned_out - before.fanned_out, 1u);
  // 8 VPs x ~1ms spread over 8 VPs -> mean ~1ms, padded generously for CI.
  EXPECT_GT(m.busy_seconds(), 0.0005);
  EXPECT_LT(m.busy_seconds(), 0.5);
}

}  // namespace
}  // namespace dpf
