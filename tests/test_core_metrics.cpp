// Tests for the metrics layer: FLOP weights (section 1.5), the busy vs
// elapsed relationship, memory scoping, MetricScope isolation, and report
// formatting.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "comm/comm.hpp"
#include "core/metrics.hpp"
#include "core/ops.hpp"

namespace dpf {
namespace {

TEST(Flops, WeightsMatchThePaper) {
  EXPECT_EQ(flops::weight(flops::Kind::AddSubMul), 1);
  EXPECT_EQ(flops::weight(flops::Kind::DivSqrt), 4);
  EXPECT_EQ(flops::weight(flops::Kind::LogTrig), 8);
}

TEST(Flops, CountingAccumulates) {
  flops::reset();
  flops::add(flops::Kind::AddSubMul, 10);
  flops::add(flops::Kind::DivSqrt, 2);
  flops::add(flops::Kind::LogTrig, 1);
  EXPECT_EQ(flops::total(), 10 + 8 + 8);
}

TEST(Flops, ReductionCountsNMinusOne) {
  flops::reset();
  flops::add_reduction(100);
  EXPECT_EQ(flops::total(), 99);
  flops::add_reduction(1);
  EXPECT_EQ(flops::total(), 99);  // single element: no FLOPs
  flops::add_reduction(0);
  EXPECT_EQ(flops::total(), 99);
}

TEST(Flops, ScopeIsolatesCounts) {
  flops::reset();
  flops::add(flops::Kind::AddSubMul, 5);
  flops::Scope s;
  flops::add(flops::Kind::AddSubMul, 7);
  EXPECT_EQ(s.count(), 7);
  EXPECT_EQ(flops::total(), 12);
}

TEST(Metrics, BusyNeverExceedsElapsedSubstantially) {
  MetricScope scope;
  auto v = make_vector<double>(1 << 16);
  for (int rep = 0; rep < 10; ++rep) {
    update(v, 2, [](index_t i, double x) {
      return x + 1e-3 * static_cast<double>(i % 3);
    });
  }
  const Metrics m = scope.stop();
  EXPECT_GT(m.elapsed_seconds, 0.0);
  // Mean per-VP busy time cannot exceed wall time (scheduling noise gets
  // a small allowance).
  EXPECT_LE(m.busy_seconds, m.elapsed_seconds * 1.25 + 1e-4);
}

TEST(Metrics, RatesComputedFromCounts) {
  Metrics m;
  m.busy_seconds = 0.5;
  m.busy_core_seconds = 1.25;
  m.elapsed_seconds = 1.0;
  m.flop_count = 2'000'000;
  EXPECT_DOUBLE_EQ(m.busy_mflops(), 4.0);
  EXPECT_DOUBLE_EQ(m.elapsed_mflops(), 2.0);
  // Efficiency divides by core-seconds, not by the per-VP mean.
  EXPECT_DOUBLE_EQ(m.arithmetic_efficiency_pct(40.0), 4.0);
}

TEST(Metrics, ZeroTimeYieldsZeroRate) {
  Metrics m;
  m.flop_count = 100;
  EXPECT_EQ(m.busy_mflops(), 0.0);
  EXPECT_EQ(m.elapsed_mflops(), 0.0);
}

TEST(Metrics, ScopeCapturesOnlyItsWindow) {
  flops::reset();
  CommLog::instance().reset();
  auto v = make_vector<double>(64);
  (void)comm::reduce_sum(v);  // before the scope
  MetricScope scope;
  (void)comm::reduce_sum(v);
  (void)comm::reduce_sum(v);
  const Metrics m = scope.stop();
  EXPECT_EQ(m.comm_op_count(), 2);
  EXPECT_EQ(m.flop_count, 2 * 63);
  // Stop is idempotent.
  const Metrics m2 = scope.stop();
  EXPECT_EQ(m2.flop_count, m.flop_count);
}

// Measurement windows over a long log: each window reads exactly the events
// recorded since it opened, in order, at a cost independent of the history.
class MeasurementWindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CommLog::instance().reset();
    for (index_t i = 0; i < (index_t{1} << 18); ++i) {
      record(CommPattern::Stencil, -1);
    }
  }
  void TearDown() override { CommLog::instance().reset(); }

  /// Records one event carrying `tag` in its detail field.
  static void record(CommPattern p, index_t tag) {
    CommLog::instance().record(CommEvent{.pattern = p, .detail = tag});
  }

  static std::vector<index_t> tags(const std::vector<CommEvent>& events) {
    std::vector<index_t> out;
    for (const CommEvent& e : events) out.push_back(e.detail);
    return out;
  }
};

TEST_F(MeasurementWindowTest, MetricScopeReturnsExactlyItsWindow) {
  MetricScope scope;
  for (index_t k = 0; k < 3; ++k) record(CommPattern::Gather, k);
  EXPECT_EQ(tags(scope.stop().comm_events), (std::vector<index_t>{0, 1, 2}));
}

TEST_F(MeasurementWindowTest, CommScopeEventsCountsAndCountCoverItsWindow) {
  CommScope scope;
  record(CommPattern::Gather, 0);
  record(CommPattern::Reduction, 1);
  record(CommPattern::Gather, 2);
  EXPECT_EQ(tags(scope.events()), (std::vector<index_t>{0, 1, 2}));
  const std::map<CommKey, index_t> expected{
      {CommKey{CommPattern::Gather, 0, 0}, 2},
      {CommKey{CommPattern::Reduction, 0, 0}, 1}};
  EXPECT_EQ(scope.counts(), expected);
  EXPECT_EQ(scope.count(CommPattern::Gather), 2);
  EXPECT_EQ(scope.count(CommPattern::Stencil), 0);
}

TEST_F(MeasurementWindowTest, SegmentTimerInsideOuterScopeSeesOnlyItsBodies) {
  MetricScope outer;
  SegmentTimer segment;
  record(CommPattern::Broadcast, 0);
  segment.run([] {
    record(CommPattern::Gather, 1);
    record(CommPattern::Gather, 2);
  });
  record(CommPattern::Broadcast, 3);
  segment.run([] { record(CommPattern::Scatter, 4); });
  const Metrics m = outer.stop();
  EXPECT_EQ(tags(segment.total().comm_events),
            (std::vector<index_t>{1, 2, 4}));
  EXPECT_EQ(tags(m.comm_events), (std::vector<index_t>{0, 1, 2, 3, 4}));
}

TEST_F(MeasurementWindowTest, WindowOpenedBeforeResetReturnsNoEvents) {
  MetricScope metric;
  CommScope comm;
  CommLog::instance().reset();
  record(CommPattern::Gather, 0);
  EXPECT_TRUE(metric.stop().comm_events.empty());
  EXPECT_TRUE(comm.events().empty());
  EXPECT_TRUE(comm.counts().empty());
  EXPECT_EQ(comm.count(CommPattern::Gather), 0);
}

TEST_F(MeasurementWindowTest, WindowCostDoesNotGrowWithTheLog) {
  const auto t0 = std::chrono::steady_clock::now();
  for (index_t w = 0; w < 200; ++w) {
    MetricScope scope;
    record(CommPattern::Gather, w);
    ASSERT_EQ(tags(scope.stop().comm_events), std::vector<index_t>{w});
  }
  // A window that copied the whole log moved 2^18 events (about 21 MB) per
  // stop(), so 200 of them took on the order of a second.
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));
}

TEST(Metrics, FormatContainsTheFourHeadlineMetrics) {
  Metrics m;
  m.busy_seconds = 0.25;
  m.elapsed_seconds = 0.5;
  m.flop_count = 1000;
  const std::string s = format_metrics("demo", m);
  EXPECT_NE(s.find("busy time"), std::string::npos);
  EXPECT_NE(s.find("busy core time"), std::string::npos);
  EXPECT_NE(s.find("elapsed time"), std::string::npos);
  EXPECT_NE(s.find("busy floprate"), std::string::npos);
  EXPECT_NE(s.find("elapsed floprate"), std::string::npos);
  EXPECT_NE(s.find("demo"), std::string::npos);
}

TEST(Memory, ScopeMeasuresPeakWithinWindow) {
  memory::Scope outer;
  {
    auto a = make_vector<double>(1000);  // 8000 bytes
    EXPECT_GE(outer.peak(), 8000);
  }
  // Peak persists after free.
  EXPECT_GE(outer.peak(), 8000);
  memory::Scope inner;
  EXPECT_EQ(inner.peak(), 0);
}

TEST(Memory, TemporariesExcludedFromPeak) {
  memory::Scope scope;
  Array1<double> t(Shape<1>(100000), Layout<1>{}, MemKind::Temporary);
  EXPECT_EQ(scope.peak(), 0);
}

TEST(CommLogTest, EnableDisableGates) {
  auto& log = CommLog::instance();
  log.reset();
  log.set_enabled(false);
  auto v = make_vector<double>(8);
  (void)comm::reduce_sum(v);
  EXPECT_EQ(log.event_count(), 0u);
  log.set_enabled(true);
  (void)comm::reduce_sum(v);
  EXPECT_EQ(log.event_count(), 1u);
}

TEST(CommLogTest, ByteTotalsAggregate) {
  auto& log = CommLog::instance();
  log.reset();
  auto v = make_vector<double>(100);  // 800 bytes
  (void)comm::reduce_sum(v);
  (void)comm::reduce_sum(v);
  EXPECT_EQ(log.total_bytes(), 1600);
  EXPECT_GE(log.offproc_bytes(), 0);
}

TEST(CommLogTest, CountsKeyedByPatternAndRanks) {
  auto& log = CommLog::instance();
  log.reset();
  auto a = make_matrix<double>(4, 4);
  (void)comm::reduce_sum(a);       // rank 2 -> 0
  auto r = comm::reduce_axis_sum(a, 1);  // rank 2 -> 1
  (void)r;
  const auto counts = log.counts();
  EXPECT_EQ(counts.at(CommKey{CommPattern::Reduction, 2, 0}), 1);
  EXPECT_EQ(counts.at(CommKey{CommPattern::Reduction, 2, 1}), 1);
}

}  // namespace
}  // namespace dpf
