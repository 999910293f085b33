// Regression tests for the outermost-pattern-only accounting rule: when a
// comm primitive is realized through internally-recording collectives (the
// DPF_NET=overlap paths route through net::exchange_planned and the
// slot allgather, which are recording primitives in their own right), the
// payload must be attributed to the pattern the program asked for exactly
// once — never double-counted against the internal exchange traffic.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "net/collectives.hpp"
#include "net/net.hpp"

namespace dpf {
namespace {

class CommNestingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
    Machine::instance().configure(4);
    net::transport().reset();
    CommLog::instance().reset();
  }
  void TearDown() override {
    unsetenv("DPF_NET");
    unsetenv("DPF_WORKERS");
    Machine::instance().configure(Machine::default_vps());
  }
};

// The RecordScope contract itself: depth-1 events land, deeper ones drop.
TEST_F(CommNestingTest, NestedRecordScopeDropsInnerEvents) {
  CommLog& log = CommLog::instance();
  CommEvent outer{CommPattern::CShift, 1, 1, 100, 50, 0};
  CommEvent inner{CommPattern::AAPC, 1, 1, 100, 100, 0};
  {
    CommLog::RecordScope scope;
    EXPECT_TRUE(scope.outermost());
    log.record(outer);
    {
      CommLog::RecordScope nested;
      EXPECT_FALSE(nested.outermost());
      log.record(inner);  // dropped: depth 2
    }
    log.record(outer);  // back at depth 1: kept
  }
  const auto events = log.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].pattern, CommPattern::CShift);
  EXPECT_EQ(events[1].pattern, CommPattern::CShift);
  // Scope-free records (the la/app analytic counters) always land.
  log.record(inner);
  EXPECT_EQ(log.event_count(), 3u);
}

// The headline regression: a message-passing cshift logs one CSHIFT event with
// the payload bytes — not an extra AAPC from the net::exchange_planned
// that realized it.
TEST_F(CommNestingTest, AlgorithmicCshiftLogsOnePatternOnly) {
  auto a = make_vector<double>(64);
  for (index_t i = 0; i < 64; ++i) a[i] = static_cast<double>(i);

  CommLog::instance().reset();
  auto direct = comm::cshift(a, 0, 1);
  const auto direct_events = CommLog::instance().events();
  ASSERT_EQ(direct_events.size(), 1u);
  EXPECT_EQ(direct_events[0].pattern, CommPattern::CShift);

  setenv("DPF_NET", "overlap", 1);
  net::transport().reset();
  CommLog::instance().reset();
  auto algo = comm::cshift(a, 0, 1);
  const auto algo_events = CommLog::instance().events();

  ASSERT_EQ(algo_events.size(), 1u)
      << "message-passing cshift must not log its internal exchange separately";
  EXPECT_EQ(algo_events[0].pattern, CommPattern::CShift);
  EXPECT_EQ(algo_events[0].bytes, direct_events[0].bytes);
  EXPECT_EQ(algo_events[0].offproc_bytes, direct_events[0].offproc_bytes);
  EXPECT_GT(net::transport().stats().bytes, 0u)
      << "the exchange really ran through the transport";
  for (index_t i = 0; i < 64; ++i) EXPECT_EQ(algo[i], direct[i]);
}

// Same rule for a tree collective: message-passing reduce routes its partials
// through the slot allgather, which must stay silent under the Reduction.
TEST_F(CommNestingTest, AlgorithmicReduceLogsReductionOnly) {
  setenv("DPF_NET", "overlap", 1);
  net::transport().reset();
  auto a = make_vector<double>(256);
  for (index_t i = 0; i < 256; ++i) a[i] = 1.0;

  CommLog::instance().reset();
  const double total = comm::reduce_sum(a);
  EXPECT_DOUBLE_EQ(total, 256.0);

  const auto events = CommLog::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pattern, CommPattern::Reduction);
  EXPECT_EQ(CommLog::instance().count(CommPattern::AABC), 0);
}

// Called directly — outside any comm primitive — an engine collective *is*
// the communication operation, so it records itself. This is what makes
// the suppression above meaningful rather than vacuous.
TEST_F(CommNestingTest, DirectEngineCollectiveRecordsItself) {
  std::vector<double> slot(4);
  for (int v = 0; v < 4; ++v) slot[static_cast<std::size_t>(v)] = v + 1.0;

  net::transport().reset();
  CommLog::instance().reset();
  net::allgather_slots(slot);

  const auto events = CommLog::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pattern, CommPattern::AABC);
  EXPECT_EQ(events[0].bytes,
            static_cast<index_t>(net::transport().stats().bytes))
      << "bytes of a direct engine collective are its transport payload";
  for (int v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(slot[static_cast<std::size_t>(v)], v + 1.0);
  }
}

}  // namespace
}  // namespace dpf
