// Regression tests for the one-event-per-primitive accounting rule: when a
// comm primitive is realized through the engine collectives (the
// DPF_NET=overlap paths route through net::exchange_planned and the slot
// allgather), the payload is attributed to the pattern the program asked
// for exactly once. The engine collectives record nothing of their own, so
// the internal exchange traffic shows in the transport counters only.

#include <gtest/gtest.h>

#include <cstdlib>

#include "comm/comm.hpp"
#include "core/machine.hpp"
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

}  // namespace
}  // namespace dpf
