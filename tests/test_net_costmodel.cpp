// Tests for the CM-5-style fat-tree cost model: hop-distance properties,
// calibration, set_params, and prediction sanity. Prediction
// accuracy against wall time is validated by `dpfrun --report comm` and the
// net_microbench target; here we only pin the model's structural
// invariants, which must hold on any host.

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/comm_log.hpp"
#include "core/machine.hpp"
#include "net/cost_model.hpp"
#include "net/net.hpp"

namespace dpf {
namespace {

class NetCostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
    Machine::instance().configure(16);
  }
  void TearDown() override {
    Machine::instance().configure(4);
    // Leave the singleton in a sane calibrated state for whoever runs next.
    net::CostModel::instance().calibrate(/*force=*/true);
  }
};

TEST_F(NetCostModelTest, HopDistanceProperties) {
  auto& cm = net::CostModel::instance();
  for (int v = 0; v < 64; ++v) EXPECT_EQ(cm.hops(v, v), 0);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      EXPECT_EQ(cm.hops(a, b), cm.hops(b, a)) << a << "," << b;
      if (a != b) {
        EXPECT_GE(cm.hops(a, b), 2) << "up and back down";
      }
      EXPECT_EQ(cm.hops(a, b) % 2, 0) << "hops climb and descend in pairs";
    }
  }
  // In a 4-ary tree, VPs 0..3 share their first-level switch; VP 4 is one
  // level further from VP 0 than VP 1 is.
  EXPECT_EQ(cm.hops(0, 1), 2);
  EXPECT_EQ(cm.hops(0, 3), 2);
  EXPECT_GT(cm.hops(0, 4), cm.hops(0, 1));
  EXPECT_GT(cm.hops(0, 16), cm.hops(0, 4));
}

TEST_F(NetCostModelTest, MeanAndPatternHops) {
  auto& cm = net::CostModel::instance();
  EXPECT_GT(cm.mean_pair_hops(16), 0.0);
  EXPECT_GE(cm.mean_pair_hops(16), cm.mean_pair_hops(4))
      << "a bigger machine cannot be closer on average";
  for (CommPattern pat :
       {CommPattern::CShift, CommPattern::Stencil, CommPattern::Reduction,
        CommPattern::Broadcast, CommPattern::Scan, CommPattern::AAPC,
        CommPattern::Gather, CommPattern::Scatter, CommPattern::Butterfly}) {
    EXPECT_GT(cm.pattern_hops(pat, 16), 0.0)
        << "pattern " << static_cast<int>(pat);
  }
  // Nearest-neighbour patterns must sit below the all-pairs mean.
  EXPECT_LE(cm.pattern_hops(CommPattern::CShift, 64),
            cm.mean_pair_hops(64));
}

TEST_F(NetCostModelTest, CalibrationYieldsPositiveParams) {
  auto& cm = net::CostModel::instance();
  cm.calibrate(/*force=*/true);
  EXPECT_TRUE(cm.calibrated());
  const auto& p = cm.params();
  EXPECT_GT(p.alpha, 0.0);
  EXPECT_GT(p.beta, 0.0);
  EXPECT_GT(p.gamma, 0.0);
  EXPECT_GT(p.delta, 0.0);
  EXPECT_GE(p.radix, 2);
  EXPECT_GE(p.contention, 0.0);
}

TEST_F(NetCostModelTest, SetParamsRadixSetsHopDistance) {
  auto& cm = net::CostModel::instance();
  net::CostModel::Params p;
  p.radix = 8;
  cm.set_params(p);
  // Radix 8 flattens the tree: 0..7 now share the first-level switch.
  EXPECT_EQ(cm.hops(0, 7), 2);
  EXPECT_GT(cm.hops(0, 8), cm.hops(0, 7));
}

TEST_F(NetCostModelTest, PredictScalesWithPayloadAndIsPositive) {
  auto& cm = net::CostModel::instance();
  net::CostModel::Params p;
  p.alpha = 1e-6;
  p.beta = 1e-9;
  p.gamma = 1e-9;
  p.delta = 1e-8;
  p.radix = 4;
  p.contention = 0.33;
  cm.set_params(p);

  CommEvent small{CommPattern::Reduction, 1, 0, 1 << 10, 1 << 8, 0};
  CommEvent big{CommPattern::Reduction, 1, 0, 1 << 20, 1 << 18, 0};
  for (bool algo : {false, true}) {
    const double ts = cm.predict(small, 16, 4, algo);
    const double tb = cm.predict(big, 16, 4, algo);
    EXPECT_GT(ts, 0.0) << "algo=" << algo;
    EXPECT_GT(tb, ts) << "more bytes must cost more (algo=" << algo << ")";
  }

  // Off-processor traffic is what the fat tree charges for: same payload
  // with more VP-crossing bytes cannot get cheaper under the direct engine.
  CommEvent local{CommPattern::Gather, 1, 1, 1 << 20, 0, 0};
  CommEvent crossing{CommPattern::Gather, 1, 1, 1 << 20, 1 << 20, 0};
  EXPECT_GE(cm.predict(crossing, 16, 4, false),
            cm.predict(local, 16, 4, false));
}

// Under a message-passing mode an engine event pays alpha once per region
// it runs: three (post, local, consume) for the exchange patterns and two
// (post, then consume with the local copies folded in) for the staged
// combine, split-phase or not.
TEST_F(NetCostModelTest, EnginePatternsPayOneAlphaPerRegion) {
  auto& cm = net::CostModel::instance();
  net::CostModel::Params p;
  p.alpha = 1.0;  // beta = gamma = delta = 0: only the region count is left
  cm.set_params(p);
  for (const bool split : {false, true}) {
    for (CommPattern pat :
         {CommPattern::CShift, CommPattern::EOShift, CommPattern::AAPC,
          CommPattern::Spread, CommPattern::Gather, CommPattern::Get,
          CommPattern::Butterfly}) {
      CommEvent e{pat, 2, 2, 1 << 12, 1 << 10, 0};
      e.split_phase = split;
      EXPECT_EQ(cm.predict(e, 16, 4, /*algorithmic=*/true), 3.0)
          << to_string(pat) << (split ? " split" : "");
    }
    for (CommPattern pat :
         {CommPattern::Scatter, CommPattern::ScatterCombine,
          CommPattern::Send, CommPattern::GatherCombine}) {
      CommEvent e{pat, 2, 2, 1 << 12, 1 << 10, 0};
      e.split_phase = split;
      EXPECT_EQ(cm.predict(e, 16, 4, /*algorithmic=*/true), 2.0)
          << to_string(pat) << (split ? " split" : "");
    }
  }
}

// Under a message-passing mode an engine event pays delta per element that
// crosses VPs and beta per byte it copies locally: a CSHIFT along a serial
// axis, which crosses nothing, is priced as the copy it is, not as a
// transpose of its whole payload.
TEST_F(NetCostModelTest, EngineEventsPayDeltaOnOffProcessorElementsOnly) {
  auto& cm = net::CostModel::instance();
  net::CostModel::Params p;
  p.alpha = 1.0;  // powers of two keep every sum exact
  p.beta = 0.25;
  p.delta = 0.5;
  p.contention = 0.0;
  cm.set_params(p);
  const CommEvent boundary{CommPattern::CShift, 2, 2, 800, 80, 0};
  const CommEvent serial_axis{CommPattern::CShift, 2, 2, 800, 0, 0};
  // 3 alpha + 10 remote elements x delta + 720 local bytes x beta.
  EXPECT_EQ(cm.predict(boundary, 16, 4, /*algorithmic=*/true),
            3 * p.alpha + 10 * p.delta + 720 * p.beta);
  // 3 alpha + 800 local bytes x beta.
  EXPECT_EQ(cm.predict(serial_axis, 16, 4, /*algorithmic=*/true),
            3 * p.alpha + 800 * p.beta);
  // The staged combine runs two regions and the same per-element terms.
  const CommEvent scatter{CommPattern::Scatter, 1, 1, 800, 80, 0};
  EXPECT_EQ(cm.predict(scatter, 16, 4, /*algorithmic=*/true),
            2 * p.alpha + 10 * p.delta + 720 * p.beta);
}

TEST_F(NetCostModelTest, AnnotateFillsHopsAndPrediction) {
  auto& cm = net::CostModel::instance();
  net::CostModel::Params p;
  p.alpha = 1e-6;
  p.beta = 1e-9;
  p.gamma = 1e-9;
  cm.set_params(p);
  CommEvent e{CommPattern::AAPC, 2, 2, 1 << 16, 1 << 14, 0};
  net::annotate(e);
  EXPECT_GT(e.hops, 0);
  EXPECT_GT(e.predicted_seconds, 0.0);
}

}  // namespace
}  // namespace dpf
