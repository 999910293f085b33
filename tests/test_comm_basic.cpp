// Unit tests for the collective-communication primitives: correctness of
// the data motion plus the instrumentation invariants the suite relies on.

#include <gtest/gtest.h>

#include "comm/comm.hpp"
#include "core/ops.hpp"
#include "core/rng.hpp"
#include "suite/common.hpp"

namespace dpf {
namespace {

class CommTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CommLog::instance().reset();
    flops::reset();
  }
};

TEST_F(CommTest, CShift1DMatchesFortranSemantics) {
  auto v = make_vector<double>(5);
  for (index_t i = 0; i < 5; ++i) v[i] = static_cast<double>(i);
  auto r = comm::cshift(v, 0, 2);
  // CSHIFT(v, shift=2): r(i) = v(i+2 mod 5)
  EXPECT_EQ(r[0], 2);
  EXPECT_EQ(r[1], 3);
  EXPECT_EQ(r[2], 4);
  EXPECT_EQ(r[3], 0);
  EXPECT_EQ(r[4], 1);
  auto l = comm::cshift(v, 0, -1);
  EXPECT_EQ(l[0], 4);
  EXPECT_EQ(l[1], 0);
}

TEST_F(CommTest, CShift2DAlongEachAxis) {
  auto a = make_matrix<double>(3, 4);
  for (index_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
  auto r0 = comm::cshift(a, 0, 1);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_EQ(r0(i, j), a((i + 1) % 3, j));
    }
  }
  auto r1 = comm::cshift(a, 1, -1);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_EQ(r1(i, j), a(i, (j + 3) % 4));
    }
  }
}

TEST_F(CommTest, CShiftRoundTripIsIdentity) {
  auto v = make_vector<double>(17);
  for (index_t i = 0; i < 17; ++i) v[i] = std::sin(static_cast<double>(i));
  auto fwd = comm::cshift(v, 0, 5);
  auto back = comm::cshift(fwd, 0, -5);
  for (index_t i = 0; i < 17; ++i) EXPECT_EQ(back[i], v[i]);
}

TEST_F(CommTest, CShiftRecordsEventWithOffprocBytesOnDistributedAxis) {
  auto v = make_vector<double>(16);  // distributed axis 0
  CommScope scope;
  auto r = comm::cshift(v, 0, 1);
  (void)r;
  const auto events = scope.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pattern, CommPattern::CShift);
  EXPECT_EQ(events[0].bytes, 16 * 8);
  if (Machine::instance().vps() > 1) {
    // Exactly one boundary slot crosses per VP: P slots * 8 bytes.
    EXPECT_EQ(events[0].offproc_bytes, Machine::instance().vps() * 8);
  }
}

TEST_F(CommTest, CShiftAlongSerialAxisIsLocal) {
  Array2<double> a(Shape<2>(4, 8),
                   Layout<2>(AxisKind::Parallel, AxisKind::Serial));
  CommScope scope;
  auto r = comm::cshift(a, 1, 3);  // serial axis: local memory move
  (void)r;
  const auto events = scope.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].offproc_bytes, 0);
}

TEST_F(CommTest, EOShiftFillsBoundary) {
  auto v = make_vector<double>(4);
  for (index_t i = 0; i < 4; ++i) v[i] = static_cast<double>(i + 1);
  auto r = comm::eoshift(v, 0, 1, -9.0);
  EXPECT_EQ(r[0], 2);
  EXPECT_EQ(r[1], 3);
  EXPECT_EQ(r[2], 4);
  EXPECT_EQ(r[3], -9);
  auto l = comm::eoshift(v, 0, -2, 0.0);
  EXPECT_EQ(l[0], 0);
  EXPECT_EQ(l[1], 0);
  EXPECT_EQ(l[2], 1);
  EXPECT_EQ(l[3], 2);
}

TEST_F(CommTest, ReduceSumCountsNMinusOneFlops) {
  auto v = make_vector<double>(100);
  fill_par(v, 1.5);
  flops::reset();
  const double s = comm::reduce_sum(v);
  EXPECT_DOUBLE_EQ(s, 150.0);
  EXPECT_EQ(flops::total(), 99);
  EXPECT_EQ(CommLog::instance().count(CommPattern::Reduction), 1);
}

TEST_F(CommTest, DotCountsMultipliesPlusReduction) {
  auto a = make_vector<double>(50);
  auto b = make_vector<double>(50);
  fill_par(a, 2.0);
  fill_par(b, 3.0);
  flops::reset();
  const double s = comm::dot(a, b);
  EXPECT_DOUBLE_EQ(s, 300.0);
  EXPECT_EQ(flops::total(), 50 + 49);
}

TEST_F(CommTest, ReduceMinMaxAndMaxloc) {
  auto v = make_vector<double>(10);
  for (index_t i = 0; i < 10; ++i) v[i] = static_cast<double>((i * 7) % 10);
  EXPECT_EQ(comm::reduce_max(v), 9.0);
  EXPECT_EQ(comm::reduce_min(v), 0.0);
  EXPECT_EQ(comm::maxloc(v), 7);  // 7*7%10 = 9
}

TEST_F(CommTest, AxisReduction) {
  auto a = make_matrix<double>(3, 4);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 4; ++j) a(i, j) = static_cast<double>(i + 1);
  }
  flops::reset();
  auto rows = comm::reduce_axis_sum(a, 1);  // sum over columns
  ASSERT_EQ(rows.size(), 3);
  EXPECT_DOUBLE_EQ(rows[0], 4.0);
  EXPECT_DOUBLE_EQ(rows[1], 8.0);
  EXPECT_DOUBLE_EQ(rows[2], 12.0);
  EXPECT_EQ(flops::total(), 3 * 3);  // 3 rows x (4-1) adds
  auto cols = comm::reduce_axis_sum(a, 0);
  ASSERT_EQ(cols.size(), 4);
  EXPECT_DOUBLE_EQ(cols[0], 6.0);
}

TEST_F(CommTest, SpreadReplicates) {
  auto v = make_vector<double>(3);
  v[0] = 1;
  v[1] = 2;
  v[2] = 3;
  auto m0 = comm::spread(v, 0, 4);  // 4 copies along new axis 0 -> (4,3)
  EXPECT_EQ(m0.extent(0), 4);
  EXPECT_EQ(m0.extent(1), 3);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 3; ++j) EXPECT_EQ(m0(i, j), v[j]);
  }
  auto m1 = comm::spread(v, 1, 5);  // -> (3,5)
  EXPECT_EQ(m1.extent(0), 3);
  EXPECT_EQ(m1.extent(1), 5);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 5; ++j) EXPECT_EQ(m1(i, j), v[i]);
  }
}

TEST_F(CommTest, GatherScatterRoundTrip) {
  const index_t n = 64;
  auto src = make_vector<double>(n);
  auto dst = make_vector<double>(n);
  auto back = make_vector<double>(n);
  Array1<index_t> perm{Shape<1>(n)};
  for (index_t i = 0; i < n; ++i) {
    src[i] = static_cast<double>(i * i);
    perm[i] = (i * 13) % n;  // a permutation since gcd(13, 64) = 1
  }
  comm::gather_into(dst, src, perm);   // dst[i] = src[perm[i]]
  comm::scatter_into(back, dst, perm);  // back[perm[i]] = dst[i] = src[perm[i]]
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(back[i], src[i]);
  EXPECT_EQ(CommLog::instance().count(CommPattern::Gather), 1);
  EXPECT_EQ(CommLog::instance().count(CommPattern::Scatter), 1);
}

TEST_F(CommTest, ScatterAddCombines) {
  auto src = make_vector<double>(6);
  auto dst = make_vector<double>(2);
  Array1<index_t> map{Shape<1>(6)};
  for (index_t i = 0; i < 6; ++i) {
    src[i] = 1.0;
    map[i] = i % 2;
  }
  flops::reset();
  comm::scatter_add_into(dst, src, map);
  EXPECT_DOUBLE_EQ(dst[0], 3.0);
  EXPECT_DOUBLE_EQ(dst[1], 3.0);
  EXPECT_EQ(flops::total(), 6);
  EXPECT_EQ(CommLog::instance().count(CommPattern::ScatterCombine), 1);
}

// The scatter benchmark's former validation, kept as the oracle: for each
// mismatched writer i, rescan every later writer to the same target.
index_t scatter_misses_nested(const Array1<double>& dst,
                              const Array1<double>& src,
                              const Array1<index_t>& map) {
  const index_t n = map.size();
  index_t bad = 0;
  for (index_t i = 0; i < n; ++i) {
    if (dst[map[i]] != src[i]) {
      bool found = false;
      for (index_t j = i + 1; j < n && !found; ++j) {
        if (map[j] == map[i] && dst[map[i]] == src[j]) found = true;
      }
      if (!found) bad += 1;
    }
  }
  return bad;
}

TEST_F(CommTest, ScatterMissCountMatchesNestedLoopOracle) {
  const index_t n = 4096;
  auto src = make_vector<double>(n);
  auto dst = make_vector<double>(n);
  for (index_t i = 0; i < n; ++i) src[i] = static_cast<double>(2 * i);
  Array1<index_t> map{Shape<1>(n)};

  // A random map: about a quarter of the targets take several writers.
  const Rng rng(0x51c2);
  for (index_t i = 0; i < n; ++i) {
    map[i] = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(i), n));
  }
  comm::scatter_into(dst, src, map);
  EXPECT_EQ(suite::scatter_misses(dst, src, map), 0);
  EXPECT_EQ(scatter_misses_nested(dst, src, map), 0);

  // A deliberately corrupted dst: every eleventh target holds its first
  // writer's value, not the last one's, and every seventh no src value.
  for (index_t i = n; i-- > 0;) {
    if (map[i] % 11 == 0) dst[map[i]] = src[i];
  }
  for (index_t i = 0; i < n; ++i) {
    if (map[i] % 7 == 0) dst[map[i]] = -1.0;
  }
  const index_t bad = scatter_misses_nested(dst, src, map);
  EXPECT_GT(bad, 0);
  EXPECT_EQ(suite::scatter_misses(dst, src, map), bad);

  // Every element hits one target, which holds a middle writer's value:
  // the writers after it miss, the ones before it do not.
  map.fill(0);
  dst[0] = src[n / 2];
  EXPECT_EQ(scatter_misses_nested(dst, src, map), n - 1 - n / 2);
  EXPECT_EQ(suite::scatter_misses(dst, src, map), n - 1 - n / 2);
  comm::scatter_into(dst, src, map);
  EXPECT_EQ(suite::scatter_misses(dst, src, map), 0);
  EXPECT_EQ(scatter_misses_nested(dst, src, map), 0);
}

TEST_F(CommTest, ScanSumInclusiveExclusive) {
  auto v = make_vector<double>(8);
  for (index_t i = 0; i < 8; ++i) v[i] = 1.0;
  auto inc = comm::scan_sum(v);
  for (index_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(inc[i], i + 1.0);
  auto exc = comm::scan_sum(v, /*exclusive=*/true);
  for (index_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(exc[i], static_cast<double>(i));
}

TEST_F(CommTest, SegmentedScan) {
  auto v = make_vector<double>(6);
  Array1<std::uint8_t> seg{Shape<1>(6)};
  for (index_t i = 0; i < 6; ++i) {
    v[i] = static_cast<double>(i + 1);
    seg[i] = (i == 0 || i == 3) ? 1 : 0;
  }
  auto out = make_vector<double>(6);
  comm::segmented_scan_sum_into(out, v, seg);
  EXPECT_DOUBLE_EQ(out[0], 1);
  EXPECT_DOUBLE_EQ(out[1], 3);
  EXPECT_DOUBLE_EQ(out[2], 6);
  EXPECT_DOUBLE_EQ(out[3], 4);
  EXPECT_DOUBLE_EQ(out[4], 9);
  EXPECT_DOUBLE_EQ(out[5], 15);

  auto cp = make_vector<double>(6);
  comm::segmented_copy_scan_into(cp, v, seg);
  EXPECT_DOUBLE_EQ(cp[2], 1);
  EXPECT_DOUBLE_EQ(cp[5], 4);
}

TEST_F(CommTest, TransposeCorrectAndRecordsAAPC) {
  auto a = make_matrix<double>(5, 3);
  for (index_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
  auto t = comm::transpose(a);
  EXPECT_EQ(t.extent(0), 3);
  EXPECT_EQ(t.extent(1), 5);
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 3; ++j) EXPECT_EQ(t(j, i), a(i, j));
  }
  EXPECT_EQ(CommLog::instance().count(CommPattern::AAPC), 1);
}

TEST_F(CommTest, SortPermutationIsStableAscending) {
  auto keys = make_vector<double>(20);
  const Rng rng(7);
  for (index_t i = 0; i < 20; ++i) {
    keys[i] = std::floor(rng.uniform(static_cast<std::uint64_t>(i)) * 5.0);
  }
  auto perm = comm::sort_permutation(keys);
  for (index_t i = 1; i < 20; ++i) {
    EXPECT_LE(keys[perm[i - 1]], keys[perm[i]]);
    if (keys[perm[i - 1]] == keys[perm[i]]) {
      EXPECT_LT(perm[i - 1], perm[i]);  // stability
    }
  }
  EXPECT_EQ(CommLog::instance().count(CommPattern::Sort), 1);
}

TEST_F(CommTest, SortValues) {
  auto v = make_vector<double>(33);
  const Rng rng(11);
  for (index_t i = 0; i < 33; ++i) {
    v[i] = rng.uniform(static_cast<std::uint64_t>(i));
  }
  comm::sort_values(v);
  for (index_t i = 1; i < 33; ++i) EXPECT_LE(v[i - 1], v[i]);
}

TEST_F(CommTest, BroadcastFill) {
  auto a = make_matrix<double>(4, 4);
  comm::broadcast_fill(a, 2.5);
  for (index_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], 2.5);
  EXPECT_EQ(CommLog::instance().count(CommPattern::Broadcast), 1);
}

TEST_F(CommTest, StencilInteriorAppliesAndRecordsPoints) {
  auto src = make_matrix<double>(6, 6);
  auto dst = make_matrix<double>(6, 6);
  fill_par(src, 1.0);
  flops::reset();
  comm::stencil_interior(dst, src, /*points=*/5, /*halo=*/1, /*flops=*/4,
                         [&](index_t lin) {
                           const index_t n = 6;
                           return src[lin - n] + src[lin + n] + src[lin - 1] +
                                  src[lin + 1] - 4.0 * src[lin] + src[lin];
                         });
  // Interior is 4x4.
  EXPECT_EQ(flops::total(), 4 * 16);
  const auto events = CommLog::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pattern, CommPattern::Stencil);
  EXPECT_EQ(events[0].detail, 5);
  for (index_t i = 1; i < 5; ++i) {
    for (index_t j = 1; j < 5; ++j) EXPECT_DOUBLE_EQ(dst(i, j), 1.0);
  }
  EXPECT_DOUBLE_EQ(dst(0, 0), 0.0);  // boundary untouched
}

}  // namespace
}  // namespace dpf
