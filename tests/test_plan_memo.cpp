// Tests for the engine's exact-key memo (core/memo.hpp) and the memos built
// on it: keys that agree modulo the capacity stay cached together, a cycle
// of as many keys as the capacity rebuilds nothing on its second run,
// eviction takes exactly the least recently used entry, an rp-shaped
// overlapped stencil builds each of its six shift plans once, the shift
// counts agree with a fresh moved_elems sweep and keep one count-memo entry
// per axis shape whatever the element type or rank, a repeated transpose,
// spread or FFT sweeps no count again, owner tables agree with
// owner_id_linear on every element and are shared per ownership structure,
// and `dpfrun --report comm` prints the plan and owner-table counters.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "core/memo.hpp"
#include "la/fft.hpp"
#include "net/exchange_plan.hpp"

namespace dpf {
namespace {

/// Looks `key` up through net::plan_for over a fixed 8-element, 4-VP
/// routing; returns true when the lookup built a plan.
bool plan_lookup_builds(std::uint64_t key) {
  bool built = false;
  const auto plan = net::plan_for(
      key, 8, 4,
      [&built](index_t i) {
        built = true;
        return 7 - i;
      },
      [](index_t i) { return static_cast<int>(i / 2); },
      [](index_t j) { return static_cast<int>(j / 2); });
  EXPECT_EQ(plan->remote_elems +
                static_cast<index_t>(plan->local_dst.size()),
            8);
  return built;
}

TEST(PlanMemo, KeysEqualMod64BothStayCached) {
  // Keys 64 apart agree in every bit a 64-slot `key % 64` table looks at,
  // as rp's x+1 and x-1 plans did; an exact-key memo keeps both.
  const std::uint64_t a = 0x5eed0000ull;
  const std::uint64_t b = a + 64;
  EXPECT_TRUE(plan_lookup_builds(a));
  EXPECT_TRUE(plan_lookup_builds(b));
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(plan_lookup_builds(a)) << "round " << round;
    EXPECT_FALSE(plan_lookup_builds(b)) << "round " << round;
  }
}

TEST(PlanMemo, CycleOfCapacityKeysRunTwiceBuildsEachOnce) {
  static_assert(net::PlanMemo::kCapacity == 64);
  int builds = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t i = 0; i < net::PlanMemo::kCapacity; ++i) {
      builds += plan_lookup_builds(0xc7c1e000ull + 64 * i) ? 1 : 0;
    }
  }
  EXPECT_EQ(builds, 64);
}

TEST(PlanMemo, SixtyFifthKeyEvictsExactlyTheLeastRecentlyUsed) {
  net::PlanMemo memo;
  int builds = 0;
  const auto make = [&builds] {
    ++builds;
    return std::make_shared<const net::ExchangePlan>();
  };
  for (std::uint64_t k = 0; k < 64; ++k) memo.get(k, make);
  // Touching key 0 leaves key 1 the least recently used.
  const auto plan0 = memo.get(0, make);
  memo.get(64, make);
  EXPECT_EQ(builds, 65);
  EXPECT_EQ(memo.stats().evicted, 1u);
  EXPECT_EQ(memo.size(), 64u);
  // Every key but 1 is still cached: looking them all up builds nothing.
  for (std::uint64_t k = 0; k <= 64; ++k) {
    if (k != 1) memo.get(k, make);
  }
  EXPECT_EQ(builds, 65);
  EXPECT_EQ(memo.get(0, make), plan0) << "a hit returns the stored value";
  memo.get(1, make);
  EXPECT_EQ(builds, 66) << "key 1 was the one evicted";
  EXPECT_EQ(memo.stats().built, 66u);
  EXPECT_EQ(memo.stats().reused, 66u);
  EXPECT_EQ(memo.stats().evicted, 2u);
}

class PlanMemoMachineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vps_ = Machine::instance().vps();
    unsetenv("DPF_NET");
  }
  void TearDown() override {
    unsetenv("DPF_NET");
    Machine::instance().configure(vps_);
  }
  int vps_ = 1;
};

TEST_F(PlanMemoMachineTest, RpShapedShiftBundleBuildsSixPlans) {
  Machine::instance().configure(16);
  Array3<double> p{Shape<3>(16, 16, 16)};
  for (index_t i = 0; i < p.size(); ++i) p[i] = static_cast<double>(i);
  std::array<Array3<double>, 6> f{
      Array3<double>{p.shape()}, Array3<double>{p.shape()},
      Array3<double>{p.shape()}, Array3<double>{p.shape()},
      Array3<double>{p.shape()}, Array3<double>{p.shape()}};

  setenv("DPF_NET", "overlap", 1);
  net::plan_memo().clear();
  const MemoStats before = net::plan_memo().stats();
  constexpr int kIters = 10;
  for (int it = 0; it < kIters; ++it) {
    comm::ShiftBundle<double> bundle;
    for (std::size_t ax = 0; ax < 3; ++ax) {
      bundle.add_cshift(f[2 * ax], p, ax, +1);
      bundle.add_cshift(f[2 * ax + 1], p, ax, -1);
    }
    bundle.start();
    bundle.finish();
  }
  const MemoStats after = net::plan_memo().stats();
  EXPECT_EQ(after.built - before.built, 6u);
  EXPECT_EQ(after.reused - before.reused, 6u * (kIters - 1));
  EXPECT_EQ(after.evicted - before.evicted, 0u);

  unsetenv("DPF_NET");
  for (std::size_t ax = 0; ax < 3; ++ax) {
    for (const index_t s : {+1, -1}) {
      const auto ref = comm::cshift(p, ax, s);
      const auto& got = f[2 * ax + (s > 0 ? 0 : 1)];
      for (index_t i = 0; i < p.size(); ++i) {
        ASSERT_EQ(got[i], ref[i]) << "axis " << ax << " shift " << s;
      }
    }
  }
}

TEST_F(PlanMemoMachineTest, ShiftCountMatchesAFreshScan) {
  Machine::instance().configure(4);
  auto a = make_vector<double>(10);
  const index_t n = a.extent(0);
  const int procs = a.layout().procs_on_axis(0, 4);
  const index_t slot = a.bytes() / n;
  // Circular and end-off shifts share (extent, shift) keys but not their
  // counts; two rounds make the second one all memo hits.
  const auto owner = [&](index_t j) {
    return owner_of(n, procs, j, a.layout().dist());
  };
  for (int round = 0; round < 2; ++round) {
    for (index_t s = -12; s <= 12; ++s) {
      const index_t sh = ((s % n) + n) % n;
      const index_t circular = comm::detail::moved_elems(
          n, [&](index_t j) { return (j + sh) % n; }, owner, owner);
      const index_t end_off = comm::detail::moved_elems(
          n,
          [&](index_t j) {
            const index_t jj = j + s;
            return (jj >= 0 && jj < n) ? jj : j;
          },
          owner, owner);
      EXPECT_EQ(comm::detail::shift_offproc_bytes(a, 0, sh, true),
                circular * slot)
          << "cshift " << s;
      EXPECT_EQ(comm::detail::shift_offproc_bytes(a, 0, s, false),
                end_off * slot)
          << "eoshift " << s;
    }
  }
}

TEST_F(PlanMemoMachineTest, ShiftCountSharedAcrossElementTypesAndRanks) {
  Machine::instance().configure(4);
  comm::detail::count_memo().clear();
  const MemoStats before = comm::detail::count_memo().stats();
  // One axis shape, extent 10 over 4 processors shifted by 3, under three
  // element types and ranks: one key.
  const auto v = make_vector<double>(10);
  const Array1<complexd> c{Shape<1>(10)};
  const Array2<double> m{Shape<2>(10, 6)};
  ASSERT_EQ(m.layout().procs_on_axis(0, 4), 4);
  const index_t dv = comm::detail::shift_offproc_bytes(v, 0, 3, true);
  const index_t dc = comm::detail::shift_offproc_bytes(c, 0, 3, true);
  const index_t dm = comm::detail::shift_offproc_bytes(m, 0, 3, true);
  const MemoStats after = comm::detail::count_memo().stats();
  EXPECT_EQ(after.built - before.built, 1u);
  EXPECT_EQ(after.reused - before.reused, 2u);
  EXPECT_GT(dv, 0);
  EXPECT_EQ(dc, 2 * dv) << "only the bytes per axis position differ";
  EXPECT_EQ(dm, 6 * dv) << "only the bytes per axis position differ";
}

TEST_F(PlanMemoMachineTest, FortyShiftKeysRunTwiceBuildEachOnce) {
  static_assert(comm::detail::CountMemo::kCapacity == 64);
  Machine::instance().configure(4);
  comm::detail::count_memo().clear();
  const MemoStats before = comm::detail::count_memo().stats();
  const auto v = make_vector<double>(64);
  for (int round = 0; round < 2; ++round) {
    for (index_t s = 1; s <= 40; ++s) {
      (void)comm::detail::shift_offproc_bytes(v, 0, s, true);
    }
  }
  const MemoStats after = comm::detail::count_memo().stats();
  EXPECT_EQ(after.built - before.built, 40u);
  EXPECT_EQ(after.reused - before.reused, 40u);
  EXPECT_EQ(after.evicted - before.evicted, 0u);
}

TEST_F(PlanMemoMachineTest, SecondTransposeAndSpreadBuildNoCount) {
  Machine::instance().configure(16);
  Array2<double> a{Shape<2>(24, 40)};
  Array2<double> at{Shape<2>(40, 24)};
  auto v = make_vector<double>(24);
  Array2<double> sp{Shape<2>(40, 24)};
  for (index_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
  for (index_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  for (const char* mode : {"direct", "overlap"}) {
    setenv("DPF_NET", mode, 1);
    CommLog::instance().reset();
    comm::transpose_into(at, a);
    comm::spread_into(sp, v, 0);
    const MemoStats before = comm::detail::count_memo().stats();
    comm::transpose_into(at, a);
    comm::spread_into(sp, v, 0);
    const MemoStats after = comm::detail::count_memo().stats();
    EXPECT_EQ(after.built - before.built, 0u) << mode;
    EXPECT_EQ(after.reused - before.reused, 2u) << mode;
    // A memo hit returns the first call's count.
    const auto events = CommLog::instance().events();
    ASSERT_EQ(events.size(), 4u) << mode;
    EXPECT_GT(events[0].offproc_bytes, 0) << mode;
    EXPECT_GT(events[1].offproc_bytes, 0) << mode;
    EXPECT_EQ(events[2].offproc_bytes, events[0].offproc_bytes) << mode;
    EXPECT_EQ(events[3].offproc_bytes, events[1].offproc_bytes) << mode;
  }
}

TEST_F(PlanMemoMachineTest, SecondFftOfOneLengthBuildsNoCount) {
  Machine::instance().configure(16);
  Array1<complexd> x{Shape<1>(256)};
  for (index_t i = 0; i < x.size(); ++i) {
    x[i] = complexd(static_cast<double>(i % 7), 0.0);
  }
  la::fft_1d(x, la::FftDirection::Forward);
  const MemoStats before = comm::detail::count_memo().stats();
  la::fft_1d(x, la::FftDirection::Inverse);
  const MemoStats after = comm::detail::count_memo().stats();
  // Eight stages of a 256-point transform, one count each, all memo hits.
  EXPECT_EQ(after.built - before.built, 0u);
  EXPECT_EQ(after.reused - before.reused, 8u);
}

/// Expects owner_table(a) to hold owner_id_linear(a, i) for every i of `a`
/// at the current VP count.
template <typename T, std::size_t R>
void expect_table_matches_decode(const Array<T, R>& a,
                                 const std::string& what) {
  const auto table = comm::detail::owner_table(a);
  ASSERT_EQ(static_cast<index_t>(table->size()), a.size()) << what;
  for (index_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ((*table)[static_cast<std::size_t>(i)],
              comm::detail::owner_id_linear(a, i))
        << what << " element " << i;
  }
}

TEST_F(PlanMemoMachineTest, OwnerTableMatchesDecodeOnEveryElement) {
  for (const int p : {1, 3, 8, 16}) {
    Machine::instance().configure(p);
    expect_table_matches_decode(make_vector<double>(97),
                                "1-D block p=" + std::to_string(p));
  }
  for (const int p : {3, 8}) {
    Machine::instance().configure(p);
    const Array1<double> cyclic(Shape<1>(97),
                                Layout<1>{}.with_dist(Dist::Cyclic));
    expect_table_matches_decode(cyclic, "cyclic p=" + std::to_string(p));
  }
  Machine::instance().configure(8);
  const Array2<double> serial_lead(
      Shape<2>(5, 37), Layout<2>(AxisKind::Serial, AxisKind::Parallel));
  expect_table_matches_decode(serial_lead, "leading serial axis");
  expect_table_matches_decode(Array3<double>{Shape<3>(11, 7, 9)}, "3-D fold");
  Machine::instance().configure(4);
  const Array2<double> grid(Shape<2>(12, 10), Layout<2>{}.with_grid({2, 2}));
  expect_table_matches_decode(grid, "2x2 grid");
  Machine::instance().configure(16);
  expect_table_matches_decode(Array2<double>{Shape<2>(5, 13)},
                              "distributed extent 5 < p=16");
}

TEST_F(PlanMemoMachineTest, OwnerTableSharedAcrossElementTypesPerVpCount) {
  Machine::instance().configure(8);
  comm::detail::owner_table_memo().clear();
  const MemoStats before = comm::detail::owner_table_memo().stats();
  const auto of_doubles = comm::detail::owner_table(make_vector<double>(97));
  const auto of_indices = comm::detail::owner_table(make_vector<index_t>(97));
  EXPECT_EQ(of_doubles, of_indices) << "one structure, one table";
  MemoStats after = comm::detail::owner_table_memo().stats();
  EXPECT_EQ(after.built - before.built, 1u);
  EXPECT_EQ(after.reused - before.reused, 1u);

  Machine::instance().configure(3);
  const auto at_three = comm::detail::owner_table(make_vector<double>(97));
  after = comm::detail::owner_table_memo().stats();
  EXPECT_EQ(after.built - before.built, 2u) << "a new VP count, a new table";
  EXPECT_NE(at_three, of_doubles);
  expect_table_matches_decode(make_vector<double>(97), "after configure(3)");
}

TEST(PlanMemoCli, ReportCommPrintsPlanCountersOfTheRun) {
  const char* dpfrun = std::getenv("DPF_DPFRUN_BIN");
  if (dpfrun == nullptr || *dpfrun == '\0') {
    GTEST_SKIP() << "DPF_DPFRUN_BIN not set (run under ctest)";
  }
  const std::string cmd = std::string("DPF_NET=overlap '") + dpfrun +
                          "' run rp --vps=16 --report comm 2>&1";
  FILE* out = ::popen(cmd.c_str(), "r");
  ASSERT_NE(out, nullptr);
  std::string plan_line;
  char line[512];
  while (std::fgets(line, sizeof line, out) != nullptr) {
    if (std::string(line).find("exchange plans") != std::string::npos) {
      plan_line = line;
    }
  }
  ASSERT_EQ(::pclose(out), 0) << cmd;
  ASSERT_FALSE(plan_line.empty()) << "no plan line in the comm report";
  unsigned long long built = 0, reused = 0, evicted = 0;
  ASSERT_EQ(std::sscanf(plan_line.c_str(),
                        " exchange plans : %llu built, %llu reused, %llu "
                        "evicted",
                        &built, &reused, &evicted),
            3)
      << plan_line;
  // rp's six face shifts build once each and are reused by every later
  // stencil apply; nothing is evicted.
  EXPECT_EQ(built, 6u) << plan_line;
  EXPECT_GT(reused, 0u) << plan_line;
  EXPECT_EQ(evicted, 0u) << plan_line;
}

TEST(PlanMemoCli, ReportCommPrintsOwnerTableCountersOfTheRun) {
  const char* dpfrun = std::getenv("DPF_DPFRUN_BIN");
  if (dpfrun == nullptr || *dpfrun == '\0') {
    GTEST_SKIP() << "DPF_DPFRUN_BIN not set (run under ctest)";
  }
  const std::string cmd =
      std::string("'") + dpfrun +
      "' run pic-gather-scatter --vps=16 --report comm 2>&1";
  FILE* out = ::popen(cmd.c_str(), "r");
  ASSERT_NE(out, nullptr);
  std::string table_line;
  char line[512];
  while (std::fgets(line, sizeof line, out) != nullptr) {
    if (std::string(line).find("owner tables") != std::string::npos) {
      table_line = line;
    }
  }
  ASSERT_EQ(::pclose(out), 0) << cmd;
  ASSERT_FALSE(table_line.empty()) << "no owner-table line in the report";
  unsigned long long built = 0, reused = 0, evicted = 0;
  ASSERT_EQ(std::sscanf(table_line.c_str(),
                        " owner tables : %llu built, %llu reused, %llu "
                        "evicted",
                        &built, &reused, &evicted),
            3)
      << table_line;
  // One table for the 2,048-particle arrays and one for the 8^3 grid, each
  // reused by every later gather and scatter of the run.
  EXPECT_EQ(built, 2u) << table_line;
  EXPECT_GT(reused, 0u) << table_line;
  EXPECT_EQ(evicted, 0u) << table_line;
}

}  // namespace
}  // namespace dpf
