// Bit-identity of DPF_NET=overlap against the direct formulations.
//
// Every collective is run twice on identical inputs — once with DPF_NET
// unset (direct shared-memory data motion) and once with
// DPF_NET=overlap (message passing over the transport mailboxes) —
// under a forced 4-worker pool, across pow2 and non-pow2 VP counts so both
// the recursive-doubling and the ring allgather paths are exercised. The
// comparison is exact bitwise equality (EXPECT_EQ on doubles), never a
// tolerance: the message-passing path must reproduce the direct path to the
// last ulp.
//
// The registry half runs whole benchmarks (the four collective benchmarks
// plus application kernels) and compares their `checks` maps exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "core/registry.hpp"
#include "net/net.hpp"
#include "suite/register_all.hpp"

namespace dpf {
namespace {

const std::vector<int> kVpCounts = {3, 4, 5, 8, 16};

class NetEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
    CommLog::instance().reset();
  }
  void TearDown() override {
    unsetenv("DPF_NET");
    Machine::instance().configure(4);
  }

  // Runs `op` once per mode on `p` VPs and hands both result vectors to the
  // caller; the op must be a pure function of its (re-created) inputs.
  static void run_both(
      int p, const std::function<std::vector<double>()>& op,
      std::vector<double>& direct, std::vector<double>& overlap) {
    Machine::instance().configure(p);
    unsetenv("DPF_NET");
    direct = op();
    setenv("DPF_NET", "overlap", 1);
    overlap = op();
    unsetenv("DPF_NET");
  }

  static void expect_bitwise_equal(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   const std::string& what, int p) {
    ASSERT_EQ(a.size(), b.size()) << what << " at p=" << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << what << " diverged at p=" << p
                            << " index " << i;
    }
  }
};

// Input sized to split unevenly across every tested VP count.
std::vector<double> irregular_input(index_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        std::sin(static_cast<double>(i) * 0.7) * 1e3 +
        std::cos(static_cast<double>(i * i) * 0.01);
  }
  return v;
}

TEST_F(NetEquivalenceTest, ReductionsBitIdentical) {
  const index_t n = 1003;
  const auto in = irregular_input(n);
  for (int p : kVpCounts) {
    std::vector<double> d, a;
    run_both(
        p,
        [&] {
          auto x = make_vector<double>(n);
          for (index_t i = 0; i < n; ++i) x[i] = in[std::size_t(i)];
          auto y = make_vector<double>(n);
          for (index_t i = 0; i < n; ++i) y[i] = in[std::size_t(n - 1 - i)];
          auto mask = make_vector<std::uint8_t>(n);
          for (index_t i = 0; i < n; ++i) mask[i] = x[i] > 0.0 ? 1 : 0;
          return std::vector<double>{
              comm::reduce_sum(x),    comm::dot(x, y),
              comm::reduce_max(x),    comm::reduce_min(x),
              comm::reduce_absmax(x), comm::reduce_product(x),
              static_cast<double>(comm::count_true(mask))};
        },
        d, a);
    expect_bitwise_equal(d, a, "reductions", p);
  }
}

TEST_F(NetEquivalenceTest, ScanBitIdentical) {
  const index_t n = 997;
  const auto in = irregular_input(n);
  for (int p : kVpCounts) {
    std::vector<double> d, a;
    run_both(
        p,
        [&] {
          auto x = make_vector<double>(n);
          for (index_t i = 0; i < n; ++i) x[i] = in[std::size_t(i)];
          auto inc = comm::scan_sum(x, /*exclusive=*/false);
          auto exc = comm::scan_sum(x, /*exclusive=*/true);
          std::vector<double> out;
          out.reserve(std::size_t(2 * n));
          for (index_t i = 0; i < n; ++i) out.push_back(inc[i]);
          for (index_t i = 0; i < n; ++i) out.push_back(exc[i]);
          return out;
        },
        d, a);
    expect_bitwise_equal(d, a, "scan_sum", p);
  }
}

TEST_F(NetEquivalenceTest, ShiftsBitIdentical) {
  const index_t rows = 37, cols = 29;
  const auto in = irregular_input(rows * cols);
  for (int p : kVpCounts) {
    std::vector<double> d, a;
    run_both(
        p,
        [&] {
          auto m = make_matrix<double>(rows, cols);
          for (index_t i = 0; i < m.size(); ++i) m[i] = in[std::size_t(i)];
          auto c0 = comm::cshift(m, 0, 5);
          auto c1 = comm::cshift(m, 1, -3);
          auto e0 = comm::eoshift(m, 0, 2, -1.0);
          auto e1 = comm::eoshift(m, 1, -4, 9.5);
          std::vector<double> out;
          for (index_t i = 0; i < m.size(); ++i) {
            out.push_back(c0[i]);
            out.push_back(c1[i]);
            out.push_back(e0[i]);
            out.push_back(e1[i]);
          }
          return out;
        },
        d, a);
    expect_bitwise_equal(d, a, "cshift/eoshift", p);
  }
}

TEST_F(NetEquivalenceTest, BroadcastAndSpreadBitIdentical) {
  const index_t n = 61;
  const auto in = irregular_input(n);
  for (int p : kVpCounts) {
    std::vector<double> d, a;
    run_both(
        p,
        [&] {
          auto dst = make_vector<double>(501);
          comm::broadcast_fill(dst, 3.25);
          auto line = make_vector<double>(n);
          for (index_t i = 0; i < n; ++i) line[i] = in[std::size_t(i)];
          auto sp = comm::spread(line, /*axis=*/0, /*copies=*/13);
          std::vector<double> out;
          for (index_t i = 0; i < dst.size(); ++i) out.push_back(dst[i]);
          for (index_t i = 0; i < sp.size(); ++i) out.push_back(sp[i]);
          return out;
        },
        d, a);
    expect_bitwise_equal(d, a, "broadcast/spread", p);
  }
}

TEST_F(NetEquivalenceTest, TransposeAndButterflyBitIdentical) {
  const index_t rows = 48, cols = 21;
  const auto in = irregular_input(rows * cols);
  for (int p : kVpCounts) {
    std::vector<double> d, a;
    run_both(
        p,
        [&] {
          auto m = make_matrix<double>(rows, cols);
          for (index_t i = 0; i < m.size(); ++i) m[i] = in[std::size_t(i)];
          auto t = comm::transpose(m);
          auto v = make_vector<double>(256);
          for (index_t i = 0; i < 256; ++i) v[i] = in[std::size_t(i)];
          auto b = comm::butterfly(v, 16);
          comm::butterfly_into(v, v, 4);  // aliased in-place path
          std::vector<double> out;
          for (index_t i = 0; i < t.size(); ++i) out.push_back(t[i]);
          for (index_t i = 0; i < b.size(); ++i) out.push_back(b[i]);
          for (index_t i = 0; i < v.size(); ++i) out.push_back(v[i]);
          return out;
        },
        d, a);
    expect_bitwise_equal(d, a, "transpose/butterfly", p);
  }
}

TEST_F(NetEquivalenceTest, GatherScatterBitIdentical) {
  const index_t n = 771;
  const auto in = irregular_input(n);
  for (int p : kVpCounts) {
    std::vector<double> d, a;
    run_both(
        p,
        [&] {
          auto src = make_vector<double>(n);
          for (index_t i = 0; i < n; ++i) src[i] = in[std::size_t(i)];
          auto map = make_vector<index_t>(n);
          // Deliberately collision-heavy, order-sensitive map.
          for (index_t i = 0; i < n; ++i) map[i] = (i * 37 + 11) % (n / 3);
          auto g = make_vector<double>(n);
          comm::gather_into(g, src, map);
          auto ga = make_vector<double>(n);
          comm::broadcast_fill(ga, 0.5);
          comm::gather_add_into(ga, src, map);
          auto sc = make_vector<double>(n);
          comm::broadcast_fill(sc, -2.0);
          comm::scatter_into(sc, src, map);
          auto sa = make_vector<double>(n);
          comm::broadcast_fill(sa, 1.0);
          comm::scatter_add_into(sa, src, map);
          std::vector<double> out;
          for (index_t i = 0; i < n; ++i) {
            out.push_back(g[i]);
            out.push_back(ga[i]);
            out.push_back(sc[i]);
            out.push_back(sa[i]);
          }
          return out;
        },
        d, a);
    expect_bitwise_equal(d, a, "gather/scatter", p);
  }
}

// --- whole-benchmark equivalence through the registry -------------------

class NetRegistryEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { register_all_benchmarks(); }
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
  }
  void TearDown() override {
    unsetenv("DPF_NET");
    Machine::instance().configure(4);
  }

  static void expect_equivalent(const std::string& name, RunConfig cfg) {
    const auto* def = Registry::instance().find(name);
    ASSERT_NE(def, nullptr) << name;
    Machine::instance().configure(16);
    unsetenv("DPF_NET");
    const auto direct = def->run_with_defaults(cfg);
    setenv("DPF_NET", "overlap", 1);
    const auto overlap = def->run_with_defaults(cfg);
    unsetenv("DPF_NET");
    ASSERT_EQ(direct.checks.size(), overlap.checks.size()) << name;
    for (const auto& [key, value] : direct.checks) {
      const auto it = overlap.checks.find(key);
      ASSERT_NE(it, overlap.checks.end()) << name << " lost check " << key;
      EXPECT_EQ(value, it->second)
          << name << " check '" << key << "' not bit-identical";
    }
  }
};

TEST_F(NetRegistryEquivalenceTest, CollectiveBenchmarks) {
  RunConfig small;
  small.params["n"] = 4096;
  expect_equivalent("reduction", small);
  expect_equivalent("gather", small);
  expect_equivalent("scatter", small);
  RunConfig tr;
  tr.params["n"] = 96;
  expect_equivalent("transpose", tr);
}

TEST_F(NetRegistryEquivalenceTest, ApplicationKernels) {
  expect_equivalent("md", {});
  expect_equivalent("gmo", {});
  expect_equivalent("fermion", {});
  expect_equivalent("boson", {});
  RunConfig nb;
  nb.params["n"] = 128;
  nb.params["iters"] = 2;
  expect_equivalent("n-body", nb);
}

}  // namespace
}  // namespace dpf
