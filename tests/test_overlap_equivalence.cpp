// Bit-identity of DPF_NET=overlap (split-phase collectives) against the
// direct formulations.
//
// Every primitive with a message-passing realization runs twice on
// identical inputs — DPF_NET unset (direct) and DPF_NET=overlap (post,
// separate local region, remote consume) — under a forced 4-worker pool
// across pow2 and non-pow2 VP counts. Comparison is exact bitwise
// equality, never a tolerance. The split-phase handle APIs (cshift_start,
// scatter_add_start) are exercised with real compute inside the in-flight
// window.
//
// The registry half runs EVERY suite benchmark in both modes at
// DPF_VPS=16 and compares the checks maps exactly; a guard test pins the
// list to the registry size so new benchmarks must join the battery.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
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
const char* const kModes[] = {"direct", "overlap"};

void set_mode(const char* m) {
  if (std::strcmp(m, "direct") == 0) {
    unsetenv("DPF_NET");
  } else {
    setenv("DPF_NET", m, 1);
  }
}

class OverlapEquivalenceTest : public ::testing::Test {
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

  // Runs `op` once per mode on `p` VPs; the op must be a pure function of
  // its (re-created) inputs. The overlap result is compared bitwise against
  // the direct run.
  static void expect_all_modes_equal(
      int p, const std::string& what,
      const std::function<std::vector<double>()>& op) {
    Machine::instance().configure(p);
    std::vector<double> ref;
    for (const char* m : kModes) {
      set_mode(m);
      const std::vector<double> got = op();
      set_mode("direct");
      if (std::string(m) == "direct") {
        ref = got;
        continue;
      }
      ASSERT_EQ(ref.size(), got.size()) << what << " mode=" << m << " p=" << p;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i], got[i]) << what << " diverged in mode " << m
                                  << " at p=" << p << " index " << i;
      }
    }
  }
};

std::vector<double> irregular_input(index_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        std::sin(static_cast<double>(i) * 0.7) * 1e3 +
        std::cos(static_cast<double>(i * i) * 0.01);
  }
  return v;
}

TEST_F(OverlapEquivalenceTest, ShiftsBitIdentical) {
  const index_t rows = 37, cols = 29;
  const auto in = irregular_input(rows * cols);
  for (int p : kVpCounts) {
    expect_all_modes_equal(p, "cshift/eoshift", [&] {
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
    });
  }
}

TEST_F(OverlapEquivalenceTest, CShiftStartWithWindowComputeBitIdentical) {
  const index_t n = 1009;
  const auto in = irregular_input(n);
  for (int p : kVpCounts) {
    expect_all_modes_equal(p, "cshift_start", [&] {
      auto u = make_vector<double>(n);
      for (index_t i = 0; i < n; ++i) u[i] = in[std::size_t(i)];
      auto d1 = make_vector<double>(n);
      auto d2 = make_vector<double>(n);
      auto scratch = make_vector<double>(n);
      auto h1 = comm::cshift_start(d1, u, 0, +7);
      auto h2 = comm::cshift_start(d2, u, 0, -11);
      // Real compute inside the in-flight window (the pipeline shape the
      // suite's stencil apps use): several SPMD regions that must not
      // disturb the posted halos.
      fill_par(scratch, 3.5);
      assign(scratch, 1, [&](index_t i) {
        return scratch[i] * static_cast<double>(i % 13);
      });
      h1.finish();
      h2.finish();
      std::vector<double> out;
      for (index_t i = 0; i < n; ++i) {
        out.push_back(d1[i]);
        out.push_back(d2[i]);
      }
      return out;
    });
  }
}

TEST_F(OverlapEquivalenceTest, TransposeAndButterflyBitIdentical) {
  const index_t rows = 48, cols = 21;
  const auto in = irregular_input(rows * cols);
  for (int p : kVpCounts) {
    expect_all_modes_equal(p, "transpose/butterfly", [&] {
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
    });
  }
}

TEST_F(OverlapEquivalenceTest, BroadcastAndSpreadBitIdentical) {
  const index_t n = 61;
  const auto in = irregular_input(n);
  for (int p : kVpCounts) {
    expect_all_modes_equal(p, "broadcast/spread", [&] {
      auto dst = make_vector<double>(501);
      comm::broadcast_fill(dst, 3.25);
      auto line = make_vector<double>(n);
      for (index_t i = 0; i < n; ++i) line[i] = in[std::size_t(i)];
      auto sp = comm::spread(line, /*axis=*/0, /*copies=*/13);
      std::vector<double> out;
      for (index_t i = 0; i < dst.size(); ++i) out.push_back(dst[i]);
      for (index_t i = 0; i < sp.size(); ++i) out.push_back(sp[i]);
      return out;
    });
  }
}

TEST_F(OverlapEquivalenceTest, GatherScatterBitIdentical) {
  const index_t n = 771;
  const auto in = irregular_input(n);
  for (int p : kVpCounts) {
    expect_all_modes_equal(p, "gather/scatter", [&] {
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
    });
  }
}

TEST_F(OverlapEquivalenceTest, ScatterAddStartZeroedWindowBitIdentical) {
  // The fem-3D shape: contributions posted, accumulator zeroed while they
  // are in flight, every add landing at finish. Must equal fill +
  // scatter_add_into exactly in every mode.
  const index_t n = 600;
  const auto in = irregular_input(n);
  for (int p : kVpCounts) {
    expect_all_modes_equal(p, "scatter_add_start", [&] {
      auto src = make_vector<double>(n);
      for (index_t i = 0; i < n; ++i) src[i] = in[std::size_t(i)];
      auto map = make_vector<index_t>(n);
      for (index_t i = 0; i < n; ++i) map[i] = (i * 17 + 5) % (n / 4);
      auto ref = make_vector<double>(n);
      fill_par(ref, 0.0);
      comm::scatter_add_into(ref, src, map);
      auto acc = make_vector<double>(n);
      fill_par(acc, 123.0);  // stale garbage the window must erase
      auto h = comm::scatter_add_start(acc, src, map);
      fill_par(acc, 0.0);  // compute inside the in-flight window
      h.finish();
      std::vector<double> out;
      for (index_t i = 0; i < n; ++i) {
        out.push_back(ref[i]);
        out.push_back(acc[i]);
      }
      return out;
    });
  }
}

// --- whole-suite equivalence through the registry --------------------------

// Every registered benchmark; the guard test below keeps this in sync.
const char* const kAllBenchmarks[] = {
    "gather",      "reduction",   "scatter",     "transpose",
    "conj-grad",   "fft",         "gauss-jordan", "jacobi",
    "lu",          "matrix-vector", "pcr",       "qr",
    "boson",       "diff-1D",     "diff-2D",     "diff-3D",
    "ellip-2D",    "fem-3D",      "fermion",     "gmo",
    "ks-spectral", "md",          "mdcell",      "n-body",
    "pic-gather-scatter", "pic-simple", "qcd-kernel", "qmc",
    "qptransport", "rp",          "step4",       "wave-1D",
};

class OverlapRegistryEquivalence : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    register_all_benchmarks();
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
  }
  void TearDown() override {
    unsetenv("DPF_NET");
    Machine::instance().configure(4);
  }
};

TEST_F(OverlapEquivalenceTest, BenchmarkListCoversRegistry) {
  register_all_benchmarks();
  EXPECT_EQ(Registry::instance().size(),
            sizeof(kAllBenchmarks) / sizeof(kAllBenchmarks[0]))
      << "a new benchmark must be added to kAllBenchmarks so the "
         "two-mode equivalence battery covers it";
  for (const char* name : kAllBenchmarks) {
    EXPECT_NE(Registry::instance().find(name), nullptr) << name;
  }
}

TEST_P(OverlapRegistryEquivalence, ChecksBitIdenticalAcrossModes) {
  const auto* def = Registry::instance().find(GetParam());
  ASSERT_NE(def, nullptr) << GetParam();
  Machine::instance().configure(16);
  std::map<std::string, double> ref;
  for (const char* m : kModes) {
    set_mode(m);
    const auto r = def->run_with_defaults(RunConfig{});
    set_mode("direct");
    if (std::string(m) == "direct") {
      ref = r.checks;
      ASSERT_FALSE(ref.empty()) << GetParam() << " has no checks";
      continue;
    }
    ASSERT_EQ(ref.size(), r.checks.size()) << GetParam() << " mode=" << m;
    for (const auto& [key, value] : ref) {
      const auto it = r.checks.find(key);
      ASSERT_NE(it, r.checks.end())
          << GetParam() << " mode=" << m << " lost check " << key;
      EXPECT_EQ(value, it->second) << GetParam() << " mode=" << m
                                   << " check '" << key
                                   << "' not bit-identical";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, OverlapRegistryEquivalence,
    ::testing::ValuesIn(std::vector<std::string>(
        std::begin(kAllBenchmarks), std::end(kAllBenchmarks))),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dpf
