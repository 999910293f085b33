// Property/stress tests that split-phase posts are genuinely early.
//
// The payload-once rule (transport copies every message at post time) plus
// the shift bundle's local pass at start mean a shift's result is fully
// determined the moment cshift_start returns: the caller may scramble src,
// run unrelated SPMD compute, start more handles and finish everything in
// any order, and each dst must still hold the shift of the *original* src.
// These tests drive randomized interleavings of exactly that shape in both
// DPF_NET modes and assert bitwise equality against a serially
// computed reference. Run under TSan in CI, they also prove the in-flight
// window is race-free against interior compute.
//
// scatter_add_start has the complementary contract — dst is freely
// mutable inside the window (the fem-3D zero-the-accumulator idiom) while
// src/map stay frozen — stressed here with randomized dst mutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "net/net.hpp"
#include "suite/register_all.hpp"

namespace dpf {
namespace {

const char* const kModes[] = {"direct", "overlap"};

void set_mode(const char* m) {
  if (std::strcmp(m, "direct") == 0) {
    unsetenv("DPF_NET");
  } else {
    setenv("DPF_NET", m, 1);
  }
}

class OverlapStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
  }
  void TearDown() override {
    unsetenv("DPF_NET");
    Machine::instance().configure(4);
  }
};

// dst of a shift is determined at start: scrambling src inside the window
// must not leak into the posted halos (no payload aliasing).
TEST_F(OverlapStressTest, SrcScrambleInsideWindowDoesNotReachHalos) {
  const index_t n = 773;
  for (const char* m : kModes) {
    for (int p : {4, 5, 8}) {
      Machine::instance().configure(p);
      set_mode(m);
      auto src = make_vector<double>(n);
      for (index_t i = 0; i < n; ++i) {
        src[i] = static_cast<double>(i) * 1.25 - 300.0;
      }
      const std::vector<double> pristine(src.data().data(),
                                         src.data().data() + n);
      const index_t s = 19;
      std::vector<double> expect(static_cast<std::size_t>(n));
      for (index_t i = 0; i < n; ++i) {
        expect[std::size_t(i)] = pristine[std::size_t((i + s) % n)];
      }
      auto dst = make_vector<double>(n);
      auto h = comm::cshift_start(dst, src, 0, s);
      // Scramble every element of src while the halo is in flight.
      fill_par(src, -1e9);
      update(src, 1, [](index_t i, double) {
        return static_cast<double>(i * 7 % 13);
      });
      h.finish();
      set_mode("direct");
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(expect[std::size_t(i)], dst[i])
            << "mode=" << m << " p=" << p << " i=" << i;
      }
    }
  }
}

// Randomized interleavings: several overlapping shift windows opened and
// closed in random order, with src rewritten and unrelated SPMD compute
// running while messages are in flight.
TEST_F(OverlapStressTest, RandomizedInterleavings) {
  const index_t n = 512;
  constexpr int kHandles = 4;
  for (const char* m : kModes) {
    for (int p : {4, 5, 8}) {
      Machine::instance().configure(p);
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        std::mt19937_64 rng(seed * 1000003 + static_cast<std::uint64_t>(p));
        std::uniform_int_distribution<index_t> shift_dist(-2 * n, 2 * n);

        auto src = make_vector<double>(n);
        for (index_t i = 0; i < n; ++i) {
          src[i] = static_cast<double>((i * 2654435761u) % 100003) * 1e-3;
        }

        std::vector<index_t> shifts(kHandles);
        for (int k = 0; k < kHandles; ++k) shifts[std::size_t(k)] = shift_dist(rng);
        // Each handle's expected result is the shift of src AS OF its start
        // — snapshotted just before the start call, since later window
        // compute rewrites src.
        std::vector<std::vector<double>> expect(kHandles);

        std::vector<Array1<double>> dsts;
        dsts.reserve(kHandles);
        for (int k = 0; k < kHandles; ++k) {
          dsts.emplace_back(Shape<1>(n));
        }
        auto scratch = make_vector<double>(n);

        set_mode(m);
        std::vector<comm::ShiftBundle<double>> handles;
        handles.reserve(kHandles);
        std::vector<int> start_order(kHandles), finish_order(kHandles);
        for (int k = 0; k < kHandles; ++k) start_order[k] = finish_order[k] = k;
        std::shuffle(start_order.begin(), start_order.end(), rng);
        std::shuffle(finish_order.begin(), finish_order.end(), rng);

        std::vector<int> slot_of(kHandles);
        for (int k = 0; k < kHandles; ++k) {
          const int which = start_order[static_cast<std::size_t>(k)];
          const index_t sh =
              ((shifts[static_cast<std::size_t>(which)] % n) + n) % n;
          auto& exp = expect[static_cast<std::size_t>(which)];
          exp.resize(static_cast<std::size_t>(n));
          for (index_t i = 0; i < n; ++i) {
            exp[std::size_t(i)] = src[(i + sh) % n];
          }
          slot_of[static_cast<std::size_t>(which)] =
              static_cast<int>(handles.size());
          handles.push_back(
              comm::cshift_start(dsts[static_cast<std::size_t>(which)], src,
                                 0, shifts[static_cast<std::size_t>(which)]));
          // Interior compute between posts: rewrite src and hammer scratch
          // with parallel regions while earlier windows are still open.
          const double salt = static_cast<double>(rng()) * 1e-12;
          update(src, 1, [salt](index_t i, double v) {
            return v * 0.5 + salt + static_cast<double>(i % 7);
          });
          fill_par(scratch, salt);
        }
        for (int k = 0; k < kHandles; ++k) {
          const int which = finish_order[static_cast<std::size_t>(k)];
          handles[static_cast<std::size_t>(
                      slot_of[static_cast<std::size_t>(which)])]
              .finish();
        }
        set_mode("direct");

        for (int k = 0; k < kHandles; ++k) {
          const auto& d = dsts[static_cast<std::size_t>(k)];
          for (index_t i = 0; i < n; ++i) {
            ASSERT_EQ(expect[static_cast<std::size_t>(k)][std::size_t(i)],
                      d[i])
                << "mode=" << m << " p=" << p << " seed=" << seed
                << " handle=" << k << " shift=" << shifts[std::size_t(k)]
                << " i=" << i;
          }
        }
      }
    }
  }
}

// scatter_add_start: dst is freely mutable during the window; the adds land
// at finish on whatever dst then holds, in the same global element order as
// scatter_add_into. Randomized window mutations of dst must commute exactly.
TEST_F(OverlapStressTest, ScatterAddWindowDstMutations) {
  const index_t n = 640;
  for (const char* m : kModes) {
    for (int p : {4, 5, 8}) {
      Machine::instance().configure(p);
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(p));
        auto src = make_vector<double>(n);
        for (index_t i = 0; i < n; ++i) {
          src[i] = std::cos(static_cast<double>(i) * 0.31) * 50.0;
        }
        auto map = make_vector<index_t>(n);
        for (index_t i = 0; i < n; ++i) map[i] = (i * 29 + 3) % (n / 5);
        const double base = static_cast<double>(rng() % 97) - 48.0;

        set_mode(m);
        auto acc = make_vector<double>(n);
        fill_par(acc, 1e6);  // garbage the window mutations must replace
        auto h = comm::scatter_add_start(acc, src, map);
        // Window: a deterministic mutation sequence of dst.
        fill_par(acc, base);
        update(acc, 1, [](index_t i, double v) {
          return v + static_cast<double>(i % 11);
        });
        h.finish();
        set_mode("direct");

        // Reference: same mutations, then the plain combining scatter.
        auto ref = make_vector<double>(n);
        fill_par(ref, base);
        update(ref, 1, [](index_t i, double v) {
          return v + static_cast<double>(i % 11);
        });
        comm::scatter_add_into(ref, src, map);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(ref[i], acc[i])
              << "mode=" << m << " p=" << p << " seed=" << seed << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dpf
