// Interior-first stencil driver correctness (stencil.hpp).
//
// assign_interior_first splits an elementwise sweep into an interior pass
// that runs inside a halo exchange's in-flight window and a boundary pass
// after the consume. Its contract: (1) the interior/boundary partition from
// interior_mask is exact — interior coordinates' whole halo neighbourhoods
// live in the owner's block, boundary coordinates' do not; (2) pass 1
// writes exactly the interior slice and pass 2 exactly the complement, so
// the two passes tile dst; (3) the result is bitwise identical to finishing
// the halos first and running one monolithic assign, in every DPF_NET mode,
// including degenerate shapes whose extents are smaller than 2*halo where
// every element is boundary.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "net/net.hpp"

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

class InteriorFirstTest : public ::testing::Test {
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

// The mask partitions every coordinate, and an interior coordinate's whole
// neighbourhood [c-halo, c+halo] stays inside the owning block (same owner,
// no global wrap); a boundary coordinate violates one of those.
TEST_F(InteriorFirstTest, MaskPartitionMatchesOwnership) {
  for (int p : {3, 5}) {
    Machine::instance().configure(p);
    for (index_t n : {index_t{1}, index_t{2}, index_t{3}, index_t{5},
                      index_t{17}, index_t{64}}) {
      for (index_t halo : {index_t{1}, index_t{2}}) {
        auto a = make_vector<double>(n);
        const auto mk = comm::interior_mask(a, halo);
        const int g = a.layout().procs_on_axis(0, p);
        ASSERT_EQ(mk.interior[0].size(), static_cast<std::size_t>(n));
        for (index_t c = 0; c < n; ++c) {
          bool expect_in = true;
          if (g > 1) {
            const int own = owner_of(n, g, c);
            for (index_t d = -halo; d <= halo; ++d) {
              const index_t cc = c + d;
              if (cc < 0 || cc >= n || owner_of(n, g, cc) != own) {
                expect_in = false;
                break;
              }
            }
          }
          EXPECT_EQ(expect_in, mk.interior[0][std::size_t(c)] != 0)
              << "p=" << p << " n=" << n << " halo=" << halo << " c=" << c;
        }
      }
    }
  }
}

// Pass 1 writes the interior slice only, pass 2 the boundary slice only:
// observed with a sentinel prefill and a finish hook that snapshots which
// elements have been written when the halos land.
TEST_F(InteriorFirstTest, PassesTileTheDestinationExactly) {
  constexpr double kSentinel = -7.25e77;
  for (const char* m : kModes) {
    for (int p : {3, 5}) {
      Machine::instance().configure(p);
      set_mode(m);
      const index_t nx = 13, ny = 11;
      Array2<double> dst{Shape<2>(nx, ny)};
      fill_par(dst, kSentinel);
      const auto mk = comm::interior_mask(dst, 1);
      std::vector<double> at_finish;
      comm::assign_interior_first(
          dst, 1, 1,
          [&] {
            at_finish.assign(dst.data().data(), dst.data().data() + nx * ny);
          },
          [](index_t k) { return static_cast<double>(k) * 0.5; });
      set_mode("direct");
      ASSERT_EQ(at_finish.size(), static_cast<std::size_t>(nx * ny));
      const bool message_mode = std::strcmp(m, "direct") != 0;
      for (index_t i = 0; i < nx; ++i) {
        for (index_t j = 0; j < ny; ++j) {
          const index_t k = i * ny + j;
          const bool interior = mk.interior[0][std::size_t(i)] != 0 &&
                                mk.interior[1][std::size_t(j)] != 0;
          // Before finish: interior written iff the two-pass path ran
          // (message mode with a nonempty boundary); under direct the
          // whole sweep runs after the finish hook.
          if (message_mode && mk.any_boundary) {
            EXPECT_EQ(interior, at_finish[std::size_t(k)] != kSentinel)
                << "mode=" << m << " p=" << p << " i=" << i << " j=" << j;
          } else {
            EXPECT_EQ(kSentinel, at_finish[std::size_t(k)]);
          }
          // After: every element written.
          EXPECT_EQ(static_cast<double>(k) * 0.5, dst[k]);
        }
      }
    }
  }
}

// Full driver vs. monolithic reference through a real bundled halo
// exchange, at odd shapes including extents below 2*halo (all-boundary
// blocks) — bitwise equal in every mode.
TEST_F(InteriorFirstTest, MatchesMonolithicSweepAtOddShapes) {
  const std::pair<index_t, index_t> shapes[] = {
      {1, 5}, {2, 3}, {3, 2}, {5, 5}, {7, 3}, {16, 9}, {33, 5}};
  for (const char* m : kModes) {
    for (int p : {3, 5}) {
      Machine::instance().configure(p);
      for (const auto& [nx, ny] : shapes) {
        // Reference: direct mode, halos first, one monolithic assign.
        set_mode("direct");
        Array2<double> src{Shape<2>(nx, ny)};
        assign(src, 0, [=](index_t k) {
          return std::sin(static_cast<double>(k) * 0.37) * 9.0 + 1.0;
        });
        const auto combine = [nx, ny](const Array2<double>& up,
                                      const Array2<double>& dn) {
          return [&up, &dn, nx, ny](index_t k) {
            const index_t i = k / ny;
            const double vu = i > 0 ? up[k] : 0.0;
            const double vd = i + 1 < nx ? dn[k] : 0.0;
            return 2.0 * vu - 0.5 * vd + static_cast<double>(k % 3);
          };
        };
        Array2<double> ref{Shape<2>(nx, ny)};
        {
          auto up = comm::cshift(src, 0, -1);
          auto dn = comm::cshift(src, 0, +1);
          assign(ref, 3, combine(up, dn));
        }

        // Interior-first through a bundle in the mode under test.
        set_mode(m);
        Array2<double> up(src.shape(), src.layout(), MemKind::Temporary);
        Array2<double> dn(src.shape(), src.layout(), MemKind::Temporary);
        Array2<double> out{Shape<2>(nx, ny)};
        comm::ShiftBundle<double> bundle;
        bundle.add_cshift(up, src, 0, -1);
        bundle.add_cshift(dn, src, 0, +1);
        bundle.start();
        comm::assign_interior_first(out, 1, 3, [&] { bundle.finish(); },
                                    combine(up, dn));
        set_mode("direct");
        for (index_t k = 0; k < nx * ny; ++k) {
          ASSERT_EQ(ref[k], out[k]) << "mode=" << m << " p=" << p
                                    << " shape=" << nx << "x" << ny
                                    << " k=" << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dpf
