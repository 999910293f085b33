// Differential collective fuzzer: the message-passing formulation against
// the direct one and both against a plain serial loop.
//
// Each case draws, from its own seed, one primitive — cshift_into,
// eoshift_into, a ShiftBundle of 1-4 mixed circular/end-off members over
// arrays of different ranks, transpose_into, butterfly_into in place or out
// of place, spread_into, gather_into, scatter_into, scatter_add_into, the
// split-phase scatter-add (scatter_add_start, dst zeroed inside the window
// as fem-3D zeroes its accumulator, then finish), one of the ten full
// reductions (reduce_sum, dot, reduce_max, reduce_min,
// reduce_absmax, reduce_product, any, all, count_true, reduce_sum_masked),
// scan_sum_into inclusive or exclusive, or a pshift of 1-6 circular shifts
// — and its input: ranks 1-3, extents 1-40 (so extents below p and p that
// does not divide n), p in [1, 16], shifts in [-2n, 2n], block or cyclic
// layouts, explicit processor grids and router maps with collisions. The
// reduction and scan data are small integers (with +0.0 and -0.0 among the
// sums' terms), so every fold is exact and the serial loop is a bitwise
// oracle for any association. The case runs under DPF_NET=direct and
// under DPF_NET=overlap on fresh inputs; both results must equal the
// serial loop bitwise, the two modes must record the same events
// (pattern, ranks, bytes, off-processor bytes, detail), and under overlap
// the transport must hold no message afterwards and, for every data
// movement, must have carried exactly the recorded off-processor bytes
// (the reductions and the scan move per-VP partials instead). A failing
// case prints its seed and its draw.
//
// Worker counts and the SIMD setting are not drawn: the CI legs run this
// test at forced worker counts, under TSan and with DPF_SIMD=off.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "net/net.hpp"

namespace dpf {
namespace {

constexpr std::uint64_t kBaseSeed = 0x27F0;
constexpr int kCases = 640;

/// The case's draws: every choice goes through here, in order.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  /// Uniform integer in [lo, hi].
  index_t in(index_t lo, index_t hi) {
    return lo + static_cast<index_t>(
                    rng_() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  bool one_in(int n) { return in(1, n) == 1; }

 private:
  std::mt19937_64 rng_;
};

/// Distinct, non-representable test data: the salt tells arrays apart.
double value(std::uint64_t salt, index_t i) {
  const double x = static_cast<double>(i);
  return std::sin(0.37 * x + static_cast<double>(salt)) * 100.0 +
         1.0 / (x + 1.0 + static_cast<double>(salt % 7));
}

template <typename T, std::size_t R>
void fill(Array<T, R>& a, std::uint64_t salt) {
  for (index_t i = 0; i < a.size(); ++i) a[i] = value(salt, i);
}

template <typename T, std::size_t R>
std::vector<T> flat(const Array<T, R>& a) {
  return std::vector<T>(a.data().data(), a.data().data() + a.size());
}

template <std::size_t R>
std::string str(const std::array<index_t, R>& e) {
  std::string s = "(";
  for (std::size_t a = 0; a < R; ++a) {
    s += (a ? "," : "") + std::to_string(e[a]);
  }
  return s + ")";
}

template <std::size_t R>
std::array<index_t, R> draw_extents(Draw& d) {
  std::array<index_t, R> e{};
  for (auto& x : e) x = d.in(1, 40);
  return e;
}

/// Parallel/serial axes, block or cyclic, and (sometimes) an explicit grid
/// dealing p's prime factors to the parallel axes.
template <std::size_t R>
Layout<R> draw_layout(Draw& d, int p, std::ostringstream& desc) {
  std::array<AxisKind, R> kinds{};
  std::vector<std::size_t> par;
  for (std::size_t a = 0; a < R; ++a) {
    kinds[a] = d.one_in(4) ? AxisKind::Serial : AxisKind::Parallel;
    if (kinds[a] == AxisKind::Parallel) par.push_back(a);
  }
  Layout<R> l(kinds);
  if (d.one_in(2)) l = l.with_dist(Dist::Cyclic);
  if (!par.empty() && d.one_in(3)) {
    std::array<int, R> g{};
    g.fill(1);
    for (int rem = p, f = 2; rem > 1;) {
      if (rem % f != 0) {
        ++f;
        continue;
      }
      g[par[static_cast<std::size_t>(
          d.in(0, static_cast<index_t>(par.size()) - 1))]] *= f;
      rem /= f;
    }
    l = l.with_grid(g);
  }
  desc << l.to_string() << (l.dist() == Dist::Cyclic ? "cyclic" : "block");
  if (l.has_grid()) {
    desc << " grid";
    for (std::size_t a = 0; a < R; ++a) desc << (a ? "x" : " ") << l.grid(a);
  }
  return l;
}

/// Calls f(std::integral_constant<std::size_t, r>) for r in 1..3.
template <typename F>
void with_rank(index_t r, F&& f) {
  if (r == 1) {
    f(std::integral_constant<std::size_t, 1>{});
  } else if (r == 2) {
    f(std::integral_constant<std::size_t, 2>{});
  } else {
    f(std::integral_constant<std::size_t, 3>{});
  }
}

/// Serial CSHIFT (circular) or EOSHIFT of a row-major array along `axis`.
template <std::size_t R>
std::vector<double> ref_shift(const std::vector<double>& src,
                              const std::array<index_t, R>& ext,
                              std::size_t axis, index_t s, bool circular,
                              double boundary) {
  index_t st = 1;
  for (std::size_t a = axis + 1; a < R; ++a) st *= ext[a];
  const index_t n = ext[axis];
  std::vector<double> out(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    const index_t c = (static_cast<index_t>(i) / st) % n;
    index_t c2 = c + s;
    if (circular) c2 = ((c2 % n) + n) % n;
    out[i] = (c2 >= 0 && c2 < n)
                 ? src[i + static_cast<std::size_t>((c2 - c) * st)]
                 : boundary;
  }
  return out;
}

/// One ShiftBundle member: its own arrays, of its own rank.
struct Member {
  virtual ~Member() = default;
  virtual void add_to(comm::ShiftBundle<double>& b) = 0;
  virtual void scramble_src() = 0;
  [[nodiscard]] virtual std::vector<double> result() const = 0;
};

template <std::size_t R>
struct ShiftMember final : Member {
  Array<double, R> src, dst;
  std::size_t axis;
  index_t s;
  bool circular;
  double boundary;
  ShiftMember(const std::array<index_t, R>& e, const Layout<R>& l,
              std::uint64_t salt, std::size_t ax, index_t sh, bool circ,
              double bnd)
      : src(Shape<R>(e), l), dst(Shape<R>(e), l), axis(ax), s(sh),
        circular(circ), boundary(bnd) {
    fill(src, salt);
    fill(dst, salt + 1);
  }
  void add_to(comm::ShiftBundle<double>& b) override {
    if (circular) {
      b.add_cshift(dst, src, axis, s);
    } else {
      b.add_eoshift(dst, src, axis, s, boundary);
    }
  }
  void scramble_src() override {
    for (index_t i = 0; i < src.size(); ++i) src[i] = -3.0 * src[i] + 0.5;
  }
  [[nodiscard]] std::vector<double> result() const override {
    return flat(dst);
  }
};

/// One drawn case: `run` builds fresh inputs and runs the primitive in the
/// current mode; `ref` is the serial loop's answer on the same inputs.
/// `moves_data` is false for the reductions and the scan, whose transport
/// traffic is the partials' allgather rather than the recorded
/// off-processor bytes.
struct Case {
  std::string desc;
  std::function<std::vector<double>()> run;
  std::vector<double> ref;
  bool moves_data = true;
};

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The term of an exact sum: a small integer, or one time in six +0.0 or
/// -0.0.
double sum_term(Draw& d) {
  if (d.one_in(6)) return d.one_in(2) ? -0.0 : 0.0;
  return static_cast<double>(d.in(-8, 8));
}

/// Runs the `which`-th full reduction on the case's arrays.
template <std::size_t R>
double reduce(index_t which, const Array<double, R>& a,
              const Array<double, R>& b, const Array<std::uint8_t, R>& m) {
  switch (which) {
    case 0: return comm::reduce_sum(a);
    case 1: return comm::dot(a, b);
    case 2: return comm::reduce_max(a);
    case 3: return comm::reduce_min(a);
    case 4: return comm::reduce_absmax(a);
    case 5: return comm::reduce_product(a);
    case 6: return comm::any(m) ? 1.0 : 0.0;
    case 7: return comm::all(m) ? 1.0 : 0.0;
    case 8: return static_cast<double>(comm::count_true(m));
    default: return comm::reduce_sum_masked(a, m);
  }
}

constexpr const char* kReductions[] = {
    "reduce_sum",     "dot", "reduce_max", "reduce_min", "reduce_absmax",
    "reduce_product", "any", "all",        "count_true", "reduce_sum_masked"};

/// The serial loop of the `which`-th reduction: one ascending fold.
double reduce_ref(index_t which, const std::vector<double>& x,
                  const std::vector<double>& y,
                  const std::vector<std::uint8_t>& m) {
  double acc = (which == 5 || which == 7) ? 1.0
               : (which == 2 || which == 3) ? x[0]
                                            : 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    switch (which) {
      case 0: acc += x[i]; break;
      case 1: acc += x[i] * y[i]; break;
      case 2: acc = std::max(acc, x[i]); break;
      case 3: acc = std::min(acc, x[i]); break;
      case 4: acc = std::max(acc, std::fabs(x[i])); break;
      case 5: acc *= x[i]; break;
      case 6: acc = (acc != 0.0 || m[i] != 0) ? 1.0 : 0.0; break;
      case 7: acc = (acc != 0.0 && m[i] != 0) ? 1.0 : 0.0; break;
      case 8: acc += m[i] != 0 ? 1.0 : 0.0; break;
      default:
        if (m[i] != 0) acc += x[i];
    }
  }
  return acc;
}

Case draw_case(std::uint64_t seed) {
  Draw d(seed);
  const int p = static_cast<int>(d.in(1, 16));
  // Kinds 10-13 all draw a reduction: ten primitives share that branch.
  const index_t kind = d.in(0, 16);
  std::ostringstream desc;
  desc << "seed=" << seed << " p=" << p << " ";
  Case c;

  if (kind <= 1) {  // cshift_into / eoshift_into
    const bool circular = kind == 0;
    with_rank(d.in(1, 3), [&](auto rk) {
      constexpr std::size_t R = decltype(rk)::value;
      const auto e = draw_extents<R>(d);
      const auto axis = static_cast<std::size_t>(d.in(0, R - 1));
      const index_t n = e[axis];
      const index_t s = d.in(-2 * n, 2 * n);
      const double bnd = value(seed, 99);
      desc << (circular ? "cshift" : "eoshift") << " ext=" << str(e)
           << " axis=" << axis << " s=" << s << " layout=";
      const Layout<R> l = draw_layout<R>(d, p, desc);
      c.run = [=] {
        Array<double, R> src(Shape<R>(e), l), dst(Shape<R>(e), l);
        fill(src, seed);
        if (circular) {
          comm::cshift_into(dst, src, axis, s);
        } else {
          comm::eoshift_into(dst, src, axis, s, bnd);
        }
        return flat(dst);
      };
      Array<double, R> src(Shape<R>(e), l);
      fill(src, seed);
      c.ref = ref_shift<R>(flat(src), e, axis, s, circular, bnd);
    });
  } else if (kind == 2) {  // ShiftBundle
    struct Spec {
      index_t rank;
      std::uint64_t salt;
      std::function<std::unique_ptr<Member>()> make;
    };
    std::vector<Spec> specs;
    const index_t members = d.in(1, 4);
    desc << "bundle of " << members << ":";
    for (index_t k = 0; k < members; ++k) {
      with_rank(d.in(1, 3), [&](auto rk) {
        constexpr std::size_t R = decltype(rk)::value;
        const auto e = draw_extents<R>(d);
        const auto axis = static_cast<std::size_t>(d.in(0, R - 1));
        const index_t n = e[axis];
        const index_t s = d.in(-2 * n, 2 * n);
        const bool circular = d.one_in(2);
        const std::uint64_t salt = seed * 8 + static_cast<std::uint64_t>(k);
        const double bnd = value(salt, 7);
        desc << " [" << (circular ? "cshift" : "eoshift") << " ext=" << str(e)
             << " axis=" << axis << " s=" << s << " layout=";
        const Layout<R> l = draw_layout<R>(d, p, desc);
        desc << "]";
        specs.push_back({static_cast<index_t>(R), salt, [=] {
                           return std::make_unique<ShiftMember<R>>(
                               e, l, salt, axis, s, circular, bnd);
                         }});
        Array<double, R> src(Shape<R>(e), l);
        fill(src, salt);
        const auto r = ref_shift<R>(flat(src), e, axis, s, circular, bnd);
        c.ref.insert(c.ref.end(), r.begin(), r.end());
      });
    }
    c.run = [specs] {
      std::vector<std::unique_ptr<Member>> ms;
      for (const Spec& sp : specs) ms.push_back(sp.make());
      comm::ShiftBundle<double> bundle;
      for (auto& m : ms) m->add_to(bundle);
      bundle.start();
      // Payloads are captured at start: src is free inside the window.
      for (auto& m : ms) m->scramble_src();
      bundle.finish();
      std::vector<double> out;
      for (auto& m : ms) {
        const auto r = m->result();
        out.insert(out.end(), r.begin(), r.end());
      }
      return out;
    };
  } else if (kind == 3) {  // transpose_into
    const auto e = draw_extents<2>(d);
    desc << "transpose ext=" << str(e) << " src=";
    const Layout<2> ls = draw_layout<2>(d, p, desc);
    desc << " dst=";
    const Layout<2> ld = draw_layout<2>(d, p, desc);
    c.run = [=] {
      Array2<double> src(Shape<2>(e), ls);
      Array2<double> dst(Shape<2>(e[1], e[0]), ld);
      fill(src, seed);
      comm::transpose_into(dst, src);
      return flat(dst);
    };
    Array2<double> src(Shape<2>(e), ls);
    fill(src, seed);
    c.ref.resize(static_cast<std::size_t>(src.size()));
    for (index_t i = 0; i < e[1]; ++i) {
      for (index_t j = 0; j < e[0]; ++j) {
        c.ref[static_cast<std::size_t>(i * e[0] + j)] = src[j * e[1] + i];
      }
    }
  } else if (kind <= 5) {  // butterfly_into, in place (4) or not (5)
    const bool inplace = kind == 4;
    with_rank(d.in(1, 3), [&](auto rk) {
      constexpr std::size_t R = decltype(rk)::value;
      auto e = draw_extents<R>(d);
      if (e[R - 1] % 2 != 0) e[R - 1] = e[R - 1] < 40 ? e[R - 1] + 1 : 40;
      index_t n = 1;
      for (index_t x : e) n *= x;
      index_t hmax = 1;  // largest h with n % (2h) == 0
      while (n % (4 * hmax) == 0) hmax *= 2;
      index_t h = 1;
      for (index_t k = d.in(0, 6); k > 0 && 2 * h <= hmax; --k) h *= 2;
      desc << "butterfly" << (inplace ? " in place" : "") << " ext=" << str(e)
           << " h=" << h << " src=";
      const Layout<R> ls = draw_layout<R>(d, p, desc);
      Layout<R> ld = ls;
      if (!inplace) {
        desc << " dst=";
        ld = draw_layout<R>(d, p, desc);
      }
      c.run = [=] {
        Array<double, R> src(Shape<R>(e), ls);
        fill(src, seed);
        if (inplace) {
          comm::butterfly_into(src, src, h);
          return flat(src);
        }
        Array<double, R> dst(Shape<R>(e), ld);
        comm::butterfly_into(dst, src, h);
        return flat(dst);
      };
      Array<double, R> src(Shape<R>(e), ls);
      fill(src, seed);
      c.ref.resize(static_cast<std::size_t>(n));
      for (index_t i = 0; i < n; ++i) {
        c.ref[static_cast<std::size_t>(i)] = src[i ^ h];
      }
    });
  } else if (kind == 6) {  // spread_into: rank R-1 -> R
    with_rank(d.in(2, 3), [&](auto rk) {
      constexpr std::size_t R = decltype(rk)::value;
      if constexpr (R >= 2) {
        const auto e = draw_extents<R>(d);
        const auto axis = static_cast<std::size_t>(d.in(0, R - 1));
        std::array<index_t, R - 1> es{};
        for (std::size_t a = 0, w = 0; a < R; ++a) {
          if (a != axis) es[w++] = e[a];
        }
        desc << "spread ext=" << str(e) << " axis=" << axis << " src=";
        const Layout<R - 1> ls = draw_layout<R - 1>(d, p, desc);
        desc << " dst=";
        const Layout<R> ld = draw_layout<R>(d, p, desc);
        c.run = [=] {
          Array<double, R - 1> src(Shape<R - 1>(es), ls);
          Array<double, R> dst(Shape<R>(e), ld);
          fill(src, seed);
          comm::spread_into(dst, src, axis);
          return flat(dst);
        };
        Array<double, R - 1> src(Shape<R - 1>(es), ls);
        fill(src, seed);
        index_t inner = 1;
        for (std::size_t a = axis + 1; a < R; ++a) inner *= e[a];
        const index_t n = e[axis];
        index_t total = 1;
        for (index_t x : e) total *= x;
        for (index_t L = 0; L < total; ++L) {
          c.ref.push_back(src[(L / (n * inner)) * inner + L % inner]);
        }
      }
    });
  } else if (kind <= 9 || kind == 16) {
    // gather (7), scatter (8), scatter-add (9), split-phase scatter-add (16)
    const bool split = kind == 16;
    const index_t rd = d.in(1, 3);
    const index_t rs = d.in(1, 3);
    with_rank(rd, [&](auto rkd) {
      with_rank(rs, [&](auto rks) {
        constexpr std::size_t RD = decltype(rkd)::value;
        constexpr std::size_t RS = decltype(rks)::value;
        const auto ed = draw_extents<RD>(d);
        const auto es = draw_extents<RS>(d);
        index_t nd = 1, ns = 1;
        for (index_t x : ed) nd *= x;
        for (index_t x : es) ns *= x;
        // Targets come from a random prefix of the peer, so maps collide.
        const bool gathers = kind == 7;
        const index_t peer = gathers ? ns : nd;
        const index_t range = d.in(1, peer);
        const std::uint64_t mseed = seed * 31 + 5;
        desc << (gathers    ? "gather"
                 : kind == 8 ? "scatter"
                 : split     ? "split-phase scatter-add"
                             : "scatter-add")
             << " dst=" << str(ed) << " src=" << str(es)
             << " map range=" << range << " dst layout=";
        const Layout<RD> ld = draw_layout<RD>(d, p, desc);
        desc << " src layout=";
        const Layout<RS> ls = draw_layout<RS>(d, p, desc);
        std::vector<index_t> map(static_cast<std::size_t>(gathers ? nd : ns));
        {
          Draw md(mseed);
          for (auto& m : map) m = md.in(0, range - 1);
        }
        c.run = [=] {
          Array<double, RD> dst(Shape<RD>(ed), ld);
          Array<double, RS> src(Shape<RS>(es), ls);
          fill(dst, seed + 1);
          fill(src, seed);
          if (gathers) {
            Array<index_t, RD> mp{Shape<RD>(ed)};
            for (index_t i = 0; i < nd; ++i) mp[i] = map[std::size_t(i)];
            comm::gather_into(dst, src, mp);
          } else {
            Array<index_t, RS> mp{Shape<RS>(es)};
            for (index_t j = 0; j < ns; ++j) mp[j] = map[std::size_t(j)];
            if (kind == 8) {
              comm::scatter_into(dst, src, mp);
            } else if (split) {
              auto handle = comm::scatter_add_start(dst, src, mp);
              // Every write to dst waits for finish: dst is free inside
              // the window.
              for (index_t i = 0; i < nd; ++i) dst[i] = 0.0;
              handle.finish();
            } else {
              comm::scatter_add_into(dst, src, mp);
            }
          }
          return flat(dst);
        };
        Array<double, RD> dst(Shape<RD>(ed), ld);
        Array<double, RS> src(Shape<RS>(es), ls);
        fill(dst, seed + 1);
        fill(src, seed);
        c.ref = flat(dst);
        if (split) std::fill(c.ref.begin(), c.ref.end(), 0.0);
        if (gathers) {
          for (index_t i = 0; i < nd; ++i) {
            c.ref[std::size_t(i)] = src[map[std::size_t(i)]];
          }
        } else {
          for (index_t j = 0; j < ns; ++j) {
            double& t = c.ref[std::size_t(map[std::size_t(j)])];
            t = kind == 8 ? src[j] : t + src[j];
          }
        }
      });
    });
  } else if (kind <= 13) {  // one of the ten full reductions
    const index_t which = d.in(0, 9);
    c.moves_data = false;
    with_rank(d.in(1, 3), [&](auto rk) {
      constexpr std::size_t R = decltype(rk)::value;
      const auto e = draw_extents<R>(d);
      desc << kReductions[which] << " ext=" << str(e) << " layout=";
      const Layout<R> l = draw_layout<R>(d, p, desc);
      index_t n = 1;
      for (index_t x : e) n *= x;
      // Mask density: none set (0), all set (4), or each element set with
      // odds 1 in density + 1.
      const index_t density = d.in(0, 4);
      desc << " mask density=" << density;
      std::vector<double> x(static_cast<std::size_t>(n));
      std::vector<double> y(x.size());
      std::vector<std::uint8_t> m(x.size());
      int twos = 0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (which == 5) {
          // Products of +-1 with a few +-2: powers of two, exact.
          const bool two = twos < 40 && d.one_in(16);
          twos += two ? 1 : 0;
          x[i] = (two ? 2.0 : 1.0) * (d.one_in(2) ? -1.0 : 1.0);
        } else if (which >= 2 && which <= 4) {
          x[i] = static_cast<double>(d.in(-50, 50));
        } else {
          x[i] = sum_term(d);
        }
        y[i] = sum_term(d);
        m[i] = density == 0   ? 0
               : density == 4 ? 1
                              : static_cast<std::uint8_t>(d.one_in(
                                    static_cast<int>(density) + 1));
      }
      c.run = [=] {
        Array<double, R> a(Shape<R>(e), l), b(Shape<R>(e), l);
        Array<std::uint8_t, R> mk(Shape<R>(e), l);
        for (index_t i = 0; i < n; ++i) {
          a[i] = x[static_cast<std::size_t>(i)];
          b[i] = y[static_cast<std::size_t>(i)];
          mk[i] = m[static_cast<std::size_t>(i)];
        }
        return std::vector<double>{reduce<R>(which, a, b, mk)};
      };
      c.ref = {reduce_ref(which, x, y, m)};
    });
  } else if (kind == 14) {  // scan_sum_into, inclusive or exclusive
    const bool exclusive = d.one_in(2);
    const auto e = draw_extents<1>(d);
    desc << (exclusive ? "exclusive" : "inclusive") << " scan ext=" << str(e)
         << " layout=";
    const Layout<1> l = draw_layout<1>(d, p, desc);
    std::vector<double> x(static_cast<std::size_t>(e[0]));
    for (double& v : x) v = sum_term(d);
    c.moves_data = false;
    c.run = [=] {
      Array1<double> src(Shape<1>(e), l), dst(Shape<1>(e), l);
      for (index_t i = 0; i < e[0]; ++i) src[i] = x[std::size_t(i)];
      comm::scan_sum_into(dst, src, exclusive);
      return flat(dst);
    };
    double acc = 0.0;
    for (const double v : x) {
      if (exclusive) c.ref.push_back(acc);
      acc += v;
      if (!exclusive) c.ref.push_back(acc);
    }
  } else {  // pshift: 1-6 circular shifts of one array, one bundle
    with_rank(d.in(1, 3), [&](auto rk) {
      constexpr std::size_t R = decltype(rk)::value;
      const auto e = draw_extents<R>(d);
      std::vector<comm::ShiftSpec> specs(static_cast<std::size_t>(d.in(1, 6)));
      desc << "pshift ext=" << str(e) << " specs";
      for (comm::ShiftSpec& sp : specs) {
        sp.axis = static_cast<std::size_t>(d.in(0, R - 1));
        const index_t n = e[sp.axis];
        sp.offset = d.one_in(4) ? 0 : d.in(-2 * n, 2 * n);
        desc << " (" << sp.axis << "," << sp.offset << ")";
      }
      desc << " layout=";
      const Layout<R> l = draw_layout<R>(d, p, desc);
      c.run = [=] {
        Array<double, R> src(Shape<R>(e), l);
        fill(src, seed);
        std::vector<double> out;
        for (const auto& v :
             comm::pshift(src, std::span<const comm::ShiftSpec>(specs))) {
          const auto r = flat(v);
          out.insert(out.end(), r.begin(), r.end());
        }
        return out;
      };
      Array<double, R> src(Shape<R>(e), l);
      fill(src, seed);
      for (const comm::ShiftSpec& sp : specs) {
        const auto r =
            ref_shift<R>(flat(src), e, sp.axis, sp.offset, true, 0.0);
        c.ref.insert(c.ref.end(), r.begin(), r.end());
      }
    });
  }
  c.desc = desc.str();
  Machine::instance().configure(p);
  return c;
}

class CommFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("DPF_NET"); }
  void TearDown() override {
    unsetenv("DPF_NET");
    Machine::instance().configure(Machine::default_vps());
  }
};

struct ModeRun {
  std::vector<double> out;
  std::vector<CommEvent> events;
  std::uint64_t posted = 0;
};

ModeRun run_in(const char* mode, const Case& c) {
  if (mode == nullptr) {
    unsetenv("DPF_NET");
  } else {
    setenv("DPF_NET", mode, 1);
  }
  net::transport().reset();
  CommLog::instance().reset();
  ModeRun r;
  r.out = c.run();
  r.events = CommLog::instance().events();
  r.posted = net::transport().stats().bytes;
  unsetenv("DPF_NET");
  return r;
}

TEST_F(CommFuzzTest, DirectAndOverlapMatchSerialLoop) {
  for (int k = 0; k < kCases; ++k) {
    const Case c = draw_case(kBaseSeed + static_cast<std::uint64_t>(k));
    SCOPED_TRACE(c.desc);
    const ModeRun direct = run_in(nullptr, c);
    const ModeRun overlap = run_in("overlap", c);
    EXPECT_EQ(0u, net::transport().pending());

    ASSERT_EQ(c.ref.size(), direct.out.size());
    ASSERT_EQ(c.ref.size(), overlap.out.size());
    for (std::size_t i = 0; i < c.ref.size(); ++i) {
      ASSERT_EQ(bits_of(c.ref[i]), bits_of(direct.out[i]))
          << "direct differs at " << i << ": " << direct.out[i] << " vs "
          << c.ref[i];
      ASSERT_EQ(bits_of(c.ref[i]), bits_of(overlap.out[i]))
          << "overlap differs at " << i << ": " << overlap.out[i] << " vs "
          << c.ref[i];
    }

    ASSERT_FALSE(direct.events.empty());
    ASSERT_EQ(direct.events.size(), overlap.events.size());
    index_t offproc = 0;
    for (std::size_t i = 0; i < direct.events.size(); ++i) {
      const CommEvent& a = direct.events[i];
      const CommEvent& b = overlap.events[i];
      EXPECT_EQ(a.pattern, b.pattern) << "event " << i;
      EXPECT_EQ(a.src_rank, b.src_rank) << "event " << i;
      EXPECT_EQ(a.dst_rank, b.dst_rank) << "event " << i;
      EXPECT_EQ(a.bytes, b.bytes) << "event " << i;
      EXPECT_EQ(a.offproc_bytes, b.offproc_bytes) << "event " << i;
      EXPECT_EQ(a.detail, b.detail) << "event " << i;
      offproc += b.offproc_bytes;
    }
    EXPECT_EQ(0u, direct.posted);
    if (c.moves_data) {
      EXPECT_EQ(static_cast<std::uint64_t>(offproc), overlap.posted)
          << "the transport must carry exactly the off-processor bytes";
    } else {
      EXPECT_EQ(Machine::instance().vps() > 1, overlap.posted > 0)
          << "the partials travel the transport exactly when p > 1";
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace dpf
