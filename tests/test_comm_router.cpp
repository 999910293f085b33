// The router's traffic, pinned: every gather- and scatter-side operation
// (gather, get, scatter, send, scatter-add, send-add, gather-add, the
// split-phase scatter_add_start) and spread, between a 2-D array and a 1-D
// array, on an explicit 2x2 processor grid at p = 4 and on the outermost-
// axis fold at p = 3 and p = 8, through a collision-heavy map.
//
// Three properties per operation:
//   * results are bitwise equal across DPF_NET=direct and overlap, and
//     equal a serial reference loop;
//   * in every mode the recorded off-processor bytes equal the element
//     count a brute-force owner scan finds crossing VPs (times 8 bytes),
//     and under overlap the transport carries exactly those bytes;
//   * the transport carries one message per distinct (sender, receiver)
//     pair with sender != receiver in that scan.
//
// A run of 40 distinct maps of one shape through gather and scatter-add
// then checks every call's recorded bytes, and that the router classifies
// all of them from the two arrays' owner tables, built once each.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "core/memo.hpp"
#include "net/net.hpp"

namespace dpf {
namespace {

constexpr index_t kRows = 12;
constexpr index_t kCols = 10;
constexpr index_t kLen = 97;  ///< the 1-D array and the map

const char* const kModes[] = {"direct", "overlap"};

void set_mode(const char* m) {
  if (std::strcmp(m, "direct") == 0) {
    unsetenv("DPF_NET");
  } else {
    setenv("DPF_NET", m, 1);
  }
}

enum class Op {
  Gather,
  Get,
  Scatter,
  Send,
  ScatterAdd,
  SendAdd,
  GatherAdd,
  ScatterAddStart,
  SpreadAxis0,
  SpreadAxis1,
};

struct OpInfo {
  Op op;
  const char* name;
  CommPattern pattern;
};

const OpInfo kOps[] = {
    {Op::Gather, "gather", CommPattern::Gather},
    {Op::Get, "get", CommPattern::Get},
    {Op::Scatter, "scatter", CommPattern::Scatter},
    {Op::Send, "send", CommPattern::Send},
    {Op::ScatterAdd, "scatter-add", CommPattern::ScatterCombine},
    {Op::SendAdd, "send-add", CommPattern::Send},
    {Op::GatherAdd, "gather-add", CommPattern::GatherCombine},
    {Op::ScatterAddStart, "scatter_add_start", CommPattern::ScatterCombine},
    {Op::SpreadAxis0, "spread axis 0", CommPattern::Spread},
    {Op::SpreadAxis1, "spread axis 1", CommPattern::Spread},
};

bool gathers(Op op) { return op == Op::Gather || op == Op::Get; }
bool spreads(Op op) { return op == Op::SpreadAxis0 || op == Op::SpreadAxis1; }
bool adds(Op op) {
  return op == Op::ScatterAdd || op == Op::SendAdd || op == Op::GatherAdd ||
         op == Op::ScatterAddStart;
}

/// One processor arrangement: the 2-D array's layout at p VPs.
struct Config {
  int p;
  bool grid;  ///< explicit 2x2 grid (p = 4) or the outermost-axis fold
};

const Config kConfigs[] = {{4, true}, {3, false}, {8, false}};

/// Fresh inputs of one operation. The 2-D array is the gather source and
/// the scatter/spread destination; `line` is the paired 1-D array; `map`
/// indexes the 2-D array, hitting 30 targets about three times each.
struct Arrays {
  Array2<double> plane;
  Array1<double> line{Shape<1>(kLen)};
  Array1<index_t> map{Shape<1>(kLen)};
  Array1<double> row{Shape<1>(kCols)};  ///< spread source along axis 0
  Array1<double> col{Shape<1>(kRows)};  ///< spread source along axis 1

  explicit Arrays(bool grid)
      : plane(Shape<2>(kRows, kCols),
              grid ? Layout<2>{}.with_grid({2, 2}) : Layout<2>{}) {
    for (index_t i = 0; i < plane.size(); ++i) {
      const double x = static_cast<double>(i);
      plane[i] = 0.25 * x + 1.0 / (x + 3.0);
    }
    for (index_t j = 0; j < kLen; ++j) {
      const double x = static_cast<double>(j);
      line[j] = 1.0 / (x + 7.0) - 0.125 * static_cast<double>(j % 5);
      map[j] = ((j * 37 + 11) % 31) * 4 % plane.size();
    }
    for (index_t j = 0; j < kCols; ++j) row[j] = 3.0 + 1.0 / (j + 2.0);
    for (index_t i = 0; i < kRows; ++i) col[i] = -1.0 - 1.0 / (i + 5.0);
  }

  /// The destination of `op` after it ran, flattened.
  [[nodiscard]] std::vector<double> result(Op op) const {
    std::vector<double> out;
    if (gathers(op)) {
      for (index_t j = 0; j < kLen; ++j) out.push_back(line[j]);
    } else {
      for (index_t i = 0; i < plane.size(); ++i) out.push_back(plane[i]);
    }
    return out;
  }
};

/// Runs `op` on `a` through the library.
void run(Op op, Arrays& a) {
  switch (op) {
    case Op::Gather: comm::gather_into(a.line, a.plane, a.map); break;
    case Op::Get: comm::get_into(a.line, a.plane, a.map); break;
    case Op::Scatter: comm::scatter_into(a.plane, a.line, a.map); break;
    case Op::Send: comm::send_into(a.plane, a.line, a.map); break;
    case Op::ScatterAdd:
      comm::scatter_add_into(a.plane, a.line, a.map);
      break;
    case Op::SendAdd: comm::send_add_into(a.plane, a.line, a.map); break;
    case Op::GatherAdd: comm::gather_add_into(a.plane, a.line, a.map); break;
    case Op::ScatterAddStart: {
      // The fem-3D shape: the accumulator is rewritten inside the window.
      auto h = comm::scatter_add_start(a.plane, a.line, a.map);
      for (index_t i = 0; i < a.plane.size(); ++i) a.plane[i] *= 0.5;
      h.finish();
      break;
    }
    case Op::SpreadAxis0: comm::spread_into(a.plane, a.row, 0); break;
    case Op::SpreadAxis1: comm::spread_into(a.plane, a.col, 1); break;
  }
}

/// The serial definition of `op` on plain vectors.
std::vector<double> reference(Op op, const Arrays& a) {
  std::vector<double> out = a.result(op);
  for (index_t j = 0; j < kLen; ++j) {
    const std::size_t t = static_cast<std::size_t>(a.map[j]);
    if (gathers(op)) {
      out[static_cast<std::size_t>(j)] = a.plane[a.map[j]];
    } else if (!spreads(op) && !adds(op)) {
      out[t] = a.line[j];
    }
  }
  if (op == Op::ScatterAddStart) {
    for (double& v : out) v *= 0.5;
  }
  if (adds(op)) {
    for (index_t j = 0; j < kLen; ++j) {
      out[static_cast<std::size_t>(a.map[j])] += a.line[j];
    }
  }
  if (spreads(op)) {
    for (index_t i = 0; i < kRows; ++i) {
      for (index_t c = 0; c < kCols; ++c) {
        out[static_cast<std::size_t>(i * kCols + c)] =
            op == Op::SpreadAxis0 ? a.row[c] : a.col[i];
      }
    }
  }
  return out;
}

/// Brute-force owner scan: the (sender, receiver) VP of every element the
/// operation moves.
std::vector<std::pair<int, int>> routes(Op op, const Arrays& a) {
  using comm::detail::owner_id_linear;
  std::vector<std::pair<int, int>> r;
  if (spreads(op)) {
    for (index_t L = 0; L < a.plane.size(); ++L) {
      const int to = owner_id_linear(a.plane, L);
      const int from = op == Op::SpreadAxis0
                           ? owner_id_linear(a.row, L % kCols)
                           : owner_id_linear(a.col, L / kCols);
      r.emplace_back(from, to);
    }
    return r;
  }
  for (index_t j = 0; j < kLen; ++j) {
    const int on_plane = owner_id_linear(a.plane, a.map[j]);
    const int on_line = owner_id_linear(a.line, j);
    if (gathers(op)) {
      r.emplace_back(on_plane, on_line);
    } else {
      r.emplace_back(on_line, on_plane);
    }
  }
  return r;
}

class CommRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
    CommLog::instance().reset();
  }
  void TearDown() override {
    unsetenv("DPF_NET");
    unsetenv("DPF_WORKERS");
    Machine::instance().configure(Machine::default_vps());
  }
};

TEST_F(CommRouterTest, ResultsBitIdenticalAcrossModes) {
  for (const Config& c : kConfigs) {
    Machine::instance().configure(c.p);
    for (const OpInfo& o : kOps) {
      std::vector<double> direct;
      for (const char* m : kModes) {
        Arrays a(c.grid);
        const std::vector<double> expect = reference(o.op, a);
        set_mode(m);
        run(o.op, a);
        set_mode("direct");
        const std::vector<double> got = a.result(o.op);
        if (std::strcmp(m, "direct") == 0) {
          direct = got;
          ASSERT_EQ(got.size(), expect.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], expect[i])
                << o.name << " p=" << c.p << " index " << i;
          }
          continue;
        }
        ASSERT_EQ(got.size(), direct.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], direct[i]) << o.name << " diverged in mode " << m
                                       << " p=" << c.p << " index " << i;
        }
      }
    }
  }
}

TEST_F(CommRouterTest, TransportCarriesOffprocBytesInOneMessagePerPair) {
  for (const Config& c : kConfigs) {
    Machine::instance().configure(c.p);
    for (const OpInfo& o : kOps) {
      Arrays a(c.grid);
      std::uint64_t crossing = 0;
      std::set<std::pair<int, int>> pairs;
      for (const auto& [from, to] : routes(o.op, a)) {
        if (from == to) continue;
        ++crossing;
        pairs.emplace(from, to);
      }
      const std::string what =
          std::string(o.name) + " p=" + std::to_string(c.p);
      // On the fold, row i of the plane and element i of the column
      // share an owner, so spreading along axis 1 moves nothing.
      if (c.grid || o.op != Op::SpreadAxis1) {
        ASSERT_GT(crossing, 0u) << what << ": the op must cross VPs";
      }

      net::transport().reset();
      CommLog::instance().reset();
      set_mode("overlap");
      run(o.op, a);
      set_mode("direct");
      const net::TransportStats stats = net::transport().stats();
      const auto events = CommLog::instance().events();

      ASSERT_EQ(events.size(), 1u) << what;
      EXPECT_EQ(events[0].pattern, o.pattern) << what;
      EXPECT_EQ(events[0].offproc_bytes,
                static_cast<index_t>(crossing * sizeof(double)))
          << what;
      EXPECT_EQ(stats.bytes,
                static_cast<std::uint64_t>(events[0].offproc_bytes))
          << what;
      EXPECT_EQ(stats.messages, pairs.size()) << what;
      EXPECT_EQ(net::transport().pending(), 0u) << what;
    }
  }
}

/// Elements of `op` on `a` that a brute-force owner scan finds crossing VPs.
std::uint64_t crossing_elements(Op op, const Arrays& a) {
  std::uint64_t crossing = 0;
  for (const auto& [from, to] : routes(op, a)) crossing += from != to;
  return crossing;
}

TEST_F(CommRouterTest, DirectModeRecordsTheOwnerScanBytes) {
  for (const Config& c : kConfigs) {
    Machine::instance().configure(c.p);
    for (const OpInfo& o : kOps) {
      Arrays a(c.grid);
      const std::uint64_t crossing = crossing_elements(o.op, a);
      const std::string what =
          std::string(o.name) + " p=" + std::to_string(c.p);
      net::transport().reset();
      CommLog::instance().reset();
      run(o.op, a);
      const auto events = CommLog::instance().events();
      ASSERT_EQ(events.size(), 1u) << what;
      EXPECT_EQ(events[0].pattern, o.pattern) << what;
      EXPECT_EQ(events[0].offproc_bytes,
                static_cast<index_t>(crossing * sizeof(double)))
          << what;
      EXPECT_EQ(net::transport().stats().messages, 0u) << what;
    }
  }
}

TEST_F(CommRouterTest, FortyMapsOfOneShapeCountBytesFromTwoOwnerTables) {
  constexpr index_t kMaps = 40;  // more than any per-map memo would hold
  for (const Config& c : kConfigs) {
    Machine::instance().configure(c.p);
    comm::detail::owner_table_memo().clear();
    const MemoStats before = comm::detail::owner_table_memo().stats();
    for (const char* m : kModes) {
      for (index_t k = 0; k < kMaps; ++k) {
        for (const Op op : {Op::Gather, Op::ScatterAdd}) {
          Arrays a(c.grid);
          // map[0] = 7k + 1 differs for every k < 40.
          for (index_t j = 0; j < kLen; ++j) {
            a.map[j] = (j * (2 * k + 3) + 7 * k + 1) % a.plane.size();
          }
          const std::uint64_t crossing = crossing_elements(op, a);
          const std::string what =
              std::string(gathers(op) ? "gather" : "scatter-add") + " map " +
              std::to_string(k) + " mode=" + m + " p=" + std::to_string(c.p);
          net::transport().reset();
          CommLog::instance().reset();
          set_mode(m);
          run(op, a);
          set_mode("direct");
          const auto events = CommLog::instance().events();
          ASSERT_EQ(events.size(), 1u) << what;
          EXPECT_EQ(events[0].offproc_bytes,
                    static_cast<index_t>(crossing * sizeof(double)))
              << what;
          if (std::strcmp(m, "direct") != 0) {
            EXPECT_EQ(net::transport().stats().bytes,
                      crossing * sizeof(double))
                << what;
          }
        }
      }
    }
    const MemoStats after = comm::detail::owner_table_memo().stats();
    EXPECT_EQ(after.built - before.built, 2u)
        << "p=" << c.p << ": one table for the plane, one for the line";
    EXPECT_EQ(after.evicted - before.evicted, 0u) << "p=" << c.p;
  }
}

}  // namespace
}  // namespace dpf
