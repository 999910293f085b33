// Tests for the dpf::trace subsystem: mode selection, event recording for
// regions/chunks/collectives, ring-buffer overflow (drop-oldest with a
// surfaced dropped counter), determinism of per-worker region and
// collective counts with every region's chunks covering its VPs once, and
// the Chrome trace / terminal summary exporters.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/machine.hpp"
#include "core/registry.hpp"
#include "trace/chrome_export.hpp"
#include "trace/flight.hpp"
#include "trace/summary.hpp"
#include "trace/trace.hpp"

namespace dpf {
namespace {

constexpr std::size_t kDefaultCap = std::size_t{1} << 15;

std::size_t count_kind(const trace::Snapshot& snap, trace::EventKind kind) {
  std::size_t n = 0;
  for (const auto& w : snap.workers) {
    for (const auto& e : w.events) n += (e.kind == kind);
  }
  return n;
}

std::size_t count_kind_on(const trace::WorkerTrace& w, trace::EventKind kind) {
  std::size_t n = 0;
  for (const auto& e : w.events) n += (e.kind == kind);
  return n;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
    Machine::instance().configure(8);
    trace::set_ring_capacity(kDefaultCap);
    trace::set_mode(trace::Mode::Summary);
    trace::reset();
    CommLog::instance().reset();
  }
  void TearDown() override {
    trace::set_mode(trace::Mode::Off);
    trace::set_ring_capacity(kDefaultCap);
    unsetenv("DPF_NET");
    unsetenv("DPF_WORKERS");
    Machine::instance().configure(Machine::default_vps());
  }
};

TEST_F(TraceTest, ParseModeRecognizesLevels) {
  EXPECT_EQ(trace::parse_mode(nullptr), trace::Mode::Off);
  EXPECT_EQ(trace::parse_mode("off"), trace::Mode::Off);
  EXPECT_EQ(trace::parse_mode("summary"), trace::Mode::Summary);
  EXPECT_EQ(trace::parse_mode("full"), trace::Mode::Full);
  EXPECT_EQ(trace::parse_mode("bogus"), trace::Mode::Off);
}

TEST_F(TraceTest, OffModeRecordsNothing) {
  trace::set_mode(trace::Mode::Off);
  trace::reset();
  Machine::instance().spmd([](int) {});
  const auto snap = trace::collect();
  EXPECT_EQ(snap.event_count(), 0u);
}

TEST_F(TraceTest, RegionEventsLandOnDispatcherRing) {
  Machine& m = Machine::instance();
  constexpr int kRegions = 5;
  for (int i = 0; i < kRegions; ++i) m.spmd([](int) {});
  const auto snap = trace::collect();
  ASSERT_FALSE(snap.workers.empty());
  EXPECT_EQ(count_kind_on(snap.workers[0], trace::EventKind::Region),
            static_cast<std::size_t>(kRegions));
  // Region serials are consecutive and match the machine counter.
  std::vector<std::uint32_t> serials;
  for (const auto& e : snap.workers[0].events) {
    if (e.kind == trace::EventKind::Region) serials.push_back(e.serial);
  }
  for (std::size_t i = 1; i < serials.size(); ++i) {
    EXPECT_EQ(serials[i], serials[i - 1] + 1);
  }
  EXPECT_EQ(serials.back(),
            static_cast<std::uint32_t>(m.region_serial()));
}

TEST_F(TraceTest, ChunkEventsCoverEveryVp) {
  Machine& m = Machine::instance();
  trace::reset();
  m.spmd([](int) {});
  const auto snap = trace::collect();
  // With vps=8, workers=4 the chunk size is 1, so the chunks of one region
  // partition [0,8) exactly (which worker claimed each is racy; the union
  // is not).
  std::vector<bool> seen(8, false);
  std::size_t chunks = 0;
  for (const auto& w : snap.workers) {
    for (const auto& e : w.events) {
      if (e.kind != trace::EventKind::Chunk) continue;
      ++chunks;
      EXPECT_LE(e.t0_ns, e.t1_ns);
      for (int vp = e.x; vp < e.y; ++vp) {
        EXPECT_FALSE(seen[static_cast<std::size_t>(vp)])
            << "vp " << vp << " claimed twice";
        seen[static_cast<std::size_t>(vp)] = true;
      }
    }
  }
  EXPECT_EQ(chunks, 8u);
  for (int vp = 0; vp < 8; ++vp) EXPECT_TRUE(seen[static_cast<std::size_t>(vp)]);
}

TEST_F(TraceTest, CollectiveEventsCarryPatternBytesAndPrediction) {
  auto a = make_vector<double>(256);
  for (index_t i = 0; i < 256; ++i) a[i] = static_cast<double>(i);
  trace::reset();
  auto shifted = comm::cshift(a, 0, 3);
  (void)shifted;
  const auto snap = trace::collect();
  std::size_t found = 0;
  for (const auto& w : snap.workers) {
    for (const auto& e : w.events) {
      if (e.kind != trace::EventKind::Collective) continue;
      ++found;
      EXPECT_EQ(static_cast<CommPattern>(e.pattern), CommPattern::CShift);
      EXPECT_EQ(e.arg, static_cast<std::uint64_t>(256 * sizeof(double)));
      EXPECT_GE(e.aux, 0.0);  // predicted seconds (0 before calibration)
      EXPECT_LE(e.t0_ns, e.t1_ns);
    }
  }
  EXPECT_EQ(found, 1u);
}

TEST_F(TraceTest, FullModeAddsTransportSpansSummaryDoesNot) {
  setenv("DPF_NET", "overlap", 1);
  Machine::instance().configure(4);
  auto a = make_vector<double>(64);
  for (index_t i = 0; i < 64; ++i) a[i] = static_cast<double>(i);

  trace::set_mode(trace::Mode::Summary);
  trace::reset();
  auto s1 = comm::cshift(a, 0, 1);
  (void)s1;
  auto snap = trace::collect();
  EXPECT_EQ(count_kind(snap, trace::EventKind::Post), 0u);
  EXPECT_EQ(count_kind(snap, trace::EventKind::Fetch), 0u);

  trace::set_mode(trace::Mode::Full);
  trace::reset();
  auto s2 = comm::cshift(a, 0, 1);
  (void)s2;
  snap = trace::collect();
  EXPECT_GT(count_kind(snap, trace::EventKind::Post), 0u);
  EXPECT_GT(count_kind(snap, trace::EventKind::Fetch), 0u);
}

TEST_F(TraceTest, OverflowDropsOldestAndCountsThem) {
  trace::set_ring_capacity(64);
  Machine& m = Machine::instance();
  constexpr int kRegions = 300;
  for (int i = 0; i < kRegions; ++i) m.spmd([](int) {});
  const std::uint64_t last_serial = m.region_serial();

  const auto snap = trace::collect();
  ASSERT_FALSE(snap.workers.empty());
  const auto& w0 = snap.workers[0];
  EXPECT_EQ(w0.events.size(), 64u) << "ring keeps exactly its capacity";
  EXPECT_GT(w0.dropped, 0u);
  EXPECT_GT(snap.dropped_count(), 0u);

  // Drop-oldest: the newest events survive, so the final region's serial is
  // present and every retained serial is from the tail of the run.
  std::uint32_t max_serial = 0;
  std::uint32_t min_serial = ~std::uint32_t{0};
  for (const auto& e : w0.events) {
    if (e.kind != trace::EventKind::Region) continue;
    max_serial = std::max(max_serial, e.serial);
    min_serial = std::min(min_serial, e.serial);
  }
  EXPECT_EQ(max_serial, static_cast<std::uint32_t>(last_serial));
  EXPECT_GT(min_serial,
            static_cast<std::uint32_t>(last_serial) -
                static_cast<std::uint32_t>(kRegions));

  // The dropped counter is surfaced in the terminal summary.
  const std::string summary = trace::format_trace_summary(snap);
  EXPECT_NE(summary.find("dropped"), std::string::npos);
}

// Two runs of the same benchmark produce identical per-worker counts for
// the deterministic event kinds. Region and Collective events are emitted
// by the control thread (worker 0); chunk events are compared as a total
// because *which* worker claims a chunk off the shared cursor is racy by
// design, while the chunk partition itself — and hence the total count —
// is fixed.
TEST_F(TraceTest, EventCountsAreDeterministicAcrossRuns) {
  register_all_benchmarks();
  const BenchmarkDef* def = Registry::instance().find("reduction");
  ASSERT_NE(def, nullptr);
  RunConfig cfg;
  cfg.params["n"] = 4096;
  cfg.params["iters"] = 4;

  (void)def->run_with_defaults(cfg);  // warm up lazy calibrations

  // Region and collective spans land on the dispatcher's ring in program
  // order, so their counts repeat exactly. Whether a region ran inline (one
  // chunk on worker 0) or fanned out (chunks on any worker) depends on
  // timing, so chunks are checked for coverage instead: each region's
  // chunks cover [0, P) exactly once.
  const int p = Machine::instance().vps();
  auto run_counts = [&] {
    trace::reset();
    (void)def->run_with_defaults(cfg);
    const auto snap = trace::collect();
    std::vector<std::size_t> per_worker;
    std::map<std::uint32_t, std::vector<int>> hits;
    for (const auto& w : snap.workers) {
      per_worker.push_back(count_kind_on(w, trace::EventKind::Region));
      per_worker.push_back(count_kind_on(w, trace::EventKind::Collective));
      for (const auto& e : w.events) {
        if (e.kind != trace::EventKind::Chunk) continue;
        auto& vps = hits[e.serial];
        vps.resize(static_cast<std::size_t>(p), 0);
        for (int vp = e.x; vp < e.y; ++vp) ++vps[static_cast<std::size_t>(vp)];
      }
    }
    EXPECT_EQ(hits.size(), count_kind_on(snap.workers[0],
                                         trace::EventKind::Region));
    for (const auto& [serial, vps] : hits) {
      for (int vp = 0; vp < p; ++vp) {
        EXPECT_EQ(vps[static_cast<std::size_t>(vp)], 1)
            << "region " << serial << " vp " << vp;
      }
    }
    return per_worker;
  };

  const auto first = run_counts();
  const auto second = run_counts();
  EXPECT_EQ(first, second);
  // Sanity: the run actually traced something.
  std::size_t total = 0;
  for (std::size_t c : first) total += c;
  EXPECT_GT(total, 0u);
}

TEST_F(TraceTest, ChromeExportWritesLoadableJson) {
  auto a = make_vector<double>(128);
  for (index_t i = 0; i < 128; ++i) a[i] = static_cast<double>(i);
  trace::set_mode(trace::Mode::Full);
  trace::reset();
  auto s = comm::cshift(a, 0, 1);
  (void)s;
  double total = comm::reduce_sum(a);
  (void)total;

  const std::string path = ::testing::TempDir() + "dpf_trace_test.json";
  const auto snap = trace::collect();
  ASSERT_TRUE(trace::write_chrome_trace(path, snap));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(path.c_str());

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("CSHIFT"), std::string::npos);
  EXPECT_NE(json.find("\"pattern\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_s\""), std::string::npos);
  // Balanced braces — cheap structural sanity for the hand-rolled writer.
  std::ptrdiff_t depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceTest, SummaryListsEveryWorkerAndCollectives) {
  auto a = make_vector<double>(256);
  for (index_t i = 0; i < 256; ++i) a[i] = 1.0;
  trace::reset();
  double total = comm::reduce_sum(a);
  EXPECT_DOUBLE_EQ(total, 256.0);

  const auto snap = trace::collect();
  const std::string summary = trace::format_trace_summary(snap);
  EXPECT_NE(summary.find("trace summary"), std::string::npos);
  for (const auto& w : snap.workers) {
    EXPECT_NE(summary.find("\n  " + std::to_string(w.worker) + " "),
              std::string::npos)
        << "worker " << w.worker << " missing from summary:\n"
        << summary;
  }
  EXPECT_NE(summary.find("Reduction"), std::string::npos);
}

// --- bytes-in-flight reconstruction (trace/flight.hpp) ---------------------

trace::Event transport_event(trace::EventKind kind, std::uint64_t t0,
                             std::uint64_t t1, std::uint64_t bytes,
                             std::uint16_t src, std::uint16_t dst) {
  trace::Event e;
  e.kind = kind;
  e.t0_ns = t0;
  e.t1_ns = t1;
  e.arg = bytes;
  e.x = src;
  e.y = dst;
  return e;
}

// Synthetic timeline with a fetch whose post was lost (ring overflow) and a
// post never fetched inside the snapshot (a long split-phase window): the
// counter must stay non-negative, charge the orphan fetch to
// orphan_fetch_bytes, and report the still-open post as residual.
TEST_F(TraceTest, FlightSeriesAccountsOrphansAndResiduals) {
  trace::Snapshot snap;
  trace::WorkerTrace w;
  w.worker = 0;
  using trace::EventKind;
  // Channel 1->2: a normal post/fetch pair of 100 bytes.
  w.events.push_back(transport_event(EventKind::Post, 10, 11, 100, 1, 2));
  w.events.push_back(transport_event(EventKind::Fetch, 20, 25, 100, 1, 2));
  // Channel 3->4: a fetch of 64 bytes whose post was dropped by overflow.
  w.events.push_back(transport_event(EventKind::Fetch, 30, 32, 64, 3, 4));
  // Channel 5->6: a 48-byte post still in flight when the snapshot landed.
  w.events.push_back(transport_event(EventKind::Post, 40, 41, 48, 5, 6));
  // Channel 7->8: partial orphan — fetch claims more than was posted.
  w.events.push_back(transport_event(EventKind::Post, 50, 51, 16, 7, 8));
  w.events.push_back(transport_event(EventKind::Fetch, 60, 61, 24, 7, 8));
  snap.workers.push_back(std::move(w));

  const auto series = trace::bytes_in_flight(snap);
  ASSERT_EQ(series.samples.size(), 6u);
  for (const auto& s : series.samples) {
    EXPECT_GE(s.bytes, 0) << "level dipped negative at t=" << s.t_ns;
  }
  EXPECT_EQ(series.orphan_fetch_bytes, 64u + 8u);
  EXPECT_EQ(series.residual_bytes, 48u);
  // Level sequence: +100, -100, orphan (no change), +48, +16, -16.
  EXPECT_EQ(series.samples[0].bytes, 100);
  EXPECT_EQ(series.samples[1].bytes, 0);
  EXPECT_EQ(series.samples[2].bytes, 0);
  EXPECT_EQ(series.samples[3].bytes, 48);
  EXPECT_EQ(series.samples[5].bytes, 48);
}

// A same-instant post/fetch pair is a zero-latency hop, not an orphan: the
// post must apply first.
TEST_F(TraceTest, FlightSeriesOrdersPostBeforeFetchAtEqualTimes) {
  trace::Snapshot snap;
  trace::WorkerTrace w;
  using trace::EventKind;
  w.events.push_back(transport_event(EventKind::Fetch, 90, 100, 32, 1, 2));
  w.events.push_back(transport_event(EventKind::Post, 100, 100, 32, 1, 2));
  snap.workers.push_back(std::move(w));
  const auto series = trace::bytes_in_flight(snap);
  EXPECT_EQ(series.orphan_fetch_bytes, 0u);
  EXPECT_EQ(series.residual_bytes, 0u);
  for (const auto& s : series.samples) EXPECT_GE(s.bytes, 0);
}

// Long split-phase windows under a tiny ring: enough posts overflow out of
// the retained window that their fetches arrive post-less. The accounting
// must absorb them — level never negative, losses surfaced as orphan bytes,
// and the closing level exactly the residual.
TEST_F(TraceTest, FlightLevelStaysNonNegativeUnderRingOverflow) {
  setenv("DPF_NET", "overlap", 1);
  trace::set_mode(trace::Mode::Full);
  trace::set_ring_capacity(64);
  Machine::instance().configure(8);

  auto u = make_vector<double>(4096);
  for (index_t i = 0; i < 4096; ++i) u[i] = static_cast<double>(i);
  auto dst = make_vector<double>(4096);
  auto scratch = make_vector<double>(4096);
  for (int it = 0; it < 40; ++it) {
    auto h = comm::cshift_start(dst, u, 0, 7 + it);
    fill_par(scratch, static_cast<double>(it));  // compute in the window
    h.finish();
  }

  const auto snap = trace::collect();
  EXPECT_GT(snap.dropped_count(), 0u) << "test needs ring overflow to bite";
  const auto series = trace::bytes_in_flight(snap);
  ASSERT_FALSE(series.samples.empty());
  for (const auto& s : series.samples) {
    EXPECT_GE(s.bytes, 0) << "level dipped negative at t=" << s.t_ns;
  }
  // Conservation: every posted byte either got fetched, or is still open at
  // the end (residual). The final level is exactly the open bytes.
  EXPECT_EQ(series.samples.back().bytes,
            static_cast<std::int64_t>(series.residual_bytes));
}

// Split-phase windows emit Overlap spans at Summary level, carrying the
// in-flight byte count for the counter track.
TEST_F(TraceTest, SplitPhaseWindowsEmitOverlapSpans) {
  setenv("DPF_NET", "overlap", 1);
  Machine::instance().configure(8);
  trace::set_mode(trace::Mode::Summary);
  trace::reset();

  auto u = make_vector<double>(1024);
  for (index_t i = 0; i < 1024; ++i) u[i] = static_cast<double>(i);
  auto dst = make_vector<double>(1024);
  auto scratch = make_vector<double>(1024);
  auto h = comm::cshift_start(dst, u, 0, 5);
  fill_par(scratch, 2.0);
  h.finish();

  const auto snap = trace::collect();
  std::size_t overlaps = 0;
  for (const auto& w : snap.workers) {
    for (const auto& e : w.events) {
      if (e.kind != trace::EventKind::Overlap) continue;
      ++overlaps;
      EXPECT_GE(e.t1_ns, e.t0_ns);
      EXPECT_GT(e.arg, 0u) << "overlap span with no bytes in flight";
      EXPECT_EQ(e.pattern, static_cast<std::uint8_t>(CommPattern::CShift));
    }
  }
  EXPECT_GT(overlaps, 0u);
  const std::string summary = trace::format_trace_summary(snap);
  EXPECT_NE(summary.find("overlap"), std::string::npos);
}

}  // namespace
}  // namespace dpf
