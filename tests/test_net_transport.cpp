// Tests for the dpf::net transport layer: the phase-based post/fetch
// protocol over per-VP-pair mailboxes, tag and FIFO semantics, machine
// reconfiguration, and the payload-once accounting rule for aliased
// (in-place) exchanges.

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

class NetTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("DPF_WORKERS", "4", 1);
    unsetenv("DPF_NET");
    Machine::instance().configure(4);
    net::transport().reset();
    CommLog::instance().reset();
  }
  void TearDown() override { unsetenv("DPF_NET"); }
};

TEST_F(NetTransportTest, PostThenFetchAcrossRegions) {
  Machine& m = Machine::instance();
  net::Transport& t = net::transport();
  const std::uint64_t tag = net::next_tag();
  const double sent = 42.5;
  m.spmd([&](int v) {
    if (v == 0) t.post(0, 1, tag, &sent, sizeof(sent));
  });
  EXPECT_EQ(t.pending(), 1u);
  double got = 0.0;
  bool ok = false;
  m.spmd([&](int v) {
    if (v == 1) ok = t.try_fetch(1, 0, tag, &got, sizeof(got));
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, sent);
  EXPECT_EQ(t.pending(), 0u);
  const auto stats = t.stats();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, sizeof(double));
}

TEST_F(NetTransportTest, FetchWithoutMessageReturnsFalse) {
  net::Transport& t = net::transport();
  double got = 0.0;
  EXPECT_FALSE(t.try_fetch(1, 0, net::next_tag(), &got, sizeof(got)));
}

TEST_F(NetTransportTest, TagsKeepMessagesApart) {
  Machine& m = Machine::instance();
  net::Transport& t = net::transport();
  const std::uint64_t ta = net::next_tag();
  const std::uint64_t tb = net::next_tag();
  const int a = 1, b = 2;
  m.spmd([&](int v) {
    if (v == 0) {
      t.post(0, 1, ta, &a, sizeof(a));
      t.post(0, 1, tb, &b, sizeof(b));
    }
  });
  // Fetch in the opposite order of posting: tags, not position, select.
  int got_b = 0, got_a = 0;
  m.spmd([&](int v) {
    if (v == 1) {
      EXPECT_TRUE(t.try_fetch(1, 0, tb, &got_b, sizeof(got_b)));
      EXPECT_TRUE(t.try_fetch(1, 0, ta, &got_a, sizeof(got_a)));
    }
  });
  EXPECT_EQ(got_a, a);
  EXPECT_EQ(got_b, b);
}

TEST_F(NetTransportTest, SameTagIsFifo) {
  Machine& m = Machine::instance();
  net::Transport& t = net::transport();
  const std::uint64_t tag = net::next_tag();
  const int first = 7, second = 9;
  m.spmd([&](int v) {
    if (v == 0) {
      t.post(0, 2, tag, &first, sizeof(first));
      t.post(0, 2, tag, &second, sizeof(second));
    }
  });
  int got1 = 0, got2 = 0;
  m.spmd([&](int v) {
    if (v == 2) {
      EXPECT_TRUE(t.try_fetch(2, 0, tag, &got1, sizeof(got1)));
      EXPECT_TRUE(t.try_fetch(2, 0, tag, &got2, sizeof(got2)));
    }
  });
  EXPECT_EQ(got1, first);
  EXPECT_EQ(got2, second);
}

TEST_F(NetTransportTest, TagCollisionsAcrossSourcesStayApart) {
  // Identical tag from every source to one destination: the (src, dst, tag)
  // mailboxes must not cross-talk.
  Machine& m = Machine::instance();
  net::Transport& t = net::transport();
  const std::uint64_t tag = net::next_tag();
  m.spmd([&](int v) {
    if (v != 3) {
      const double payload = 100.0 + v;
      t.post(v, 3, tag, &payload, sizeof(payload));
    }
  });
  m.spmd([&](int v) {
    if (v == 3) {
      for (int src = 0; src < 3; ++src) {
        double got = 0.0;
        EXPECT_TRUE(t.try_fetch(3, src, tag, &got, sizeof(got)));
        EXPECT_EQ(got, 100.0 + src);
      }
    }
  });
  EXPECT_EQ(t.pending(), 0u);
}

// The transport recycles fetched payload buffers into later posts of
// other sizes; one tag still delivers first-posted first, each with its
// own bytes.
TEST_F(NetTransportTest, SameTagIsFifoWithRecycledBuffers) {
  Machine& m = Machine::instance();
  net::Transport t(m.vps());
  const std::uint64_t warm = net::next_tag();
  const std::vector<int> big(33, -1);
  m.spmd([&](int v) {
    if (v == 0) t.post(0, 2, warm, big.data(), big.size() * sizeof(int));
  });
  std::vector<int> sink(big.size());
  ASSERT_TRUE(t.try_fetch(2, 0, warm, sink.data(), sink.size() * sizeof(int)));

  const std::uint64_t tag = net::next_tag();
  const std::vector<std::vector<int>> sent = {{7}, {9, 10, 11, 12, 13}, {4, 5}};
  m.spmd([&](int v) {
    if (v != 0) return;
    for (const auto& msg : sent) {
      t.post(0, 2, tag, msg.data(), msg.size() * sizeof(int));
    }
  });
  std::vector<std::vector<int>> got;
  m.spmd([&](int v) {
    if (v != 2) return;
    for (const auto& msg : sent) {
      std::vector<int> buf(msg.size(), 0);
      if (t.try_fetch(2, 0, tag, buf.data(), buf.size() * sizeof(int))) {
        got.push_back(buf);
      }
    }
  });
  EXPECT_EQ(got, sent);
  EXPECT_EQ(t.pending(), 0u);
}

// stats() and pending() stay exact while buffers recycle: messages of
// growing and shrinking sizes, fetched out of post order over two regions,
// then a reset with messages queued, then traffic after the reset.
TEST_F(NetTransportTest, StatsAndPendingExactWithRecycledBuffers) {
  Machine& m = Machine::instance();
  net::Transport t(m.vps());
  const int p = m.vps();
  std::uint64_t messages = 0, bytes = 0;
  const std::size_t sizes[] = {3, 40, 1, 17, 0, 64};
  const auto value = [](int vp, int round, std::size_t i) {
    return vp * 1000.0 + round * 100.0 + static_cast<double>(i);
  };
  for (int round = 0; round < 6; ++round) {
    const std::size_t n0 = sizes[round];
    const std::size_t n1 = n0 + static_cast<std::size_t>(round);
    const std::uint64_t tag = net::next_tags(2);
    m.spmd([&](int v) {
      std::vector<double> a(n0), b(n1);
      for (std::size_t i = 0; i < n0; ++i) a[i] = value(v, round, i);
      for (std::size_t i = 0; i < n1; ++i) b[i] = -value(v, round, i);
      const int d = (v + 1) % p;
      t.post(v, d, tag, a.data(), a.size() * sizeof(double));
      t.post(v, d, tag + 1, b.data(), b.size() * sizeof(double));
    });
    messages += 2u * static_cast<std::uint64_t>(p);
    bytes += static_cast<std::uint64_t>(p) * (n0 + n1) * sizeof(double);
    EXPECT_EQ(t.pending(), 2u * static_cast<std::uint64_t>(p));
    EXPECT_EQ(t.stats().messages, messages);
    EXPECT_EQ(t.stats().bytes, bytes);

    // The second message first, the first one in the next region.
    std::vector<int> bad(static_cast<std::size_t>(p), 0);
    m.spmd([&](int d) {
      const int s = (d + p - 1) % p;
      std::vector<double> b(n1);
      if (!t.try_fetch(d, s, tag + 1, b.data(), b.size() * sizeof(double))) {
        bad[static_cast<std::size_t>(d)] += 1;
      }
      for (std::size_t i = 0; i < n1; ++i) {
        if (b[i] != -value(s, round, i)) bad[static_cast<std::size_t>(d)] += 1;
      }
    });
    EXPECT_EQ(t.pending(), static_cast<std::uint64_t>(p));
    m.spmd([&](int d) {
      const int s = (d + p - 1) % p;
      std::vector<double> a(n0);
      if (!t.try_fetch(d, s, tag, a.data(), a.size() * sizeof(double))) {
        bad[static_cast<std::size_t>(d)] += 1;
      }
      for (std::size_t i = 0; i < n0; ++i) {
        if (a[i] != value(s, round, i)) bad[static_cast<std::size_t>(d)] += 1;
      }
    });
    EXPECT_EQ(bad, std::vector<int>(static_cast<std::size_t>(p), 0))
        << "round " << round;
    EXPECT_EQ(t.pending(), 0u);
    EXPECT_EQ(t.stats().messages, messages) << "fetches do not count";
    EXPECT_EQ(t.stats().bytes, bytes);
  }

  const std::uint64_t tag = net::next_tag();
  const double x = 2.5;
  m.spmd([&](int v) { t.post(v, (v + 1) % p, tag, &x, sizeof(x)); });
  EXPECT_EQ(t.pending(), static_cast<std::uint64_t>(p));
  t.reset();
  EXPECT_EQ(t.pending(), 0u);
  EXPECT_EQ(t.stats().messages, 0u);
  EXPECT_EQ(t.stats().bytes, 0u);
  double got = 0.0;
  EXPECT_FALSE(t.try_fetch(1, 0, tag, &got, sizeof(got)))
      << "reset drops queued messages";

  const std::uint64_t after = net::next_tag();
  m.spmd([&](int v) {
    if (v == 0) t.post(0, 1, after, &x, sizeof(x));
  });
  EXPECT_EQ(t.pending(), 1u);
  EXPECT_EQ(t.stats().messages, 1u);
  EXPECT_EQ(t.stats().bytes, sizeof(x));
  EXPECT_TRUE(t.try_fetch(1, 0, after, &got, sizeof(got)));
  EXPECT_EQ(got, x);
  EXPECT_EQ(t.pending(), 0u);
}

TEST_F(NetTransportTest, ProbeReportsPendingSize) {
  Machine& m = Machine::instance();
  net::Transport& t = net::transport();
  const std::uint64_t tag = net::next_tag();
  const std::vector<double> payload(13, 1.0);
  EXPECT_EQ(t.probe(3, 0, tag), -1);
  m.spmd([&](int v) {
    if (v == 0) {
      t.post(0, 3, tag, payload.data(), payload.size() * sizeof(double));
    }
  });
  EXPECT_EQ(t.probe(3, 0, tag),
            static_cast<std::ptrdiff_t>(13 * sizeof(double)));
  std::vector<double> got(13, 0.0);
  EXPECT_TRUE(
      t.try_fetch(3, 0, tag, got.data(), got.size() * sizeof(double)));
  EXPECT_EQ(t.probe(3, 0, tag), -1);
}

TEST_F(NetTransportTest, ResizeFollowsMachineReconfigure) {
  net::Transport& t = net::transport();
  EXPECT_EQ(t.endpoints(), 4);
  Machine::instance().configure(7);
  EXPECT_EQ(net::transport().endpoints(), 7);
  EXPECT_EQ(net::transport().pending(), 0u) << "resize drops stale messages";
  Machine::instance().configure(4);
  EXPECT_EQ(net::transport().endpoints(), 4);
}

TEST_F(NetTransportTest, RegionSerialAdvancesPerRegion) {
  Machine& m = Machine::instance();
  const std::uint64_t before = m.region_serial();
  m.spmd([](int) {});
  m.spmd([](int) {});
  EXPECT_EQ(m.region_serial(), before + 2);
  EXPECT_FALSE(m.inside_region());
}

TEST_F(NetTransportTest, NextTagsReservesDisjointRanges) {
  const std::uint64_t a = net::next_tags(16);
  const std::uint64_t b = net::next_tags(16);
  EXPECT_GE(b, a + 16);
}

// --- payload-once accounting (aliasing regression) ----------------------

// An in-place butterfly records exactly one event whose `bytes` equals the
// array payload — not 2x from counting the staging/swap traffic as well.
TEST_F(NetTransportTest, InPlaceButterflyCountsPayloadOnce) {
  auto a = make_vector<double>(64);
  for (index_t i = 0; i < 64; ++i) a[i] = static_cast<double>(i);
  auto out = make_vector<double>(64);

  CommLog::instance().reset();
  comm::butterfly_into(out, a, 8);  // out-of-place reference
  const auto ref_events = CommLog::instance().events();
  ASSERT_EQ(ref_events.size(), 1u);

  CommLog::instance().reset();
  comm::butterfly_into(a, a, 8);  // aliased: src and dst share the store
  const auto alias_events = CommLog::instance().events();
  ASSERT_EQ(alias_events.size(), 1u) << "in-place must record one event";

  EXPECT_EQ(alias_events[0].bytes, ref_events[0].bytes)
      << "aliased exchange double-counted the moved payload";
  EXPECT_EQ(alias_events[0].offproc_bytes, ref_events[0].offproc_bytes);
  EXPECT_EQ(alias_events[0].bytes,
            static_cast<index_t>(64 * sizeof(double)));
  for (index_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a[i], out[i]) << "in-place result diverged at " << i;
  }
}

// The same invariant on the message-passing path, where the in-place exchange
// stages through a snapshot and the transport: staging traffic shows up in
// the transport stats, never in the event's payload bytes.
TEST_F(NetTransportTest, AlgorithmicInPlaceButterflyCountsPayloadOnce) {
  setenv("DPF_NET", "overlap", 1);
  auto a = make_vector<double>(64);
  auto b = make_vector<double>(64);
  for (index_t i = 0; i < 64; ++i) a[i] = b[i] = std::sin(double(i));

  net::transport().reset();
  CommLog::instance().reset();
  comm::butterfly_into(a, a, 4);  // aliased, message-passing path
  const auto events = CommLog::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes, static_cast<index_t>(64 * sizeof(double)));

  // Cross-check against the direct path on an identical input.
  unsetenv("DPF_NET");
  comm::butterfly_into(b, b, 4);
  for (index_t i = 0; i < 64; ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace dpf
