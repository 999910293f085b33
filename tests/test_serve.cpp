// dpf::serve — the dpfd daemon subsystem (src/serve/).
//
// Unit layers: the canonical JSON value, the length-prefixed frame
// protocol, the content-addressed result store, the calibration cache, and
// the fair bounded job queue. Integration layers: the executor's
// warm-machine reuse (back-to-back jobs on one Machine must be
// bit-identical to fresh one-shot dpfrun processes, across all three
// DPF_NET modes — the daemon's core correctness claim) and a full
// in-process Server driven by 8 concurrent clients over the Unix socket,
// with a second wave served from the result store and a graceful drain.
//
// The fresh-process reference needs the dpfrun binary: ctest exports
// DPF_DPFRUN_BIN (tests/CMakeLists.txt); the tests GTEST_SKIP without it.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/machine.hpp"
#include "core/registry.hpp"
#include "net/net.hpp"
#include "serve/calibration_cache.hpp"
#include "serve/client.hpp"
#include "serve/executor.hpp"
#include "serve/job_queue.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"
#include "suite/register_all.hpp"

namespace dpf {
namespace {

using serve::Json;

std::string temp_dir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + std::string(tag) + "XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* got = ::mkdtemp(buf.data());
  return got != nullptr ? std::string(got) : std::string();
}

std::string temp_socket(const char* tag) {
  return "/tmp/dpf-serve-" + std::string(tag) + "-" +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

// --- Json -----------------------------------------------------------------

TEST(ServeJson, RoundTripAndCanonicalOrder) {
  std::string err;
  const Json j = Json::parse(
      R"({"zeta": 1, "alpha": [true, null, "x\n\"y"], "mid": {"b": 2.5}})",
      &err);
  ASSERT_TRUE(err.empty()) << err;
  // std::map backing ⇒ dump() is sorted and whitespace-free: canonical.
  EXPECT_EQ(R"({"alpha":[true,null,"x\n\"y"],"mid":{"b":2.5},"zeta":1})",
            j.dump());
  const Json again = Json::parse(j.dump(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(j, again);
}

TEST(ServeJson, DoublesSurviveBitExact) {
  const double v = 0.1 + 0.2;  // famously not 0.3
  Json j(Json::Object{});
  j.set("v", v);
  std::string err;
  const Json back = Json::parse(j.dump(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(v, back["v"].as_number());  // exact, not approximate
}

TEST(ServeJson, RejectsGarbageAndDeepNesting) {
  std::string err;
  EXPECT_TRUE(Json::parse("{broken", &err).is_null());
  EXPECT_FALSE(err.empty());
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_TRUE(Json::parse(deep, &err).is_null());  // depth cap
}

TEST(ServeJson, HexTransportRoundTrips) {
  const double v = -123.456e-7;
  double back = 0.0;
  ASSERT_TRUE(serve::double_from_hex(serve::double_to_hex(v), &back));
  EXPECT_EQ(v, back);
  std::uint64_t u = 0;
  ASSERT_TRUE(serve::parse_hex64(serve::hex64(0xdeadbeef12345678ull), &u));
  EXPECT_EQ(0xdeadbeef12345678ull, u);
  EXPECT_FALSE(serve::parse_hex64("not-hex", &u));
}

// --- Frame protocol -------------------------------------------------------

TEST(ServeProtocol, FramesRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  Json msg(Json::Object{});
  msg.set("op", "submit").set("benchmark", "fft").set("vps", 8);
  ASSERT_TRUE(serve::write_frame(fds[0], msg));
  Json got;
  ASSERT_TRUE(serve::read_frame(fds[1], &got));
  EXPECT_EQ(msg, got);
  // EOF after the peer closes reads as a clean false, not a hang.
  ::close(fds[0]);
  EXPECT_FALSE(serve::read_frame(fds[1], &got));
  ::close(fds[1]);
}

TEST(ServeProtocol, OversizeLengthPrefixIsRejected) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const std::uint32_t huge = serve::kMaxFrameBytes + 1;
  ASSERT_EQ(static_cast<ssize_t>(sizeof huge),
            ::send(fds[0], &huge, sizeof huge, 0));
  Json got;
  std::string err;
  EXPECT_FALSE(serve::read_frame(fds[1], &got, &err));
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- Result store ---------------------------------------------------------

serve::ResultKey sample_key() {
  serve::ResultKey k;
  k.benchmark = "fft";
  k.version = "basic";
  k.vps = 8;
  k.workers = 4;
  k.params = {{"n", 1024}, {"dims", 1}};
  return k;
}

serve::ResultRecord sample_record() {
  serve::ResultRecord r;
  r.key = sample_key();
  r.checks = {{"residual", 1.25e-13}, {"sum", 42.0}};
  r.metrics = Json(Json::Object{{"elapsed_seconds", Json(0.5)}});
  r.cold_elapsed_seconds = 0.5;
  r.checksum = serve::ResultRecord::checksum_checks(r.checks);
  return r;
}

TEST(ServeResultStore, AddressCoversEveryKeyField) {
  const serve::ResultKey base = sample_key();
  std::vector<serve::ResultKey> variants(7, base);
  variants[0].benchmark = "lu";
  variants[1].version = "optimized";
  variants[2].vps = 16;
  variants[3].workers = 8;
  variants[4].net_mode = "algorithmic";
  variants[5].simd = false;
  variants[6].params["n"] = 2048;
  for (const auto& v : variants) {
    EXPECT_NE(base.address(), v.address());
  }
  // ... and nothing else: an equal key is the same address.
  EXPECT_EQ(base.address(), sample_key().address());
}

TEST(ServeResultStore, MemoryHitAndMiss) {
  serve::ResultStore store;
  EXPECT_EQ(nullptr, store.get(sample_key()));
  store.put(sample_record());
  const auto rec = store.get(sample_key());
  ASSERT_NE(nullptr, rec);
  EXPECT_EQ(1.25e-13, rec->checks.at("residual"));  // bit-exact
  const auto s = store.stats();
  EXPECT_EQ(1u, s.hits);
  EXPECT_EQ(1u, s.misses);
  EXPECT_EQ(1u, s.entries);
}

TEST(ServeResultStore, PersistsAcrossInstances) {
  const std::string dir = temp_dir("store");
  ASSERT_FALSE(dir.empty());
  {
    serve::ResultStore store(dir);
    store.put(sample_record());
  }
  serve::ResultStore reopened(dir);
  const auto rec = reopened.get(sample_key());
  ASSERT_NE(nullptr, rec);  // served from disk
  EXPECT_EQ(42.0, rec->checks.at("sum"));
  EXPECT_EQ(1u, reopened.stats().disk_loads);
}

TEST(ServeResultStore, CorruptedRecordIsNotServed) {
  serve::ResultRecord r = sample_record();
  Json j = r.to_json();
  // Flip one check's bit pattern: the checksum must catch it.
  Json checks = j["checks"];
  Json entry = checks["sum"];
  entry.set("bits", serve::double_to_hex(43.0));
  checks.set("sum", entry);
  j.set("checks", checks);
  serve::ResultRecord out;
  EXPECT_FALSE(serve::ResultRecord::from_json(j, &out));
  // An engine-version mismatch is also a miss, even when intact.
  Json j2 = r.to_json();
  Json key = j2["key"];
  key.set("engine", "dpf-engine-0");
  j2.set("key", key);
  EXPECT_FALSE(serve::ResultRecord::from_json(j2, &out));
}

// --- Job queue ------------------------------------------------------------

std::shared_ptr<serve::Job> make_job(const std::string& client,
                                     const std::string& bench) {
  auto job = std::make_shared<serve::Job>();
  job->client = client;
  job->benchmarks = {bench};
  return job;
}

TEST(ServeJobQueue, AdmissionControlRejectsWithReason) {
  serve::JobQueue q(/*depth=*/2, /*per_client=*/1);
  EXPECT_EQ(serve::JobQueue::Admit::Ok, q.push(make_job("a", "fft")));
  EXPECT_EQ(serve::JobQueue::Admit::ClientQuota,
            q.push(make_job("a", "lu")));  // a's share is 1
  EXPECT_EQ(serve::JobQueue::Admit::Ok, q.push(make_job("b", "lu")));
  EXPECT_EQ(serve::JobQueue::Admit::QueueFull,
            q.push(make_job("c", "qr")));  // global depth is 2
  q.drain();
  EXPECT_EQ(serve::JobQueue::Admit::Draining,
            q.push(make_job("d", "qr")));
  EXPECT_STREQ("queue full",
               serve::JobQueue::reason_string(
                   serve::JobQueue::Admit::QueueFull));
}

TEST(ServeJobQueue, RoundRobinAcrossClients) {
  serve::JobQueue q(/*depth=*/16, /*per_client=*/8);
  // Client a dumps three jobs before b submits one; b must not wait for
  // all of a's backlog.
  ASSERT_EQ(serve::JobQueue::Admit::Ok, q.push(make_job("a", "a1")));
  ASSERT_EQ(serve::JobQueue::Admit::Ok, q.push(make_job("a", "a2")));
  ASSERT_EQ(serve::JobQueue::Admit::Ok, q.push(make_job("a", "a3")));
  ASSERT_EQ(serve::JobQueue::Admit::Ok, q.push(make_job("b", "b1")));
  std::vector<std::string> order;
  q.drain();
  while (auto job = q.pop()) order.push_back(job->benchmarks[0]);
  ASSERT_EQ(4u, order.size());
  EXPECT_EQ("a1", order[0]);
  EXPECT_EQ("b1", order[1]);  // b departs after one a job, not three
  EXPECT_EQ("a2", order[2]);
  EXPECT_EQ("a3", order[3]);
}

TEST(ServeJobQueue, CancelRemovesQueuedJob) {
  serve::JobQueue q;
  auto job = make_job("a", "fft");
  ASSERT_EQ(serve::JobQueue::Admit::Ok, q.push(job));
  EXPECT_TRUE(q.cancel(job->id));
  EXPECT_TRUE(job->cancelled.load());
  EXPECT_FALSE(q.cancel(job->id));  // already gone
  EXPECT_EQ(0u, q.size());
}

// --- Calibration cache ----------------------------------------------------

TEST(ServeCalibration, CaptureThenPrimeSkipsProbes) {
  register_all_benchmarks();
  const std::string dir = temp_dir("calib");
  ASSERT_FALSE(dir.empty());
  {
    serve::CalibrationCache cache(dir);
    EXPECT_FALSE(cache.prime());  // nothing known yet
    net::calibrate();             // cold probe
    cache.capture();
    EXPECT_EQ(1u, cache.stats().probes);
    EXPECT_TRUE(cache.prime());   // now a hit
    EXPECT_TRUE(net::calibration_from_cache());
  }
  // A fresh instance over the same dir starts warm (daemon restart).
  serve::CalibrationCache reopened(dir);
  EXPECT_EQ(1u, reopened.entries());
  EXPECT_TRUE(reopened.prime());
  EXPECT_TRUE(Machine::instance().peak_calibrated());
}

// --- Executor -------------------------------------------------------------

class ServeExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { register_all_benchmarks(); }
};

TEST_F(ServeExecutorTest, UnknownBenchmarkCountsAsErrorWithSuggestions) {
  serve::JobQueue queue;
  serve::ResultStore store;
  serve::CalibrationCache calib;
  serve::Executor ex(queue, store, calib);
  serve::Job job;
  job.benchmarks = {"trnspose"};
  ex.run_job(job);
  EXPECT_EQ(1u, ex.stats().errors);
  EXPECT_EQ(0u, ex.stats().cold_runs);
  const auto hints = Registry::instance().suggest("trnspose");
  ASSERT_FALSE(hints.empty());
  EXPECT_EQ("transpose", hints[0]);
}

TEST_F(ServeExecutorTest, ExpiredDeadlineStopsTheJob) {
  serve::JobQueue queue;
  serve::ResultStore store;
  serve::CalibrationCache calib;
  serve::Executor ex(queue, store, calib);
  serve::Job job;
  job.benchmarks = {"reduction"};
  job.params = {{"n", 4096}};
  job.timeout_seconds = 1e-9;
  job.submitted_monotonic = 1.0;  // long before any plausible "now"
  ex.run_job(job);
  EXPECT_EQ(1u, ex.stats().timeouts);
  EXPECT_EQ(0u, ex.stats().benchmarks);
}

TEST_F(ServeExecutorTest, SecondIdenticalJobIsServedFromTheStore) {
  serve::JobQueue queue;
  serve::ResultStore store;
  serve::CalibrationCache calib;
  serve::Executor ex(queue, store, calib);
  for (int i = 0; i < 2; ++i) {
    serve::Job job;
    job.benchmarks = {"reduction"};
    job.params = {{"n", 4096}};
    ex.run_job(job);
  }
  const auto s = ex.stats();
  EXPECT_EQ(1u, s.cold_runs);
  EXPECT_EQ(1u, s.cache_hits);
  EXPECT_EQ(1u, s.calibrations);  // probed exactly once for this config
}

TEST_F(ServeExecutorTest, CommLogDoesNotGrowAcrossJobs) {
  serve::JobQueue queue;
  serve::ResultStore store;
  serve::CalibrationCache calib;
  serve::Executor ex(queue, store, calib);
  serve::Job job;
  job.benchmarks = {"reduction"};
  job.params = {{"n", 4096}};
  job.no_cache = true;
  std::size_t after_first = 0;
  for (int i = 0; i < 5; ++i) {
    ex.run_job(job);
    if (i == 0) after_first = CommLog::instance().event_count();
  }
  EXPECT_EQ(5u, ex.stats().cold_runs);
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(after_first, CommLog::instance().event_count());
}

// --- Warm-machine bit-identity vs fresh one-shot processes ---------------

/// Runs `dpfrun run <bench> --checks-hex` in a fresh process under the
/// given DPF_NET mode and returns the check name -> IEEE-754 hex map.
std::map<std::string, std::string> fresh_process_checks(
    const std::string& dpfrun, const std::string& mode,
    const std::string& bench, const std::string& args) {
  const std::string cmd = "DPF_NET=" + mode + " \"" + dpfrun + "\" run " +
                          bench + " " + args + " --checks-hex 2>/dev/null";
  std::map<std::string, std::string> out;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return out;
  char line[512];
  bool in_hex = false;
  while (std::fgets(line, sizeof line, p) != nullptr) {
    std::string s(line);
    if (s.find("checks-hex:") != std::string::npos) {
      in_hex = true;
      continue;
    }
    if (!in_hex) continue;
    char name[256], hex[64];
    if (std::sscanf(s.c_str(), " %255s %63s", name, hex) != 2) {
      break;  // blank line ends the checks-hex section
    }
    out[name] = hex;
  }
  ::pclose(p);
  return out;
}

TEST(ServeWarmReuse, BackToBackJobsMatchFreshProcessesInAllNetModes) {
  const char* dpfrun = std::getenv("DPF_DPFRUN_BIN");
  if (dpfrun == nullptr || *dpfrun == '\0') {
    GTEST_SKIP() << "DPF_DPFRUN_BIN not set (run under ctest)";
  }
  register_all_benchmarks();
  serve::JobQueue queue;
  serve::ResultStore store;
  serve::CalibrationCache calib;
  serve::Executor ex(queue, store, calib);

  struct Case {
    const char* bench;
    const char* args;
    std::map<std::string, long long> params;
  };
  const std::vector<Case> cases = {
      {"reduction", "--set n=4096", {{"n", 4096}}},
      {"fft", "--set n=256", {{"n", 256}}},
  };
  // One warm executor serves every (mode x benchmark) back to back on the
  // same Machine; each result must be bit-identical to a fresh one-shot
  // process run of the same configuration.
  for (const std::string mode : {"direct", "algorithmic", "overlap"}) {
    for (const Case& c : cases) {
      serve::Job job;
      job.benchmarks = {c.bench};
      job.params = c.params;
      job.knobs = {{"DPF_NET", mode}};
      ex.run_job(job);

      serve::ResultKey key;
      key.benchmark = c.bench;
      key.vps = Machine::instance().vps();
      key.workers = Machine::instance().workers();
      key.net_mode = mode;
      const auto* def = Registry::instance().find(c.bench);
      ASSERT_NE(nullptr, def);
      for (const auto& [k, v] : def->default_params) {
        key.params[k] = static_cast<long long>(v);
      }
      for (const auto& [k, v] : c.params) key.params[k] = v;
      const auto rec = store.get(key);
      ASSERT_NE(nullptr, rec) << c.bench << " under " << mode;

      const auto reference =
          fresh_process_checks(dpfrun, mode, c.bench, c.args);
      ASSERT_FALSE(reference.empty()) << c.bench << " under " << mode;
      ASSERT_EQ(reference.size(), rec->checks.size());
      for (const auto& [name, value] : rec->checks) {
        ASSERT_TRUE(reference.count(name)) << name;
        EXPECT_EQ(reference.at(name), serve::double_to_hex(value))
            << c.bench << " check " << name << " under " << mode
            << ": warm daemon result differs from a fresh process";
      }
    }
  }
  EXPECT_EQ(0u, ex.stats().errors);
}

// --- Full daemon E2E: 8 concurrent clients, cache wave, drain -------------

TEST(ServeDaemon, EightConcurrentClientsThenCachedWaveThenDrain) {
  register_all_benchmarks();
  serve::ServerOptions opt;
  opt.socket_path = temp_socket("e2e");
  opt.queue_depth = 64;
  opt.per_client = 8;
  serve::Server server(opt);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  constexpr int kClients = 8;
  struct Outcome {
    bool ok = false;
    bool cache_hit = false;
    double serve_elapsed = 0.0;
    std::string checksum;
    long long exit = -1;
  };
  auto wave = [&](bool expect_hit) {
    std::vector<Outcome> outcomes(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        serve::DaemonClient client;
        std::string cerr_;
        if (!client.connect(opt.socket_path, &cerr_)) return;
        Json submit(Json::Object{});
        submit.set("op", "submit")
            .set("client", "client-" + std::to_string(i))
            .set("benchmark", "reduction");
        Json params(Json::Object{});
        params.set("n", 4096);
        submit.set("params", std::move(params));
        if (!client.send(submit, &cerr_)) return;
        Json final_frame;
        if (!client.stream(nullptr, &final_frame, &cerr_)) return;
        if (final_frame["type"].as_string() != "result") return;
        outcomes[i].ok = true;
        outcomes[i].cache_hit = final_frame["cache_hit"].as_bool();
        outcomes[i].serve_elapsed =
            final_frame["serve_elapsed_s"].as_number();
        outcomes[i].checksum = final_frame["checksum"].as_string();
        outcomes[i].exit = final_frame["exit"].as_int();
      });
    }
    for (auto& t : threads) t.join();
    for (int i = 0; i < kClients; ++i) {
      EXPECT_TRUE(outcomes[i].ok) << "client " << i;
      EXPECT_EQ(0, outcomes[i].exit) << "client " << i;
      if (expect_hit) {
        EXPECT_TRUE(outcomes[i].cache_hit) << "client " << i;
      }
    }
    return outcomes;
  };

  // Wave 1: 8 concurrent identical submissions. The first to execute is
  // cold; every result carries the same checksum.
  const auto first = wave(/*expect_hit=*/false);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(first[0].checksum, first[i].checksum);
  }
  // Wave 2: everything identical is served from the result store, fast.
  const auto second = wave(/*expect_hit=*/true);
  const auto store_stats = server.store().stats();
  EXPECT_GE(store_stats.hits, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(1u, store_stats.entries);
  // Cache-hit latency: well under the cold serve time (which includes the
  // one-time calibration). A hit is ~tens of microseconds; the floor only
  // absorbs scheduler noise when ctest runs the whole suite in parallel.
  double cold = 0.0;
  for (const auto& o : first) cold = std::max(cold, o.serve_elapsed);
  for (const auto& o : second) {
    EXPECT_LT(o.serve_elapsed, std::max(0.05 * cold, 0.02));
  }
  // Calibration ran at most once for the single configuration involved.
  EXPECT_LE(server.calibration().stats().probes, 1u);
  // Stats op over the wire.
  {
    serve::DaemonClient client;
    ASSERT_TRUE(client.connect(opt.socket_path, &err)) << err;
    Json req(Json::Object{});
    req.set("op", "stats");
    const Json stats = client.request(req, &err);
    EXPECT_EQ("stats", stats["type"].as_string());
    EXPECT_GE(stats["executor"]["jobs"].as_int(), 2 * kClients);
  }
  // Graceful drain: daemon finishes, socket disappears, later connects
  // fail cleanly.
  server.drain_and_stop();
  serve::DaemonClient late;
  EXPECT_FALSE(late.connect(opt.socket_path, &err));
}

TEST(ServeDaemon, SubmitWhileDrainingIsRejectedWithReason) {
  register_all_benchmarks();
  serve::ServerOptions opt;
  opt.socket_path = temp_socket("drain");
  serve::Server server(opt);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  serve::DaemonClient client;
  ASSERT_TRUE(client.connect(opt.socket_path, &err)) << err;
  server.queue().drain();  // daemon is now draining; connection still open
  Json submit(Json::Object{});
  submit.set("op", "submit").set("benchmark", "reduction");
  const Json reply = client.request(submit, &err);
  EXPECT_EQ("rejected", reply["type"].as_string());
  EXPECT_EQ("daemon draining", reply["reason"].as_string());
  EXPECT_FALSE(reply["retryable"].as_bool(true));
  client.close();
  server.drain_and_stop();
}

}  // namespace
}  // namespace dpf
