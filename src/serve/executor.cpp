#include "serve/executor.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "core/registry.hpp"
#include "net/net.hpp"
#include "net/tune.hpp"
#include "serve/client_conn.hpp"
#include "serve/protocol.hpp"
#include "trace/summary.hpp"
#include "trace/trace.hpp"
#include "vec/vec.hpp"

namespace dpf::serve {
namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The environment knobs a job snapshot may carry. A whitelist, not a
/// passthrough: the daemon never lets a client set environment outside the
/// knobs the engine itself reads.
constexpr const char* kJobKnobs[] = {
    "DPF_NET",      "DPF_NET_BACKEND", "DPF_NET_PROCS",
    "DPF_NET_SHM_RING", "DPF_SIMD",    "DPF_WORKERS",
};

bool simd_env_on() {
  const char* s = std::getenv("DPF_SIMD");
  if (s == nullptr || *s == '\0') return true;
  return !(std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0 ||
           std::strcmp(s, "false") == 0);
}

/// Installs a job's knob snapshot for the duration of one job and restores
/// the daemon's own environment on destruction. Runs on the executor
/// thread between jobs, while the machine workers are parked in their
/// generation wait — nothing else reads these variables concurrently.
class KnobGuard {
 public:
  explicit KnobGuard(const std::map<std::string, std::string>& knobs) {
    for (const char* name : kJobKnobs) {
      const char* cur = std::getenv(name);
      saved_.emplace_back(name, cur ? std::string(cur) : std::string(),
                          cur != nullptr);
      const auto it = knobs.find(name);
      if (it != knobs.end()) {
        ::setenv(name, it->second.c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
    // vec caches its mode (one relaxed load on the kernel hot path), so a
    // job-scoped DPF_SIMD needs an explicit push into that cache.
    vec::set_enabled(simd_env_on());
  }

  ~KnobGuard() {
    for (const auto& [name, value, was_set] : saved_) {
      if (was_set) {
        ::setenv(name.c_str(), value.c_str(), 1);
      } else {
        ::unsetenv(name.c_str());
      }
    }
    vec::set_enabled(simd_env_on());
  }

  KnobGuard(const KnobGuard&) = delete;
  KnobGuard& operator=(const KnobGuard&) = delete;

 private:
  std::vector<std::tuple<std::string, std::string, bool>> saved_;
};

bool parse_version(const std::string& s, Version* out) {
  if (s.empty() || s == "basic") *out = Version::Basic;
  else if (s == "optimized") *out = Version::Optimized;
  else if (s == "library") *out = Version::Library;
  else if (s == "cmssl") *out = Version::CMSSL;
  else if (s == "cdpeac") *out = Version::CDpeac;
  else return false;
  return true;
}

Json metrics_to_json(const Metrics& m) {
  Json j(Json::Object{});
  j.set("busy_seconds", m.busy_seconds)
      .set("elapsed_seconds", m.elapsed_seconds)
      .set("flop_count", static_cast<long long>(m.flop_count))
      .set("memory_bytes", static_cast<long long>(m.memory_bytes))
      .set("comm_ops", static_cast<long long>(m.comm_op_count()))
      .set("comm_seconds", m.comm_seconds())
      .set("busy_mflops", m.busy_mflops())
      .set("elapsed_mflops", m.elapsed_mflops());
  return j;
}

Json base_frame(const char* type, const Job& job) {
  Json f(Json::Object{});
  f.set("type", type).set("protocol", kProtocolVersion)
      .set("job", static_cast<long long>(job.id));
  return f;
}

void reply(const Job& job, const Json& frame) {
  if (job.reply) (void)job.reply->send(frame);
}

}  // namespace

Executor::Executor(JobQueue& queue, ResultStore& store,
                   CalibrationCache& calibration)
    : queue_(queue), store_(store), calibration_(calibration) {
  configured_worker_budget_ = Machine::worker_budget();
}

Executor::~Executor() {
  if (started_ && thread_.joinable()) thread_.join();
}

void Executor::start() {
  if (started_) return;
  started_ = true;
  thread_ = std::thread([this] { loop(); });
}

void Executor::join() {
  if (started_ && thread_.joinable()) thread_.join();
}

void Executor::loop() {
  while (auto job = queue_.pop()) {
    run_job(*job);
  }
}

Executor::Stats Executor::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Executor::ensure_machine(const Job& job) {
  Machine& m = Machine::instance();
  const int desired = job.vps > 0 ? job.vps : Machine::default_vps();
  const int budget = Machine::worker_budget();
  if (desired == m.vps() && budget == configured_worker_budget_) return;
  m.configure(desired);
  // The peak-MFLOPS figure belongs to the old grid; clear it so the
  // calibration cache (or a fresh probe) refills it for this one.
  m.set_peak_mflops(0.0);
  configured_worker_budget_ = budget;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.reconfigures;
}

void Executor::ensure_calibrated() {
  net::Tuner& tuner = net::Tuner::instance();
  const std::string key = net::Tuner::config_signature();
  const bool want_tune = net::auto_enabled();
  if (key == calibrated_key_ && (!want_tune || tuner.ready())) return;
  bool dirty = false;
  if (key != calibrated_key_) {
    if (!calibration_.prime()) {
      net::calibrate(/*force=*/true);
      dirty = true;
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.calibrations;
    }
    calibrated_key_ = key;
  }
  // A tuned job on a configuration whose entry predates the tuner (or was
  // captured under a manual mode) probes the decision table here — once —
  // and re-captures so the next daemon restart primes it for free.
  if (want_tune && !tuner.ready()) {
    tuner.ensure();
    dirty = dirty || tuner.ready();
  }
  if (dirty) {
    calibration_.capture();  // reads params + peak (probing peak if needed)
  }
}

Json Executor::run_one(Job& job, const std::string& name, bool last) {
  const double t0 = monotonic_seconds();
  Json frame = base_frame("result", job);
  frame.set("benchmark", name).set("last", last);

  const BenchmarkDef* def = Registry::instance().find(name);
  if (def == nullptr) {
    Json suggestions(Json::Array{});
    for (const auto& s : Registry::instance().suggest(name)) {
      suggestions.push_back(s);
    }
    frame.set("exit", 3)
        .set("error", "unknown benchmark")
        .set("suggestions", std::move(suggestions));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
    return frame;
  }
  Version ver = Version::Basic;
  if (!parse_version(job.version, &ver)) {
    frame.set("exit", 2).set("error", "bad version '" + job.version + "'");
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
    return frame;
  }

  Machine& m = Machine::instance();
  RunConfig cfg;
  cfg.version = ver;
  for (const auto& [k, v] : job.params) cfg.params[k] = v;

  ResultKey key;
  key.benchmark = name;
  key.version = job.version.empty() ? "basic" : job.version;
  key.vps = m.vps();
  key.workers = m.workers();
  key.net_mode = net::mode_label();
  key.net_backend = net::backend_name(net::backend());
  key.simd = vec::enabled();
  for (const auto& [k, v] : def->default_params) {
    key.params[k] = static_cast<long long>(v);
  }
  for (const auto& [k, v] : job.params) key.params[k] = v;

  std::shared_ptr<const ResultRecord> rec;
  bool cache_hit = false;
  if (!job.no_cache) {
    rec = store_.get(key);
    cache_hit = rec != nullptr;
  }
  if (!cache_hit) {
    ensure_calibrated();
    const bool want_trace = job.trace_summary;
    if (want_trace) {
      if (trace::mode() == trace::Mode::Off) {
        trace::set_mode(trace::Mode::Summary);
      }
      trace::reset();
    }
    // A job boundary: the log is append-only within a run, and a warm
    // daemon would otherwise keep every job's events forever.
    CommLog::instance().reset();
    const double run0 = monotonic_seconds();
    const RunResult r = def->run_with_defaults(cfg);
    const double cold = monotonic_seconds() - run0;
    if (want_trace) {
      trace::Snapshot snap = trace::collect();
      net::merge_router_trace(snap);
      Json tf = base_frame("trace", job);
      tf.set("benchmark", name)
          .set("summary", trace::format_trace_summary(snap));
      reply(job, tf);
      trace::set_mode(trace::Mode::Off);
    }
    auto fresh = std::make_shared<ResultRecord>();
    fresh->key = key;
    fresh->checks = r.checks;
    fresh->metrics = metrics_to_json(r.metrics);
    Json segs(Json::Object{});
    for (const auto& [seg, sm] : r.segments) {
      segs.set(seg, metrics_to_json(sm));
    }
    fresh->segments = std::move(segs);
    fresh->cold_elapsed_seconds = cold;
    fresh->checksum = ResultRecord::checksum_checks(r.checks);
    const auto it = r.checks.find("residual");
    fresh->exit_code =
        (it != r.checks.end() && it->second > 1e-3) ? 1 : 0;
    store_.put(*fresh);
    rec = std::move(fresh);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.cold_runs;
  } else {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.cache_hits;
  }

  frame.set("cache_hit", cache_hit)
      .set("calibration_cache_hit", net::calibration_from_cache())
      .set("exit", rec->exit_code)
      .set("address", key.address())
      .set("checksum", hex64(rec->checksum))
      .set("serve_elapsed_s", monotonic_seconds() - t0)
      .set("record", rec->to_json());
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.benchmarks;
  return frame;
}

void Executor::run_job(Job& job) {
  {
    Json started = base_frame("started", job);
    started.set("benchmarks",
                static_cast<long long>(job.benchmarks.size()));
    reply(job, started);
  }
  const double deadline =
      job.timeout_seconds > 0.0
          ? job.submitted_monotonic + job.timeout_seconds
          : 0.0;
  KnobGuard knobs(job.knobs);
  ensure_machine(job);
  // Stats are bumped BEFORE the job's terminal frame goes out: a client
  // that saw its result and immediately asks for stats must observe the
  // job counted.
  const std::size_t total = job.benchmarks.size();
  for (std::size_t i = 0; i < total; ++i) {
    if (job.cancelled.load(std::memory_order_relaxed)) {
      Json e = base_frame("error", job);
      e.set("reason", "cancelled");
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.cancelled;
        ++stats_.jobs;
      }
      reply(job, e);
      return;
    }
    if (deadline > 0.0 && monotonic_seconds() > deadline) {
      Json e = base_frame("error", job);
      e.set("reason", "timeout");
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.timeouts;
        ++stats_.jobs;
      }
      reply(job, e);
      return;
    }
    if (total > 1) {
      Json p = base_frame("progress", job);
      p.set("benchmark", job.benchmarks[i])
          .set("index", static_cast<long long>(i))
          .set("total", static_cast<long long>(total));
      reply(job, p);
    }
    Json r = run_one(job, job.benchmarks[i], i + 1 == total);
    if (i + 1 == total) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.jobs;
    }
    reply(job, r);
  }
}

}  // namespace dpf::serve
