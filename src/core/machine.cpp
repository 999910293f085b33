#include "core/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/env.hpp"
#include "trace/trace.hpp"

namespace dpf {
namespace {

using clock_t_ = std::chrono::steady_clock;

double seconds_between(clock_t_::time_point a, clock_t_::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t to_ns(clock_t_::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Spin budget between regions before a worker parks: a short pause-spin for
// the back-to-back-region case, then a yield phase that keeps oversubscribed
// (workers > cores) configurations live, then the condition variable.
constexpr int kPauseSpins = 2048;
constexpr int kYieldSpins = 64;

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// The peak probe's kernel: 6 independent 4-wide multiply chains and 6
// independent 4-wide add chains, 48 FLOPs a trip. Twelve chains in flight
// cover the FP pipelines' latency, so a trip runs at the core's throughput
// rather than at one chain's latency. The chains stay in registers, so the
// probe never touches memory.
using Vec4 = double __attribute__((vector_size(32)));
constexpr double kProbeFlopsPerTrip = 12 * 4;
constexpr int kProbeTrips = 2'000;  // a few microseconds a slice
constexpr int kProbeSlices = 2;     // a VP's rate is its best slice
constexpr int kProbeVps = 64;       // VPs that sample: under 1 ms at any P

// One VP's probe rate in MFLOPS. Every chain starts from its own value so
// the compiler cannot merge chains that would otherwise compute the same
// sequence.
double probe_vp_mflops(int vp) {
  const Vec4 mul = {0.9999999, 0.9999998, 0.9999997, 0.9999996};
  const Vec4 add = {1e-7, 2e-7, 3e-7, 4e-7};
  const double s = 1.0 + vp;
  Vec4 m0 = mul * s, m1 = mul * (s + 1), m2 = mul * (s + 2);
  Vec4 m3 = mul * (s + 3), m4 = mul * (s + 4), m5 = mul * (s + 5);
  Vec4 a0 = add * s, a1 = add * (s + 1), a2 = add * (s + 2);
  Vec4 a3 = add * (s + 3), a4 = add * (s + 4), a5 = add * (s + 5);
  double best = 0.0;
  for (int slice = 0; slice < kProbeSlices; ++slice) {
    const auto t0 = clock_t_::now();
    for (int i = 0; i < kProbeTrips; ++i) {
      m0 *= mul; m1 *= mul; m2 *= mul; m3 *= mul; m4 *= mul; m5 *= mul;
      a0 += add; a1 += add; a2 += add; a3 += add; a4 += add; a5 += add;
    }
    const double secs = seconds_between(t0, clock_t_::now());
    if (secs > 0.0) {
      best = std::max(best, kProbeFlopsPerTrip * kProbeTrips / secs / 1e6);
    }
  }
  const Vec4 sum = m0 + m1 + m2 + m3 + m4 + m5 + a0 + a1 + a2 + a3 + a4 + a5;
  volatile double sink = sum[0] + sum[1] + sum[2] + sum[3];
  (void)sink;
  return best;
}

}  // namespace

Machine& Machine::instance() {
  static Machine m;
  return m;
}

int Machine::default_vps() {
  return env::int_or("DPF_VPS", 1, 4096, 4);
}

// Worker-thread budget: DPF_WORKERS if set (useful for exercising the
// multi-threaded barrier on single-core hosts), else hardware concurrency.
int Machine::worker_budget() {
  return env::int_or("DPF_WORKERS", 1, 256, hardware_threads());
}

Machine::Machine() { configure(default_vps()); }

Machine::~Machine() { stop_pool(); }

void Machine::configure(int vps) {
  if (vps < 1) vps = 1;
  stop_pool();
  vps_ = vps;
  workers_ = std::min(worker_budget(), vps);
  // Chunked dispatch: with vps >> workers, claiming one VP per atomic RMW
  // thrashes the cursor line; claim ~8 chunks per worker instead. A single
  // worker claims the whole queue in one go.
  chunk_ = workers_ == 1
               ? static_cast<index_t>(vps_)
               : std::max<index_t>(1, vps_ / (workers_ * 8));
  busy_.assign(static_cast<std::size_t>(workers_), BusySlot{});
  start_pool();
  // The configuring thread dispatches regions as worker 0; helpers bind
  // themselves at the top of worker_loop. The trace reconfigure path is a
  // direct call (the single reconfigure-hook slot belongs to dpf::net).
  trace::bind_worker(0);
  if (reconfigure_hook_ != nullptr) reconfigure_hook_(vps_);
}

void Machine::start_pool() {
  shutdown_.store(false, std::memory_order_relaxed);
  const std::uint64_t seen = gen_.load(std::memory_order_relaxed);
  // Worker 0 is the dispatching thread; spawn workers_ - 1 helpers.
  pool_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    pool_.emplace_back([this, w, seen] { worker_loop(w, seen); });
  }
}

void Machine::stop_pool() {
  if (pool_.empty()) return;
  shutdown_.store(true, std::memory_order_seq_cst);
  gen_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(mu_);
    cv_start_.notify_all();
  }
  for (auto& t : pool_) t.join();
  pool_.clear();
}

void Machine::drain(RegionFn fn, void* ctx, double* slot) {
  const index_t p = static_cast<index_t>(vps_);
  // Chunk spans reuse the clock reads the busy timer already pays for, so
  // tracing adds one relaxed-store ring push per chunk.
  const bool tracing = trace::enabled(trace::Mode::Summary);
  const std::uint64_t serial = region_serial_.load(std::memory_order_relaxed);
  for (;;) {
    const index_t begin = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= p) return;
    const index_t end = std::min(begin + chunk_, p);
    const auto t0 = clock_t_::now();
    for (index_t vp = begin; vp < end; ++vp) fn(ctx, static_cast<int>(vp));
    const auto t1 = clock_t_::now();
    *slot += seconds_between(t0, t1) * 1e9;
    if (tracing) {
      trace::chunk(serial, to_ns(t0), to_ns(t1), static_cast<int>(begin),
                   static_cast<int>(end));
    }
  }
}

void Machine::worker_loop(int worker_id, std::uint64_t seen) {
  trace::bind_worker(worker_id);
  double* slot = &busy_[static_cast<std::size_t>(worker_id)].ns;
  for (;;) {
    // Wait for the next generation: spin, yield, then park.
    std::uint64_t g = gen_.load(std::memory_order_acquire);
    if (g == seen) {
      for (int i = 0; i < kPauseSpins; ++i) {
        cpu_relax();
        g = gen_.load(std::memory_order_acquire);
        if (g != seen) break;
      }
      for (int i = 0; g == seen && i < kYieldSpins; ++i) {
        std::this_thread::yield();
        g = gen_.load(std::memory_order_acquire);
      }
      if (g == seen) {
        std::unique_lock<std::mutex> lock(mu_);
        parked_.fetch_add(1, std::memory_order_seq_cst);
        cv_start_.wait(lock, [&] {
          return gen_.load(std::memory_order_seq_cst) != seen;
        });
        parked_.fetch_sub(1, std::memory_order_seq_cst);
        g = gen_.load(std::memory_order_seq_cst);
      }
    }
    seen = g;
    if (shutdown_.load(std::memory_order_acquire)) return;
    drain(fn_, ctx_, slot);
    // Arrival barrier: the dispatcher returns from the region only after
    // every helper has checked in, so no stale claim can outlive a region.
    arrived_.fetch_add(1, std::memory_order_seq_cst);
    if (waiter_parked_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_one();
    }
  }
}

void Machine::spmd_raw(RegionFn fn, void* ctx) {
  // Nested regions run inline on the calling VP worker (flat SPMD model;
  // CMF semantics serialize such nesting).
  if (in_region_.exchange(true, std::memory_order_acquire)) {
    for (int vp = 0; vp < vps_; ++vp) fn(ctx, vp);
    return;
  }
  // Exception safety: a throwing body must not leave the machine wedged in
  // the "inside a region" state.
  struct RegionGuard {
    std::atomic<bool>& flag;
    ~RegionGuard() { flag.store(false, std::memory_order_release); }
  } guard{in_region_};

  const std::uint64_t serial =
      region_serial_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool tracing = trace::enabled(trace::Mode::Summary);
  const std::uint64_t tr0 = tracing ? trace::now_ns() : 0;
  cursor_.store(0, std::memory_order_relaxed);
  if (workers_ == 1) {
    // Single-worker fast path: a plain inline loop, no handshake at all.
    drain(fn, ctx, &busy_[0].ns);
    if (tracing) trace::region(serial, tr0, trace::now_ns(), vps_);
    return;
  }

  fn_ = fn;
  ctx_ = ctx;
  arrived_.store(0, std::memory_order_relaxed);
  gen_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_start_.notify_all();
  }

  drain(fn, ctx, &busy_[0].ns);

  // Wait for all helpers to arrive: spin, then park on cv_done_.
  const int need = workers_ - 1;
  if (arrived_.load(std::memory_order_acquire) != need) {
    for (int i = 0; i < kPauseSpins; ++i) {
      cpu_relax();
      if (arrived_.load(std::memory_order_acquire) == need) break;
    }
    for (int i = 0;
         arrived_.load(std::memory_order_acquire) != need && i < kYieldSpins;
         ++i) {
      std::this_thread::yield();
    }
    if (arrived_.load(std::memory_order_seq_cst) != need) {
      std::unique_lock<std::mutex> lock(mu_);
      waiter_parked_.store(true, std::memory_order_seq_cst);
      cv_done_.wait(lock, [&] {
        return arrived_.load(std::memory_order_seq_cst) == need;
      });
      waiter_parked_.store(false, std::memory_order_seq_cst);
    }
  }
  if (tracing) trace::region(serial, tr0, trace::now_ns(), vps_);
}

void Machine::reset_busy() {
  for (auto& b : busy_) b.ns = 0.0;
}

double Machine::busy_core_seconds() const {
  double total = 0.0;
  for (const auto& b : busy_) total += b.ns;
  return total / 1e9;
}

double Machine::busy_seconds() const {
  return busy_core_seconds() / static_cast<double>(vps_);
}

double Machine::core_peak_mflops() {
  if (core_peak_mflops_ > 0.0) return core_peak_mflops_;
  // One region, so a fresh process also wakes its helper threads here, in
  // set-up, rather than in its first timed region.
  const auto t0 = clock_t_::now();
  const auto n = static_cast<std::size_t>(std::min(vps_, kProbeVps));
  std::vector<double> rates(n, 0.0);
  spmd([&](int vp) {
    const auto i = static_cast<std::size_t>(vp);
    if (i < n) rates[i] = probe_vp_mflops(vp);
  });
  // The fastest VP sets the peak: a stall or a throttled streak can only
  // slow a slice down, never speed it up.
  core_peak_mflops_ = *std::max_element(rates.begin(), rates.end());
  peak_probe_s_ = seconds_between(t0, clock_t_::now());
  return core_peak_mflops_;
}

int Machine::peak_cores() const {
  return std::min(workers_, hardware_threads());
}

double Machine::peak_mflops() {
  return core_peak_mflops() * static_cast<double>(peak_cores());
}

}  // namespace dpf
