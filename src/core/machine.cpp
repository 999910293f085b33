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

// Grain rule (Machine::grain_rule): a site never timed inline may run
// inline once on the evidence of its fan-outs alone, e.g. when they summed
// to less than kTrialFanOuts of the cheapest fan-out seen.
constexpr double kTrialFanOuts = 8;

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
  // thrashes the cursor line; claim ~8 chunks per worker instead.
  chunk_ = std::max<index_t>(1, vps_ / (workers_ * 8));
  busy_.assign(static_cast<std::size_t>(workers_), BusySlot{});
  // Every site's grain state and the pool's cost describe the old pool:
  // start over.
  ++epoch_;
  cost_spinning_ = CostWindow{};
  cost_parked_ = CostWindow{};
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

Machine::Drained Machine::drain(RegionFn fn, void* ctx, double* slot) {
  const index_t p = static_cast<index_t>(vps_);
  // Chunk spans reuse the clock reads the busy timer already pays for, so
  // tracing adds one relaxed-store ring push per chunk.
  const bool tracing = trace::enabled(trace::Mode::Summary);
  const std::uint64_t serial = region_serial_.load(std::memory_order_relaxed);
  Drained drained;
  for (;;) {
    const index_t begin = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= p) break;
    const index_t end = std::min(begin + chunk_, p);
    const auto t0 = clock_t_::now();
    for (index_t vp = begin; vp < end; ++vp) fn(ctx, static_cast<int>(vp));
    const auto t1 = clock_t_::now();
    drained.ns += seconds_between(t0, t1) * 1e9;
    drained.vps += static_cast<int>(end - begin);
    if (tracing) {
      trace::chunk(serial, to_ns(t0), to_ns(t1), static_cast<int>(begin),
                   static_cast<int>(end));
    }
  }
  *slot += drained.ns;
  return drained;
}

void Machine::worker_loop(int worker_id, std::uint64_t seen) {
  trace::bind_worker(worker_id);
  BusySlot& slot = busy_[static_cast<std::size_t>(worker_id)];
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
    slot.region_ns = drain(fn_, ctx_, &slot.ns).ns;
    // Arrival barrier: the dispatcher returns from the region only after
    // every helper has checked in, so no stale claim can outlive a region.
    arrived_.fetch_add(1, std::memory_order_seq_cst);
    if (waiter_parked_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_one();
    }
  }
}

Machine::Grain Machine::grain_rule(const Site& site, const PoolCost& pool,
                                   bool parked) {
  // The safe default: a site's first region fans out.
  if (site.calls == 0) return Grain::FanOut;
  // The serial body time: exact after an inline run; after a fan-out, the
  // summed chunk time, which overstates a small body (cross-core misses, a
  // clock pair per chunk), or the site's last exact time if lower.
  double body = site.sum_ns;
  if (site.last_inline) {
    body = site.inline_ns;
  } else if (site.inline_ns >= 0.0) {
    body = std::min(body, site.inline_ns);
  }
  // Fanning out costs half the body plus the pool's cost with the helpers
  // spinning (the cheapest fan-out seen until that is sampled), or the
  // site's own fan-out wall if lower. Knowing neither cost, only a clear
  // margin counts: a body under half the site's last wall. Parked helpers
  // join only once awake, so the region lasts at least as long as a wake:
  // the pool's cost with the helpers parked, or the site's own wall from
  // its last wake if lower. An inline site fans out again only when these
  // costs, which the fanning sites keep measuring, say it should.
  const double cost = pool.spinning > 0.0 ? pool.spinning : pool.floor;
  double fan = site.wall_ns / 2;
  if (cost > 0.0) {
    fan = body / 2 + cost;
    if (site.fanout_ns >= 0.0) fan = std::min(fan, site.fanout_ns);
  }
  if (parked) {
    fan = std::max(fan, pool.parked);
    if (site.woke_ns >= 0.0) fan = std::min(fan, site.woke_ns);
  }
  if (body < fan) return Grain::Inline;
  // Fanning out is predicted. A site never timed inline may be a small
  // body overstated, when its summed chunks are within a few of the
  // cheapest fan-outs seen or the dispatcher's own chunks, scaled to all
  // VPs, took under half the wall: time it inline, once.
  if (site.inline_ns < 0.0 && !site.tried &&
      (body < kTrialFanOuts * pool.floor ||
       2 * site.own_serial_ns < site.wall_ns)) {
    return Grain::Trial;
  }
  return Grain::FanOut;
}

void Machine::CostWindow::add(double sample) {
  ns[next] = sample;
  next = (next + 1) % ns.size();
  low = sample;
  for (const double v : ns) {
    if (v > 0.0) low = std::min(low, v);
  }
}

double Machine::run_inline(RegionFn fn, void* ctx, std::uint64_t serial) {
  const auto t0 = clock_t_::now();
  for (int vp = 0; vp < vps_; ++vp) fn(ctx, vp);
  const auto t1 = clock_t_::now();
  const double ns = seconds_between(t0, t1) * 1e9;
  busy_[0].ns += ns;
  if (trace::enabled(trace::Mode::Summary)) {
    trace::chunk(serial, to_ns(t0), to_ns(t1), 0, vps_);
  }
  return ns;
}

Machine::FanOut Machine::fan_out(RegionFn fn, void* ctx) {
  cursor_.store(0, std::memory_order_relaxed);
  fn_ = fn;
  ctx_ = ctx;
  arrived_.store(0, std::memory_order_relaxed);
  gen_.fetch_add(1, std::memory_order_seq_cst);
  const bool woke = parked_.load(std::memory_order_seq_cst) > 0;
  if (woke) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_start_.notify_all();
  }

  const Drained own = drain(fn, ctx, &busy_[0].ns);
  double sum = own.ns;
  bool parked_wait = false;

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
      parked_wait = true;
      cv_done_.wait(lock, [&] {
        return arrived_.load(std::memory_order_seq_cst) == need;
      });
      waiter_parked_.store(false, std::memory_order_seq_cst);
    }
  }
  for (int w = 1; w < workers_; ++w) {
    sum += busy_[static_cast<std::size_t>(w)].region_ns;
  }
  // The dispatcher's chunks scaled to all P VPs: a second view of the
  // body, blind to the VPs the helpers ran.
  const double own_serial = own.vps > 0 ? own.ns * vps_ / own.vps : 0.0;
  return {sum, own.ns, own_serial, woke, parked_wait};
}

void Machine::spmd_raw(RegionFn fn, void* ctx, Site* site) {
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
  bool inline_run = workers_ == 1;
  if (!inline_run && site != nullptr) {
    if (site->epoch != epoch_) {
      *site = Site{};
      site->epoch = epoch_;
    }
    const Grain grain = grain_rule(
        *site, {cost_spinning_.low, cost_parked_.low, cost_floor_ns_},
        parked_.load(std::memory_order_relaxed) > 0);
    ++site->calls;
    if (grain == Grain::Trial) site->tried = true;
    inline_run = grain != Grain::FanOut;
  }
  if (inline_run) {
    const double ns = run_inline(fn, ctx, serial);
    ++counts_.inlined;
    if (site != nullptr) {
      site->inline_ns = ns;
      site->last_inline = true;
    }
  } else {
    const auto t0 = clock_t_::now();
    const FanOut f = fan_out(fn, ctx);
    const double wall = seconds_between(t0, clock_t_::now()) * 1e9;
    ++counts_.fanned_out;
    if (f.woke) ++counts_.woke;
    // A fan-out whose chunks summed to less than its wall, and in which the
    // dispatcher waited longer than it ran bodies, measured the pool, not
    // the body: it samples the cost of fanning out, unless a helper was so
    // late that the dispatcher parked at the barrier (descheduled, say).
    if (f.sum_ns < wall && 2 * f.own_ns < wall && !f.parked_wait) {
      (f.woke ? cost_parked_ : cost_spinning_).add(wall);
      if (!f.woke && (cost_floor_ns_ == 0.0 || wall < cost_floor_ns_)) {
        cost_floor_ns_ = wall;
      }
    }
    if (site != nullptr) {
      site->wall_ns = wall;
      site->sum_ns = f.sum_ns;
      site->own_serial_ns = f.own_serial_ns;
      if (f.woke) {
        site->woke_ns = wall;
      } else if (!f.parked_wait || site->fanout_ns < 0.0 ||
                 wall < site->fanout_ns) {
        // A wall that includes a parked wait still bounds the spinning
        // wall from above.
        site->fanout_ns = wall;
      }
      site->last_inline = false;
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
