#pragma once

/// \file machine.hpp
/// The virtual machine model underneath the DPF suite.
///
/// The paper's architectural model (section 1.3) is a distributed-memory
/// multiprocessor executing a single data-parallel thread of control. We
/// model it as a 1-D grid of P *virtual processors* (VPs) serviced by a pool
/// of worker threads. Every data-parallel operation is an SPMD region: each
/// VP executes the region body over its block of the distributed axis.
///
/// The machine keeps *busy time* (time spent inside SPMD region bodies),
/// summed over its workers as core-seconds. The suite's "busy time" metric
/// is the mean VP busy time (core-seconds / P), and "elapsed time" is
/// wall-clock time — mirroring the CM-5 timers where busy time excludes
/// idle/host-overhead periods. Arithmetic efficiency divides FLOPs by
/// core-seconds times the measured per-core peak.
///
/// Dispatch protocol (see DESIGN.md "Execution engine"): regions are
/// published to a persistent worker pool through a generation counter and a
/// plain function pointer + context (no std::function, no allocation).
/// Workers claim VPs in chunks off one shared atomic cursor, spin briefly on
/// the generation counter between regions, and park on a condition variable
/// only after the spin budget is exhausted. The dispatching thread always
/// participates as worker 0.
///
/// Grain: a top-level region whose serial body is expected to take less
/// than fanning it out would cost now runs inline on the dispatching thread,
/// VPs 0..P-1 in order, exactly as with a single worker (the default on a
/// single-core host). grain_rule() decides from two kinds of evidence: a
/// Site's own inline times and fan-out walls, which spmd() keeps per body
/// type, and the pool's fan-out cost with helpers spinning and with helpers
/// parked, which the fan-outs measure as they run. A site's first region in
/// a configure() epoch always fans out; so does every spmd_raw() call that
/// names no site.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/layout.hpp"
#include "core/types.hpp"

namespace dpf {

/// The machine singleton. Configure once at program start (or per test);
/// reconfiguration joins the old pool and starts a new one.
class Machine {
 public:
  /// Region body: fn(ctx, vp). The type-erasure-free analogue of
  /// std::function<void(int)> — one indirect call, no allocation.
  using RegionFn = void (*)(void* ctx, int vp);

  /// Called after every reconfigure() with the new VP count, so subsystems
  /// keyed to the VP grid (e.g. the dpf::net transport mailboxes) can resize
  /// without core depending on them.
  using ReconfigureHook = void (*)(int vps);

  /// Global machine instance. First access constructs a machine with
  /// `default_vps()` virtual processors.
  static Machine& instance();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();

  /// Reconfigures the machine with `vps` virtual processors serviced by
  /// min(vps, workers) worker threads, where `workers` is the DPF_WORKERS
  /// environment variable if set, else the hardware concurrency. Not
  /// callable from inside an SPMD region.
  void configure(int vps);

  /// Number of virtual processors P.
  [[nodiscard]] int vps() const { return vps_; }

  /// Number of OS worker threads servicing the VPs (including the
  /// dispatching thread).
  [[nodiscard]] int workers() const { return workers_; }

  /// Grain evidence of one body type of spmd(). spmd() keys it by the
  /// body's type, not by its caller, so every caller of one library
  /// instantiation shares one Site. In two perfbench passes, 12,424 of the
  /// exchange workload's 16,535 top-level regions ran on 8 Sites in
  /// dpf::net that all eight members draw on (planned_post, planned_local
  /// and planned_consume for double and complex<double>, and
  /// allgather_slots<double>'s two), and 8,937 of the suite's 18,115 on
  /// Sites of core and comm templates (cshift_into's sweep, copy,
  /// fill_par, dot, the reductions, ShiftBundle::start). Only the
  /// dispatching thread reads or writes it, inside a top-level spmd_raw().
  /// Times are in ns.
  struct Site {
    std::uint64_t epoch = 0;   ///< configure() epoch the state belongs to
    double inline_ns = -1.0;   ///< the last inline run's body time (exact)
    double fanout_ns = -1.0;   ///< the last fan-out wall, helpers spinning
    double woke_ns = -1.0;     ///< the last fan-out wall, helpers parked
    double wall_ns = 0.0;      ///< the last fan-out's wall
    double sum_ns = 0.0;       ///< the last fan-out's summed chunk time
    double own_serial_ns = 0.0;  ///< the dispatcher's share, scaled to P
    std::uint32_t calls = 0;   ///< regions run this epoch
    bool last_inline = false;  ///< how the last region ran
    bool tried = false;        ///< ran inline before inline_ns was known
  };

  /// The pool's cost of a fan-out as the grain rule reads it, in ns (0
  /// until sampled): the lowest recent wall with the helpers spinning and
  /// with them parked, and the cheapest spinning wall the process has seen.
  struct PoolCost {
    double spinning = 0.0;
    double parked = 0.0;
    double floor = 0.0;
  };

  /// How a site's next region runs: inline, fanned out, or inline once to
  /// time a body that its fan-outs may overstate.
  enum class Grain { Inline, FanOut, Trial };

  /// The grain rule: how `site`'s next region runs, given the pool's cost
  /// and whether the helpers are parked. A pure function of its arguments;
  /// spmd_raw() keeps the site's epoch, call count and trial flag.
  [[nodiscard]] static Grain grain_rule(const Site& site, const PoolCost& pool,
                                        bool parked);

  /// Top-level regions by how they ran, counted by the dispatching thread
  /// since the machine was constructed (configure() does not reset them).
  struct RegionCounts {
    std::uint64_t inlined = 0;     ///< ran inline on the dispatcher
    std::uint64_t fanned_out = 0;  ///< published to the pool
    std::uint64_t woke = 0;        ///< fanned out with helpers parked
  };

  /// Runs `body(vp)` for every vp in [0, P); blocks until all complete.
  /// Time spent in region bodies accrues to busy time. Nested calls from
  /// inside a region body execute inline on the calling VP (the machine is
  /// a flat SPMD model, like CMF). Whether a top-level region fans out to
  /// the pool or runs inline on the dispatcher is decided per body type
  /// (file comment); the VPs and their results are the same either way.
  template <typename F>
  void spmd(F&& body) {
    using Fn = std::remove_reference_t<F>;
    static Site site;
    spmd_raw(
        [](void* ctx, int vp) { (*static_cast<Fn*>(ctx))(vp); },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))),
        &site);
  }

  /// The untyped core of spmd(): runs fn(ctx, vp) for every vp. With no
  /// `site` a multi-worker machine always fans the region out.
  void spmd_raw(RegionFn fn, void* ctx, Site* site = nullptr);

  /// Top-level region counts so far.
  [[nodiscard]] RegionCounts region_counts() const { return counts_; }

  /// Resets the busy-time accumulators.
  void reset_busy();

  /// Region-body time summed over the workers (core-seconds) since the
  /// last reset_busy(); at most elapsed time times workers().
  [[nodiscard]] double busy_core_seconds() const;

  /// Mean per-VP busy time in seconds since the last reset_busy(): the
  /// paper's busy time, busy_core_seconds() / vps().
  [[nodiscard]] double busy_seconds() const;

  /// Peak FLOP rate of one core (MFLOPS): the highest over VPs of a
  /// register-resident 4-wide multiply/add throughput kernel, timed for a
  /// few microseconds per VP in one SPMD region on the first call and
  /// cached for the life of the process. It measures the host, so it does
  /// not follow DPF_SIMD.
  [[nodiscard]] double core_peak_mflops();

  /// Cores the machine peak is scaled by: min(vps, workers, hardware
  /// threads).
  [[nodiscard]] int peak_cores() const;

  /// Peak FLOP rate of the whole machine (MFLOPS), the analogue of the
  /// CM-5's 32 MFLOPS per vector unit: core_peak_mflops() * peak_cores().
  [[nodiscard]] double peak_mflops();

  /// Wall time of the peak probe in seconds (0 until it has run).
  [[nodiscard]] double peak_probe_seconds() const { return peak_probe_s_; }

  /// Default VP count: DPF_VPS environment variable if set, else 4.
  [[nodiscard]] static int default_vps();

  /// Worker-thread budget: DPF_WORKERS if set (clamp-or-ignore via
  /// env::int_or), else hardware concurrency. configure() caps the live
  /// pool at min(worker_budget(), vps).
  [[nodiscard]] static int worker_budget();

  /// Serial number of the last top-level SPMD region started (nested inline
  /// regions do not count). Region boundaries are the machine's only global
  /// barriers; the transport layer uses this counter to enforce that a
  /// mailbox posted in one region is fetched only in a later one.
  [[nodiscard]] std::uint64_t region_serial() const {
    return region_serial_.load(std::memory_order_relaxed);
  }

  /// True while a top-level SPMD region is executing on this machine.
  [[nodiscard]] bool inside_region() const {
    return in_region_.load(std::memory_order_relaxed);
  }

  /// Installs the reconfigure hook (one slot; pass nullptr to clear). The
  /// hook runs on the configuring thread after the new pool is live.
  void set_reconfigure_hook(ReconfigureHook hook) { reconfigure_hook_ = hook; }

 private:
  Machine();
  void start_pool();
  void stop_pool();
  void worker_loop(int worker_id, std::uint64_t seen);
  /// Claims and executes chunks of the current region's VP queue until the
  /// cursor is exhausted; accrues chunk time to busy slot `slot` and
  /// returns the ns it accrued and the VPs it ran.
  struct Drained {
    double ns = 0.0;
    int vps = 0;
  };
  Drained drain(RegionFn fn, void* ctx, double* slot);
  /// Runs VPs 0..P-1 in order on the calling thread as one chunk charged
  /// to busy slot 0; returns the body time in ns.
  double run_inline(RegionFn fn, void* ctx, std::uint64_t serial);
  /// Publishes the region to the pool, drains with it and waits at the
  /// arrival barrier; returns the region's summed chunk time and the
  /// dispatcher's own, in ns, whether publishing had to wake parked helpers
  /// and whether the dispatcher parked at the barrier.
  struct FanOut {
    double sum_ns;
    double own_ns;
    double own_serial_ns;  ///< own_ns scaled to all P VPs
    bool woke;
    bool parked_wait;
  };
  FanOut fan_out(RegionFn fn, void* ctx);

  int vps_ = 1;
  int workers_ = 1;
  index_t chunk_ = 1;  ///< VPs claimed per cursor fetch_add

  // --- dispatch state ---------------------------------------------------
  // Region publication: the dispatcher writes fn_/ctx_, resets the cursor
  // and arrival count, then increments gen_ (release). Workers acquire-read
  // gen_, so the plain fields are safely visible. Workers re-enter the
  // queue only after the dispatcher has observed their arrival, so the
  // cursor reset can never race a stale claim (no ABA).
  alignas(64) std::atomic<std::uint64_t> gen_{0};
  alignas(64) std::atomic<index_t> cursor_{0};  ///< next unclaimed VP
  alignas(64) std::atomic<int> arrived_{0};     ///< helpers done this region
  RegionFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> in_region_{false};
  std::atomic<std::uint64_t> region_serial_{0};
  ReconfigureHook reconfigure_hook_ = nullptr;

  // --- grain state (dispatching thread only) ----------------------------
  std::uint64_t epoch_ = 0;  ///< configure() count; stales every Site
  /// The lowest of the last eight samples of one of the pool's costs, in
  /// ns (0 until sampled): one slow sample does not move it; a lasting
  /// change does.
  struct CostWindow {
    std::array<double, 8> ns{};
    std::size_t next = 0;
    double low = 0.0;
    void add(double sample);
  };
  /// Walls of fan-outs whose chunks summed to less than the wall and in
  /// which the dispatcher ran bodies for less than half of it, i.e. the
  /// pool's own cost, by the helpers' state at publication.
  CostWindow cost_spinning_;
  CostWindow cost_parked_;
  /// The cheapest fan-out with helpers spinning this process has seen.
  double cost_floor_ns_ = 0.0;
  RegionCounts counts_;

  // --- park/wake slow path ---------------------------------------------
  std::mutex mu_;
  std::condition_variable cv_start_;  ///< parked workers await a new gen
  std::condition_variable cv_done_;   ///< parked dispatcher awaits arrivals
  std::atomic<int> parked_{0};        ///< workers currently on cv_start_
  std::atomic<bool> waiter_parked_{false};  ///< dispatcher on cv_done_

  std::vector<std::thread> pool_;

  /// Per-worker busy accumulators, cache-line padded. Slot 0 belongs to the
  /// dispatching thread. busy_core_seconds() reports the sum; busy_seconds()
  /// the per-VP mean sum / vps (chunked timing redistributes time among VPs
  /// inside one chunk but preserves the sum).
  struct alignas(64) BusySlot {
    double ns = 0.0;
    double region_ns = 0.0;  ///< a helper's chunk time in its last region
  };
  std::vector<BusySlot> busy_;

  double core_peak_mflops_ = 0.0;  ///< per core, so it survives configure()
  double peak_probe_s_ = 0.0;
};

/// Runs `body(vp, block)` on every VP, where `block` is vp's block of [0,n).
/// Empty blocks are skipped. This is the workhorse for elementwise operations
/// over a distributed axis of extent n.
template <typename F>
void for_each_block(index_t n, F&& body) {
  Machine& m = Machine::instance();
  const int p = m.vps();
  m.spmd([&](int vp) {
    const Block b = block_of(n, p, vp);
    if (b.size() > 0) body(vp, b);
  });
}

}  // namespace dpf
