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
/// The machine keeps *busy time* (time spent inside SPMD region bodies).
/// The suite's "busy time" metric is the mean VP busy time, and "elapsed
/// time" is wall-clock time — mirroring the CM-5 timers where busy time
/// excludes idle/host-overhead periods.
///
/// Dispatch protocol (see DESIGN.md "Execution engine"): regions are
/// published to a persistent worker pool through a generation counter and a
/// plain function pointer + context (no std::function, no allocation).
/// Workers claim VPs in chunks off one shared atomic cursor, spin briefly on
/// the generation counter between regions, and park on a condition variable
/// only after the spin budget is exhausted. The dispatching thread always
/// participates as worker 0; with a single worker (the default on a
/// single-core host) a region is a plain inline loop with no atomics beyond
/// one cursor reset.

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

  /// Called on the dispatching thread after every *top-level* SPMD region
  /// completes (all workers arrived, before spmd_raw returns). Region
  /// boundaries are the machine's only global barriers; a transport backend
  /// whose delivery runs outside the worker pool (e.g. the multi-process
  /// shared-memory backend) uses this hook to quiesce in-flight messages so
  /// the post-in-region-k / fetch-in-region-k+1 happens-before edge holds
  /// across OS processes too.
  using BarrierHook = void (*)();

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

  /// Runs `body(vp)` for every vp in [0, P); blocks until all complete.
  /// Time spent in region bodies accrues to busy time. Nested calls from
  /// inside a region body execute inline on the calling VP (the machine is
  /// a flat SPMD model, like CMF).
  template <typename F>
  void spmd(F&& body) {
    using Fn = std::remove_reference_t<F>;
    spmd_raw(
        [](void* ctx, int vp) { (*static_cast<Fn*>(ctx))(vp); },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// The untyped core of spmd(): runs fn(ctx, vp) for every vp.
  void spmd_raw(RegionFn fn, void* ctx);

  /// Resets the busy-time accumulators.
  void reset_busy();

  /// Mean per-VP busy time in seconds since the last reset_busy().
  [[nodiscard]] double busy_seconds() const;

  /// Calibrated peak FLOP rate of the whole machine (MFLOPS), the analogue
  /// of the CM-5's 32 MFLOPS-per-VU figure used for arithmetic efficiency.
  /// Calibrated lazily by a fused multiply-add microkernel on every VP.
  [[nodiscard]] double peak_mflops();

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

  /// Installs the region-barrier hook (one slot; pass nullptr to clear).
  /// Cost when unset is one relaxed load per region.
  void set_barrier_hook(BarrierHook hook) {
    barrier_hook_.store(hook, std::memory_order_release);
  }

 private:
  Machine();
  void start_pool();
  void stop_pool();
  void worker_loop(int worker_id, std::uint64_t seen);
  /// Claims and executes chunks of the current region's VP queue until the
  /// cursor is exhausted; accrues chunk time to busy slot `slot`.
  void drain(RegionFn fn, void* ctx, double* slot);

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
  std::atomic<BarrierHook> barrier_hook_{nullptr};

  // --- park/wake slow path ---------------------------------------------
  std::mutex mu_;
  std::condition_variable cv_start_;  ///< parked workers await a new gen
  std::condition_variable cv_done_;   ///< parked dispatcher awaits arrivals
  std::atomic<int> parked_{0};        ///< workers currently on cv_start_
  std::atomic<bool> waiter_parked_{false};  ///< dispatcher on cv_done_

  std::vector<std::thread> pool_;

  /// Per-worker busy accumulators, cache-line padded. Slot 0 belongs to the
  /// dispatching thread. busy_seconds() reports sum / vps (the per-VP mean;
  /// chunked timing redistributes time among VPs inside one chunk but
  /// preserves the sum).
  struct alignas(64) BusySlot {
    double ns = 0.0;
  };
  std::vector<BusySlot> busy_;

  double peak_mflops_ = 0.0;
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
