#pragma once

/// \file net.hpp
/// Front door of the dpf::net interconnect subsystem.
///
/// Selects between the three formulations of every collective:
///
///   DPF_NET=direct       shared-memory data motion (the default)
///   DPF_NET=algorithmic  message-passing over the Transport mailboxes
///   DPF_NET=overlap      message passing with split-phase collectives:
///                        boundary messages are posted one or more SPMD
///                        regions before they are consumed, so callers can
///                        interleave compute with the in-flight window
///
/// All three produce bit-identical results and identical CommEvent payload
/// accounting; the message-passing paths additionally drive real per-VP
/// messages through the transport, which is what the microbenchmarks and
/// the fat-tree cost model calibrate against. Overlap mode is algorithmic
/// mode with the exchange engine (exchange_plan.hpp) running split-phase.

#include <cstdint>

#include "core/comm_log.hpp"
#include "net/transport.hpp"
#include "trace/trace.hpp"

namespace dpf::net {

enum class Mode { Direct, Algorithmic, Overlap };

/// Which Transport implementation carries the messages:
///
///   DPF_NET_BACKEND=local  in-process mailboxes (the default)
///   DPF_NET_BACKEND=shm    shared-memory rings with delivery sharded
///                          across DPF_NET_PROCS forked router processes
///                          (shm_transport.hpp)
///
/// Orthogonal to DPF_NET: the mode picks the collective formulation, the
/// backend picks what a post/fetch physically does. All backends are
/// bit-identical; they differ in cost, which is why the cost model keeps
/// per-backend calibration constants.
enum class Backend { Local, Shm };

/// Current mode from the DPF_NET environment variable (read per call so
/// tests can flip it between collectives). `DPF_NET=auto` resolves to
/// Direct here — the tuner's per-call choice is installed via ScopedMode by
/// the dispatching primitive (mode_for), so everything nested under it
/// (overlap() checks, annotate()) sees the decided mode through this same
/// accessor.
[[nodiscard]] Mode mode();

/// True when DPF_NET=auto selects the autotuned dispatch (net/tune.hpp).
[[nodiscard]] bool auto_enabled();

/// The mode a dispatching primitive should run under: the innermost
/// ScopedMode override if one is active (nested collectives inherit the
/// outer decision), else the manual DPF_NET mode, else — under
/// DPF_NET=auto — the tuner's choice for (pattern, message bytes).
/// Control thread only, like the collectives themselves.
[[nodiscard]] Mode mode_for(CommPattern pattern, std::uint64_t bytes);

/// The DPF_NET label for reports and result keys: "auto" when the tuner
/// drives dispatch (tuned runs must not be conflated with manual ones in
/// caches or perf JSON), else mode_name(mode()).
[[nodiscard]] const char* mode_label();

/// RAII thread-local mode override. A dispatching primitive decides its
/// mode once at the top (mode_for) and installs it for the whole call, so
/// every nested mode()/algorithmic()/overlap() read — including the
/// trailing CommLog record and its annotate() — sees the decided mode.
/// Split-phase handles store the decided mode and re-scope their finish().
class ScopedMode {
 public:
  explicit ScopedMode(Mode m);
  ~ScopedMode();
  ScopedMode(const ScopedMode&) = delete;
  ScopedMode& operator=(const ScopedMode&) = delete;

 private:
  int prev_;
};

/// The DPF_NET spelling of a mode ("direct" | "algorithmic" | "overlap").
[[nodiscard]] const char* mode_name(Mode m);

/// Current backend from the DPF_NET_BACKEND environment variable (read per
/// call, like mode()). A set-but-unrecognized value warns once on stderr
/// and falls back to Backend::Local.
[[nodiscard]] Backend backend();

/// The DPF_NET_BACKEND spelling of a backend ("local" | "shm").
[[nodiscard]] const char* backend_name(Backend b);

/// True when a message-passing formulation is selected (algorithmic or
/// overlap): every primitive with an index-map reformulation routes through
/// the transport exchange engine.
[[nodiscard]] inline bool algorithmic() { return mode() != Mode::Direct; }

/// True when the split-phase (overlap) formulation is selected.
[[nodiscard]] inline bool overlap() { return mode() == Mode::Overlap; }

/// The process-wide transport of the selected backend, sized to the
/// machine's VP grid. First use installs the Machine reconfigure hook so
/// the mailboxes resize (dropping stale messages) whenever the VP count
/// changes; selecting the shm backend additionally installs the machine's
/// region-barrier hook (the cross-process quiesce). If the shm backend
/// cannot start (arena refused, fork failed hard), falls back to the local
/// transport with a one-shot stderr warning.
[[nodiscard]] Transport& transport();

/// Appends the shm backend's router-process delivery timelines to a trace
/// snapshot (no-op under the local backend). Export paths call this after
/// trace::collect() so cross-process activity shows up in the merge.
void merge_router_trace(trace::Snapshot& snap);

/// Allocates a fresh message tag (control thread only — collectives reserve
/// their tags before entering the posting region).
[[nodiscard]] std::uint64_t next_tag();

/// Reserves `count` consecutive tags and returns the first.
[[nodiscard]] std::uint64_t next_tags(std::uint64_t count);

/// Annotates an event with its fat-tree hop count and, once the cost model
/// has been calibrated, the predicted transfer time. Called by the comm
/// recording shim for every event.
void annotate(CommEvent& e);

/// Calibrates the cost model (idempotent; `force` re-runs the probes).
/// Control thread only.
void calibrate(bool force = false);

/// Whether the currently installed cost-model parameters came from a
/// persisted calibration cache (dpf::serve) rather than live probes. Live
/// probing clears the flag; CalibrationCache::prime() sets it. Bench JSON
/// emitters surface it as `calibration_cache_hit` so daemon-served runs
/// are distinguishable in the artifacts.
void set_calibration_from_cache(bool hit);
[[nodiscard]] bool calibration_from_cache();

}  // namespace dpf::net
