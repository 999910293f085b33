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

/// Current mode from the DPF_NET environment variable, read per call so
/// tests can flip it between collectives. Each primitive reads it where it
/// chooses its path; the three modes are manual cross-checks of each
/// other, never chosen for speed. A set-but-unrecognized value ("auto"
/// included) warns once on stderr and falls back to Direct.
[[nodiscard]] Mode mode();

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

}  // namespace dpf::net
