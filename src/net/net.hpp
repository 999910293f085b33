#pragma once

/// \file net.hpp
/// Front door of the dpf::net interconnect subsystem.
///
/// Selects between the two formulations of every collective:
///
///   DPF_NET=direct   shared-memory data motion (the default)
///   DPF_NET=overlap  message passing over the Transport mailboxes, with
///                    split-phase collectives: boundary messages are posted
///                    one or more SPMD regions before they are consumed, so
///                    callers can interleave compute with the in-flight
///                    window
///
/// Both produce bit-identical results and identical CommEvent payload
/// accounting; the message-passing path additionally drives real per-VP
/// messages through the transport, which is what the microbenchmarks and
/// the fat-tree cost model calibrate against. The retired third mode,
/// DPF_NET=algorithmic, runs overlap and says so once on stderr.

#include <cstdint>

#include "core/comm_log.hpp"
#include "net/transport.hpp"

namespace dpf::net {

enum class Mode { Direct, Overlap };

/// Current mode from the DPF_NET environment variable, read per call so
/// tests can flip it between collectives. Each primitive reads it where it
/// chooses its path; the two modes are manual cross-checks of each other,
/// never chosen for speed. The retired value "algorithmic" runs Overlap and
/// warns once on stderr; any other set-but-unrecognized value ("auto"
/// included) warns once and falls back to Direct.
[[nodiscard]] Mode mode();

/// The DPF_NET spelling of a mode ("direct" | "overlap").
[[nodiscard]] const char* mode_name(Mode m);

/// True when the message-passing formulation is selected: every primitive
/// with an index-map reformulation routes through the transport exchange
/// engine.
[[nodiscard]] inline bool algorithmic() { return mode() != Mode::Direct; }

/// The process-wide transport, sized to the machine's VP grid. First use
/// installs the Machine reconfigure hook so the mailboxes resize (dropping
/// stale messages) whenever the VP count changes, and warns once on stderr
/// if the retired DPF_NET_BACKEND knob asks for anything but `local`.
[[nodiscard]] Transport& transport();

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
