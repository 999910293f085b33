#pragma once

/// \file chrome_export.hpp
/// Chrome trace-event JSON exporter for dpf::trace snapshots.
///
/// The emitted file loads in Perfetto (ui.perfetto.dev) or
/// chrome://tracing: one track per machine worker carrying SPMD region,
/// VP-chunk, collective and transport spans, instant marks for
/// TemporaryPool activity, plus one counter track charting transport bytes
/// in flight (posts add, fetches subtract).

#include <string>

#include "trace/trace.hpp"

namespace dpf::trace {

/// Writes `snap` as Chrome trace-event JSON ({"traceEvents": [...]}).
/// Timestamps are microseconds rebased to the earliest event. Returns
/// false if the file could not be opened or written.
[[nodiscard]] bool write_chrome_trace(const std::string& path,
                                      const Snapshot& snap);

}  // namespace dpf::trace
