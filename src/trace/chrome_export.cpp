#include "trace/chrome_export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "core/comm_log.hpp"
#include "trace/flight.hpp"

namespace dpf::trace {
namespace {

/// Earliest timestamp across the snapshot — the trace's time origin.
std::uint64_t base_time(const Snapshot& snap) {
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (const WorkerTrace& w : snap.workers) {
    for (const Event& e : w.events) base = std::min(base, e.t0_ns);
  }
  return base == std::numeric_limits<std::uint64_t>::max() ? 0 : base;
}

double us(std::uint64_t ns, std::uint64_t base) {
  return static_cast<double>(ns - base) / 1000.0;
}

const char* event_name(const Event& e, char* buf, std::size_t n) {
  switch (e.kind) {
    case EventKind::Region:
      std::snprintf(buf, n, "region %" PRIu32, e.serial);
      return buf;
    case EventKind::Chunk:
      std::snprintf(buf, n, "vp [%u,%u)", e.x, e.y);
      return buf;
    case EventKind::Collective: {
      const std::string_view pat =
          to_string(static_cast<CommPattern>(e.pattern));
      std::snprintf(buf, n, "%.*s", static_cast<int>(pat.size()), pat.data());
      return buf;
    }
    case EventKind::Post:
      std::snprintf(buf, n, "post %u->%u", e.x, e.y);
      return buf;
    case EventKind::Fetch:
      std::snprintf(buf, n, "fetch %u<-%u", e.y, e.x);
      return buf;
    case EventKind::PoolAcquire:
      return e.x ? "pool acquire (hit)" : "pool acquire (miss)";
    case EventKind::PoolRelease:
      return e.x ? "pool release (recycled)" : "pool release (dropped)";
    case EventKind::Overlap: {
      const std::string_view pat =
          to_string(static_cast<CommPattern>(e.pattern));
      std::snprintf(buf, n, "overlap %.*s", static_cast<int>(pat.size()),
                    pat.data());
      return buf;
    }
  }
  return "?";
}

const char* category(EventKind k) {
  switch (k) {
    case EventKind::Region:
    case EventKind::Chunk:
      return "spmd";
    case EventKind::Collective:
      return "comm";
    case EventKind::Post:
    case EventKind::Fetch:
      return "net";
    case EventKind::PoolAcquire:
    case EventKind::PoolRelease:
      return "pool";
    case EventKind::Overlap:
      return "comm";
  }
  return "?";
}

}  // namespace

bool write_chrome_trace(const std::string& path, const Snapshot& snap) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t base = base_time(snap);

  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };

  sep();
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
               "\"args\":{\"name\":\"dpf machine\"}}");
  for (const WorkerTrace& w : snap.workers) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"worker %d\"}}",
                 w.worker, w.worker);
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                 "\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}",
                 w.worker, w.worker);
  }

  char name[64];
  for (const WorkerTrace& w : snap.workers) {
    for (const Event& e : w.events) {
      sep();
      const bool instant = e.kind == EventKind::PoolAcquire ||
                           e.kind == EventKind::PoolRelease;
      if (instant) {
        std::fprintf(f,
                     "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"s\":\"t\","
                     "\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"%s\","
                     "\"args\":{\"bytes\":%" PRIu64 "}}",
                     w.worker, us(e.t0_ns, base),
                     event_name(e, name, sizeof(name)), category(e.kind),
                     e.arg);
        continue;
      }
      std::fprintf(f,
                   "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"%s\",\"args\":{",
                   w.worker, us(e.t0_ns, base),
                   static_cast<double>(e.t1_ns - e.t0_ns) / 1000.0,
                   event_name(e, name, sizeof(name)), category(e.kind));
      switch (e.kind) {
        case EventKind::Region:
          std::fprintf(f, "\"serial\":%" PRIu32 ",\"vps\":%" PRIu64, e.serial,
                       e.arg);
          break;
        case EventKind::Chunk:
          std::fprintf(f,
                       "\"serial\":%" PRIu32 ",\"vp_begin\":%u,\"vp_end\":%u",
                       e.serial, e.x, e.y);
          break;
        case EventKind::Collective:
          std::fprintf(f,
                       "\"pattern\":\"%s\",\"bytes\":%" PRIu64
                       ",\"predicted_s\":%.9f,\"hops\":%u,\"serial\":%" PRIu32,
                       std::string(
                           to_string(static_cast<CommPattern>(e.pattern)))
                           .c_str(),
                       e.arg, e.aux, e.x, e.serial);
          break;
        case EventKind::Post:
        case EventKind::Fetch:
          std::fprintf(f,
                       "\"bytes\":%" PRIu64 ",\"src\":%u,\"dst\":%u,"
                       "\"serial\":%" PRIu32,
                       e.arg, e.x, e.y, e.serial);
          break;
        case EventKind::Overlap:
          std::fprintf(f, "\"pattern\":\"%s\",\"bytes\":%" PRIu64,
                       std::string(
                           to_string(static_cast<CommPattern>(e.pattern)))
                           .c_str(),
                       e.arg);
          break;
        default:
          break;
      }
      std::fprintf(f, "}}");
    }
  }

  // Counter track: transport bytes in flight over time, reconstructed with
  // per-channel clamping so ring overflow cannot drive the level negative
  // (flight.hpp); the two loss modes are annotated once at the end.
  const FlightSeries series = bytes_in_flight(snap);
  for (const FlightSample& s : series.samples) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"C\",\"pid\":0,\"name\":\"bytes in flight\","
                 "\"ts\":%.3f,\"args\":{\"bytes\":%" PRId64 "}}",
                 us(s.t_ns, base), s.bytes);
  }
  if (series.orphan_fetch_bytes > 0 || series.residual_bytes > 0) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"s\":\"g\",\"ts\":%.3f,"
                 "\"name\":\"flight accounting loss\",\"cat\":\"net\","
                 "\"args\":{\"orphan_fetch_bytes\":%" PRIu64
                 ",\"residual_bytes\":%" PRIu64 "}}",
                 series.samples.empty()
                     ? 0.0
                     : us(series.samples.back().t_ns, base),
                 series.orphan_fetch_bytes, series.residual_bytes);
  }

  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace dpf::trace
