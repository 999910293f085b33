#include "net/net.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/machine.hpp"
#include "net/cost_model.hpp"
#include "net/local_transport.hpp"
#include "net/shm_transport.hpp"

namespace dpf::net {
namespace {

std::atomic<std::uint64_t> tag_counter{1};

LocalTransport& local_transport() {
  static LocalTransport t(Machine::instance().vps());
  return t;
}

void reconfigure_hook(int vps) {
  local_transport().resize(vps);
  // The shm backend only tracks the grid while selected; deselected, its
  // router pod is torn down rather than re-forked for a grid nobody uses.
  if (ShmTransport::created()) {
    if (backend() == Backend::Shm) {
      ShmTransport::instance().resize(vps);
    } else {
      ShmTransport::instance().shutdown();
    }
  }
}

/// Machine region-barrier hook: one relaxed load per region when the shm
/// backend is idle, the cross-process quiesce when it has in-flight posts.
void barrier_hook() {
  if (ShmTransport::created()) ShmTransport::instance().quiesce();
}

}  // namespace

Mode mode() {
  const char* s = std::getenv("DPF_NET");
  if (s != nullptr && *s != '\0') {
    if (std::strcmp(s, "algorithmic") == 0) return Mode::Algorithmic;
    if (std::strcmp(s, "overlap") == 0) return Mode::Overlap;
    if (std::strcmp(s, "direct") != 0) {
      // A set-but-unrecognized mode is rejected *loudly*, once: a silent
      // fall back to direct would quietly skip the transport paths the
      // caller asked to exercise (e.g. DPF_NET=overlop).
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "dpf: ignoring DPF_NET=\"%s\" (expected "
                     "direct|algorithmic|overlap); using default direct\n",
                     s);
      }
    }
  }
  return Mode::Direct;
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Direct: return "direct";
    case Mode::Algorithmic: return "algorithmic";
    case Mode::Overlap: return "overlap";
  }
  return "?";
}

Backend backend() {
  const char* s = std::getenv("DPF_NET_BACKEND");
  if (s != nullptr && *s != '\0') {
    if (std::strcmp(s, "shm") == 0) return Backend::Shm;
    if (std::strcmp(s, "local") != 0) {
      // Same loud-once policy as mode(): a typo'd backend must not silently
      // skip the multi-process paths the caller asked for.
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "dpf: ignoring DPF_NET_BACKEND=\"%s\" (expected "
                     "local|shm); using default local\n",
                     s);
      }
    }
  }
  return Backend::Local;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Local: return "local";
    case Backend::Shm: return "shm";
  }
  return "?";
}

Transport& transport() {
  static bool hook_installed = [] {
    Machine::instance().set_reconfigure_hook(&reconfigure_hook);
    return true;
  }();
  (void)hook_installed;
  const int vps = Machine::instance().vps();
  if (backend() == Backend::Shm) {
    static bool barrier_installed = [] {
      Machine::instance().set_barrier_hook(&barrier_hook);
      return true;
    }();
    (void)barrier_installed;
    ShmTransport& s = ShmTransport::instance();
    // The machine may have been reconfigured before the hook existed, and
    // resize() is also the (re)start path after a shutdown.
    if (!s.running() || s.endpoints() != vps) s.resize(vps);
    if (s.running()) return s;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "dpf: shm backend unavailable; falling back to the local "
                   "transport\n");
    }
  }
  LocalTransport& t = local_transport();
  if (t.endpoints() != vps) t.resize(vps);
  return t;
}

void merge_router_trace(trace::Snapshot& snap) {
  if (ShmTransport::created() && ShmTransport::instance().running()) {
    ShmTransport::instance().append_router_trace(snap);
  }
}

std::uint64_t next_tag() {
  return tag_counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_tags(std::uint64_t count) {
  return tag_counter.fetch_add(count, std::memory_order_relaxed);
}

void annotate(CommEvent& e) {
  Machine& m = Machine::instance();
  const int p = m.vps();
  CostModel& model = CostModel::instance();
  e.hops = static_cast<int>(model.pattern_hops(e.pattern, p) + 0.5);
  if (model.calibrated()) {
    e.predicted_seconds = model.predict(e, p, m.workers(), algorithmic());
  }
}

void calibrate(bool force) { CostModel::instance().calibrate(force); }

}  // namespace dpf::net
