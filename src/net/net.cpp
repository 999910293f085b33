#include "net/net.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/machine.hpp"
#include "net/cost_model.hpp"

namespace dpf::net {
namespace {

std::atomic<std::uint64_t> tag_counter{1};

Transport& mailboxes() {
  static Transport t(Machine::instance().vps());
  return t;
}

void reconfigure_hook(int vps) { mailboxes().resize(vps); }

/// DPF_NET_BACKEND once chose between these mailboxes and a multi-process
/// shared-memory transport. Setting it now changes nothing, so a run that
/// asks for another backend is told so, once, instead of silently getting
/// the in-process one.
void warn_retired_backend() {
  const char* s = std::getenv("DPF_NET_BACKEND");
  if (s == nullptr || *s == '\0' || std::strcmp(s, "local") == 0) return;
  std::fprintf(stderr,
               "dpf: ignoring DPF_NET_BACKEND=\"%s\" (the shm backend was "
               "removed; messages use the in-process transport)\n",
               s);
}

}  // namespace

Mode mode() {
  const char* s = std::getenv("DPF_NET");
  if (s != nullptr && *s != '\0') {
    if (std::strcmp(s, "overlap") == 0) return Mode::Overlap;
    if (std::strcmp(s, "algorithmic") == 0) {
      // The third mode differed from overlap only in running exchanges
      // unsplit; a run that still names it gets overlap and is told so.
      static std::atomic<bool> retired{false};
      if (!retired.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "dpf: DPF_NET=\"algorithmic\" was retired; running "
                     "overlap\n");
      }
      return Mode::Overlap;
    }
    if (std::strcmp(s, "direct") != 0) {
      // A set-but-unrecognized mode is rejected *loudly*, once: a silent
      // fall back to direct would quietly skip the transport paths the
      // caller asked to exercise (e.g. DPF_NET=overlop).
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(stderr,
                     "dpf: ignoring DPF_NET=\"%s\" (expected "
                     "direct|overlap); using default direct\n",
                     s);
      }
    }
  }
  return Mode::Direct;
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Direct: return "direct";
    case Mode::Overlap: return "overlap";
  }
  return "?";
}

Transport& transport() {
  static bool initialized = [] {
    warn_retired_backend();
    Machine::instance().set_reconfigure_hook(&reconfigure_hook);
    return true;
  }();
  (void)initialized;
  Transport& t = mailboxes();
  const int vps = Machine::instance().vps();
  if (t.endpoints() != vps) t.resize(vps);
  return t;
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
