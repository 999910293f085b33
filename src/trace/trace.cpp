#include "trace/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

namespace dpf::trace {
namespace {

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 15;  // 32768
constexpr std::size_t kMinCapacity = 64;

std::size_t round_pow2(std::size_t n) {
  std::size_t c = kMinCapacity;
  while (c < n) c <<= 1;
  return c;
}

/// Ring registry. unique_ptr keeps ring addresses stable across growth so
/// thread-local pointers held by workers never dangle.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;  // indexed by worker id
  std::size_t capacity = 0;                  // 0 = not yet resolved
  std::atomic<std::uint64_t> unbound{0};

  std::size_t resolve_capacity() {
    if (capacity == 0) {
      capacity = kDefaultCapacity;
      const char* s = std::getenv("DPF_TRACE_CAP");
      if (s != nullptr && *s != '\0') {
        // The capacity is a constant (traced benchmark runs drop no event
        // at it); a run that still sets the knob is told so, once.
        std::fprintf(stderr,
                     "dpf: DPF_TRACE_CAP was retired; trace rings hold %zu "
                     "events\n",
                     kDefaultCapacity);
      }
    }
    return capacity;
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

namespace detail {

std::atomic<int> g_level{-1};
thread_local Ring* t_ring = nullptr;

int init_level() {
  const char* s = std::getenv("DPF_TRACE");
  const Mode m = parse_mode(s);
  if (m == Mode::Off && s != nullptr && *s != '\0' &&
      std::strcmp(s, "off") != 0) {
    // Loud once, like DPF_NET and DPF_SIMD: a typo must not silently turn
    // tracing off.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "dpf: ignoring DPF_TRACE=\"%s\" (expected "
                   "off|summary|full); using default off\n",
                   s);
    }
  }
  const int l = static_cast<int>(m);
  int expected = -1;
  g_level.compare_exchange_strong(expected, l, std::memory_order_relaxed);
  return g_level.load(std::memory_order_relaxed);
}

}  // namespace detail

Mode parse_mode(const char* s) noexcept {
  if (s == nullptr) return Mode::Off;
  if (std::strcmp(s, "summary") == 0) return Mode::Summary;
  if (std::strcmp(s, "full") == 0) return Mode::Full;
  return Mode::Off;
}

Mode mode() {
  int l = detail::g_level.load(std::memory_order_relaxed);
  if (l < 0) l = detail::init_level();
  return static_cast<Mode>(l);
}

void set_mode(Mode m) {
  detail::g_level.store(static_cast<int>(m), std::memory_order_relaxed);
}

std::vector<Event> Ring::snapshot() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t kept = h < buf_.size() ? h : buf_.size();
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(kept));
  for (std::uint64_t i = h - kept; i < h; ++i) {
    out.push_back(buf_[static_cast<std::size_t>(i) & mask_]);
  }
  return out;
}

void Ring::reset_capacity(std::size_t capacity_pow2) {
  const std::size_t cap = round_pow2(capacity_pow2);
  buf_.assign(cap, Event{});
  mask_ = cap - 1;
  head_.store(0, std::memory_order_release);
}

void bind_worker(int w) {
  if (w < 0) return;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const std::size_t cap = reg.resolve_capacity();
  while (reg.rings.size() <= static_cast<std::size_t>(w)) {
    reg.rings.push_back(std::make_unique<Ring>(cap));
  }
  detail::t_ring = reg.rings[static_cast<std::size_t>(w)].get();
}

void emit(const Event& e) {
  Ring* r = detail::t_ring;
  if (r != nullptr) {
    r->push(e);
  } else {
    registry().unbound.fetch_add(1, std::memory_order_relaxed);
  }
}

void region(std::uint64_t serial, std::uint64_t t0_ns, std::uint64_t t1_ns,
            int vps) {
  Event e;
  e.kind = EventKind::Region;
  e.t0_ns = t0_ns;
  e.t1_ns = t1_ns;
  e.serial = static_cast<std::uint32_t>(serial);
  e.arg = static_cast<std::uint64_t>(vps);
  emit(e);
}

void collective(std::uint8_t pattern, std::uint64_t bytes, double seconds,
                double predicted_seconds, int hops, std::uint64_t serial) {
  Event e;
  e.kind = EventKind::Collective;
  e.t1_ns = now_ns();
  // Reconstruct the span from the primitive's own wall-time measurement so
  // recording stays a single clock read (untimed events become instants).
  const double span_ns = seconds > 0.0 ? seconds * 1e9 : 0.0;
  const auto span = static_cast<std::uint64_t>(span_ns);
  e.t0_ns = span < e.t1_ns ? e.t1_ns - span : 0;
  e.arg = bytes;
  e.aux = predicted_seconds;
  e.serial = static_cast<std::uint32_t>(serial);
  e.x = static_cast<std::uint16_t>(hops < 0 ? 0 : hops);
  e.pattern = pattern;
  emit(e);
}

void transport_span(bool post, int src, int dst, std::uint64_t bytes,
                    std::uint64_t t0_ns, std::uint64_t t1_ns,
                    std::uint64_t serial) {
  Event e;
  e.kind = post ? EventKind::Post : EventKind::Fetch;
  e.t0_ns = t0_ns;
  e.t1_ns = t1_ns;
  e.arg = bytes;
  e.serial = static_cast<std::uint32_t>(serial);
  e.x = static_cast<std::uint16_t>(src < 0 ? 0 : src);
  e.y = static_cast<std::uint16_t>(dst < 0 ? 0 : dst);
  emit(e);
}

void overlap_span(std::uint8_t pattern, std::uint64_t bytes,
                  std::uint64_t t0_ns, std::uint64_t t1_ns) {
  Event e;
  e.kind = EventKind::Overlap;
  e.t0_ns = t0_ns;
  e.t1_ns = t1_ns >= t0_ns ? t1_ns : t0_ns;
  e.arg = bytes;
  e.pattern = pattern;
  emit(e);
}

void pool_mark(bool acquire, std::uint64_t capacity_bytes, bool reused) {
  Event e;
  e.kind = acquire ? EventKind::PoolAcquire : EventKind::PoolRelease;
  e.t0_ns = e.t1_ns = now_ns();
  e.arg = capacity_bytes;
  e.x = reused ? 1 : 0;
  emit(e);
}

std::size_t Snapshot::event_count() const {
  std::size_t n = 0;
  for (const WorkerTrace& w : workers) n += w.events.size();
  return n;
}

std::uint64_t Snapshot::dropped_count() const {
  std::uint64_t n = 0;
  for (const WorkerTrace& w : workers) n += w.dropped;
  return n;
}

Snapshot collect() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  Snapshot snap;
  snap.unbound_events = reg.unbound.load(std::memory_order_relaxed);
  snap.workers.reserve(reg.rings.size());
  for (std::size_t w = 0; w < reg.rings.size(); ++w) {
    WorkerTrace wt;
    wt.worker = static_cast<int>(w);
    const Ring& ring = *reg.rings[w];
    const std::uint64_t pushed = ring.pushed();
    wt.dropped = pushed > ring.capacity() ? pushed - ring.capacity() : 0;
    wt.events = ring.snapshot();
    snap.workers.push_back(std::move(wt));
  }
  return snap;
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& ring : reg.rings) ring->clear();
  reg.unbound.store(0, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.capacity = round_pow2(events);
  for (auto& ring : reg.rings) ring->reset_capacity(reg.capacity);
  reg.unbound.store(0, std::memory_order_relaxed);
}

}  // namespace dpf::trace
