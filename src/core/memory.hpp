#pragma once

/// \file memory.hpp
/// Memory-usage accounting per the paper's conventions (section 1.5,
/// attribute 3): all user-declared data structures count, including the
/// algorithm's auxiliary arrays; compiler-generated temporaries do not.
/// Our analogue: arrays constructed with MemKind::User are tracked; arrays
/// constructed with MemKind::Temporary (scratch inside the comm/la library,
/// the stand-ins for compiler temporaries) are not.

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "core/types.hpp"
#include "trace/trace.hpp"

namespace dpf {

/// Whether an allocation counts toward the benchmark's memory-usage metric.
enum class MemKind : std::uint8_t {
  User,       ///< user-declared data structure — tracked
  Temporary,  ///< library/compiler temporary — not tracked
};

namespace memory {

namespace detail {
struct State {
  std::atomic<std::int64_t> current{0};
  std::atomic<std::int64_t> peak{0};
};
inline State& state() {
  static State s;
  return s;
}
}  // namespace detail

inline void on_alloc(index_t bytes) {
  auto& s = detail::state();
  const std::int64_t now =
      s.current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t prev = s.peak.load(std::memory_order_relaxed);
  while (now > prev &&
         !s.peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
  }
}

inline void on_free(index_t bytes) {
  detail::state().current.fetch_sub(bytes, std::memory_order_relaxed);
}

/// Bytes of live user-declared arrays right now.
[[nodiscard]] inline std::int64_t current_bytes() {
  return detail::state().current.load(std::memory_order_relaxed);
}

/// High-water mark since the last reset_peak().
[[nodiscard]] inline std::int64_t peak_bytes() {
  return detail::state().peak.load(std::memory_order_relaxed);
}

/// Resets the peak to the current live total (call at benchmark start).
inline void reset_peak() {
  auto& s = detail::state();
  s.peak.store(s.current.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

/// RAII scope reporting the peak of (live user bytes allocated within the
/// scope's lifetime) relative to the live total at entry.
class Scope {
 public:
  Scope() : base_(current_bytes()) { reset_peak(); }
  /// Peak bytes attributable to the scope.
  [[nodiscard]] std::int64_t peak() const { return peak_bytes() - base_; }

 private:
  std::int64_t base_;
};

}  // namespace memory

/// Recycles the backing stores of MemKind::Temporary arrays by power-of-two
/// size class, so `cshift(...)`-style expression temporaries in the app
/// kernels stop hitting the allocator (and re-faulting fresh pages) every
/// iteration. Blocks are raw byte buffers; callers zero-fill as needed.
class TemporaryPool {
 public:
  static TemporaryPool& instance() {
    static TemporaryPool p;
    return p;
  }

  struct Stats {
    std::uint64_t hits = 0;      ///< acquisitions served from the cache
    std::uint64_t misses = 0;    ///< acquisitions that hit operator new
    std::uint64_t recycled = 0;  ///< releases cached for reuse
    std::uint64_t dropped = 0;   ///< releases freed (cache full)
    std::int64_t cached_bytes = 0;
  };

  /// Returns a block of at least `bytes`; `capacity` receives the actual
  /// block size (pass it back to release()). Contents are unspecified.
  ///
  /// Power-of-two classes make every block start page-aligned once malloc
  /// switches to mmap, and grid codes walk several same-shaped temporaries
  /// in lockstep at identical intra-block offsets — a recipe for cache-set
  /// conflict thrash. Each block is therefore *colored*: offset from its
  /// raw allocation by a rotating multiple of 64 bytes so concurrent
  /// temporaries land in different cache sets. The raw pointer is stashed
  /// in a header word just below the colored pointer.
  [[nodiscard]] void* acquire(std::size_t bytes, std::size_t& capacity) {
    capacity = class_capacity(bytes);
    const std::size_t cls = class_index(capacity);
    std::size_t color;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& list = free_[cls];
      if (!list.empty()) {
        void* p = list.back();
        list.pop_back();
        stats_.cached_bytes -= static_cast<std::int64_t>(capacity);
        ++stats_.hits;
        if (trace::enabled(trace::Mode::Full)) {
          trace::pool_mark(true, capacity, true);
        }
        return p;
      }
      ++stats_.misses;
      color = (color_seq_++ % kColors) * kColorStride;
    }
    char* raw = static_cast<char*>(
        ::operator new(capacity + kHeader + kColors * kColorStride));
    char* p = raw + kHeader + color;
    reinterpret_cast<void**>(p)[-1] = raw;
    if (trace::enabled(trace::Mode::Full)) {
      trace::pool_mark(true, capacity, false);
    }
    return p;
  }

  /// Returns a block obtained from acquire() with its reported capacity.
  void release(void* p, std::size_t capacity) {
    if (p == nullptr) return;
    const std::size_t cls = class_index(capacity);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& list = free_[cls];
      if (list.size() < kMaxBlocksPerClass &&
          stats_.cached_bytes + static_cast<std::int64_t>(capacity) <=
              kMaxCachedBytes) {
        list.push_back(p);
        stats_.cached_bytes += static_cast<std::int64_t>(capacity);
        ++stats_.recycled;
        if (trace::enabled(trace::Mode::Full)) {
          trace::pool_mark(false, capacity, true);
        }
        return;
      }
      ++stats_.dropped;
    }
    ::operator delete(raw_of(p));
    if (trace::enabled(trace::Mode::Full)) {
      trace::pool_mark(false, capacity, false);
    }
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Frees every cached block (keeps counters).
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& list : free_) {
      for (void* p : list) ::operator delete(raw_of(p));
      list.clear();
    }
    stats_.cached_bytes = 0;
  }

 private:
  TemporaryPool() = default;
  ~TemporaryPool() { clear(); }

  static constexpr std::size_t kMinBytes = 256;
  // Quarter-power-of-two size classes (2^k, 1.25*2^k, 1.5*2^k, 1.75*2^k):
  // worst-case 25% overshoot instead of the 100% of pure powers of two,
  // which keeps mid-size temporaries below malloc's mmap threshold and off
  // page-aligned addresses.
  static constexpr std::size_t kClasses = 4 * 42;
  static constexpr std::size_t kMaxBlocksPerClass = 16;
  static constexpr std::int64_t kMaxCachedBytes = std::int64_t{1} << 28;
  static constexpr std::size_t kHeader = 64;       ///< room for the raw ptr
  static constexpr std::size_t kColors = 32;       ///< distinct set offsets
  static constexpr std::size_t kColorStride = 64;  ///< one cache line

  /// Raw allocation backing a colored block pointer.
  [[nodiscard]] static void* raw_of(void* p) {
    return reinterpret_cast<void**>(p)[-1];
  }

  [[nodiscard]] static std::size_t class_capacity(std::size_t bytes) {
    bytes = std::max(bytes, kMinBytes);
    const std::size_t quarter = std::bit_floor(bytes) / 4;
    return (bytes + quarter - 1) / quarter * quarter;
  }
  [[nodiscard]] static std::size_t class_index(std::size_t capacity) {
    // capacity = m * 2^(k-2) with m in {4, 5, 6, 7} (m == 4 being 2^k).
    const std::size_t quarter = std::bit_floor(capacity) / 4;
    const std::size_t k = static_cast<std::size_t>(std::countr_zero(
        std::bit_floor(capacity)));
    const std::size_t base = static_cast<std::size_t>(
        std::countr_zero(kMinBytes));
    const std::size_t idx =
        (k - base) * 4 + (capacity / quarter - 4);
    return idx < kClasses ? idx : kClasses - 1;
  }

  mutable std::mutex mu_;
  std::vector<void*> free_[kClasses];
  std::size_t color_seq_ = 0;
  Stats stats_;
};

}  // namespace dpf
