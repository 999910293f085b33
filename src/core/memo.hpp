#pragma once

/// \file memo.hpp
/// The control-thread memo behind the engine's cached routing plans and
/// off-processor byte counts.
///
/// A memo entry is found by its whole 64-bit key: the memo is fully
/// associative, so two live keys never compete for a slot, and a full memo
/// evicts its least recently used entry. Capacities are small (tens of
/// entries), so a lookup is a linear scan of the keys, with no hashing and
/// no allocation after the first fill.
///
/// Why not a direct-mapped table indexed by `key % N`: multiplication
/// modulo 2^64 carries only upward, so the low bits of an FNV-1a fold
/// depend only on the low bits of its inputs. Two plans whose inputs differ
/// only above bit 6 (rp's x+1 and x-1 rotations, 256 and 3840 elements)
/// would share a slot of a 64-entry table and evict each other on every
/// use.

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace dpf {

/// One FNV-1a step over a 64-bit word: the key fold of every memo key.
[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h,
                                              std::uint64_t v) noexcept {
  return (h ^ v) * 1099511628211ull;
}

/// FNV-1a offset basis: the fold of no words.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// What a memo did since it was created.
struct MemoStats {
  std::uint64_t built = 0;    ///< values computed and stored (misses)
  std::uint64_t reused = 0;   ///< lookups served from the memo (hits)
  std::uint64_t evicted = 0;  ///< live entries dropped to make room
};

/// Fully-associative memo of at most `Capacity` values under exact 64-bit
/// keys, evicting the least recently used entry. Not thread-safe: callers
/// keep one per thread (the control thread in practice).
template <typename V, std::size_t Capacity>
class LruMemo {
 public:
  static constexpr std::size_t kCapacity = Capacity;

  /// The value under `key`, computing it with `build()` and storing it on a
  /// miss. The reference stays valid until the next get() on this memo.
  template <typename Build>
  V& get(std::uint64_t key, Build&& build) {
    ++clock_;
    for (std::size_t i = 0; i < size_; ++i) {
      if (entries_[i].key == key) {
        entries_[i].used = clock_;
        ++stats_.reused;
        return entries_[i].value;
      }
    }
    V value = std::forward<Build>(build)();
    std::size_t slot = size_;
    if (size_ < Capacity) {
      ++size_;
    } else {
      slot = 0;
      for (std::size_t i = 1; i < Capacity; ++i) {
        if (entries_[i].used < entries_[slot].used) slot = i;
      }
      ++stats_.evicted;
    }
    ++stats_.built;
    entries_[slot] = Entry{key, clock_, std::move(value)};
    return entries_[slot].value;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const MemoStats& stats() const { return stats_; }

  /// Drops every entry; the counters keep counting.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) entries_[i] = Entry{};
    size_ = 0;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t used = 0;  ///< clock_ at the last get() of this key
    V value{};
  };

  std::array<Entry, Capacity> entries_{};
  std::size_t size_ = 0;
  std::uint64_t clock_ = 0;
  MemoStats stats_;
};

}  // namespace dpf
