#pragma once

/// \file transport.hpp
/// The interconnect transport of dpf::net: in-process per-pair mailboxes.
///
/// A Transport connects the machine's virtual processors through per-pair
/// mailboxes. The message discipline mirrors a phase-based message-passing
/// machine built on the SPMD engine:
///
///   * post(src, dst, ...) is called by VP `src` inside one SPMD region;
///   * fetch(dst, src, ...) is called by VP `dst` in a *later* region.
///
/// Region boundaries are the machine's only global barriers, so a message
/// posted in region k is guaranteed visible to its receiver in region k+1
/// (the generation-counter handshake of the dispatch protocol provides the
/// happens-before edge). Posting and fetching the same message inside one
/// region is a protocol violation; try_fetch() asserts against it using
/// Machine::region_serial().
///
/// One mailbox per ordered VP pair (dst * P + src). Within any single SPMD
/// region a mailbox has at most one writer (VP src, posting) or one reader
/// (VP dst, fetching) — never both, because the phase discipline forbids
/// fetching a message in its posting region. Mailbox access is therefore
/// lock-free: the happens-before edge between the posting and fetching
/// regions is the machine's region barrier. The same edge covers the
/// traffic counters, which live in each mailbox and are written only by its
/// poster; stats() and pending() sum them on the control thread between
/// regions.
///
/// Steady state allocates nothing: a fetched message's payload buffer goes
/// back to its mailbox, and the mailbox's next post reuses it.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpf::net {

/// Aggregate traffic counters of a transport since the last reset().
struct TransportStats {
  std::uint64_t messages = 0;  ///< messages posted
  std::uint64_t bytes = 0;     ///< payload bytes posted
};

class Transport {
 public:
  explicit Transport(int endpoints = 1) { resize(endpoints); }

  /// Number of communication endpoints (one per VP).
  [[nodiscard]] int endpoints() const { return p_; }

  /// Resizes the endpoint grid (drops all pending messages). Called from
  /// the control thread, never from inside an SPMD region.
  void resize(int endpoints);

  /// Posts `bytes` bytes from `data` into the (src -> dst) mailbox under
  /// `tag`. Called by VP `src` inside an SPMD region; the payload is copied.
  void post(int src, int dst, std::uint64_t tag, const void* data,
            std::size_t bytes);

  /// Fetches the message posted under `tag` in the (src -> dst) mailbox
  /// into `data` (capacity `bytes`; must match the posted size). Returns
  /// false if no such message is pending. Called by VP `dst` in a region
  /// after the posting region.
  bool try_fetch(int dst, int src, std::uint64_t tag, void* data,
                 std::size_t bytes);

  /// Payload size in bytes of the pending (src -> dst, tag) message, or -1
  /// if none is pending — the receiver-side size discovery (MPI_Probe).
  [[nodiscard]] std::ptrdiff_t probe(int dst, int src,
                                     std::uint64_t tag) const;

  /// Number of posted-but-unfetched messages (all mailboxes).
  [[nodiscard]] std::uint64_t pending() const;

  /// Drops all pending messages and zeroes the stats.
  void reset();

  /// Traffic counters since the last reset().
  [[nodiscard]] TransportStats stats() const;

 private:
  /// One posted message. `epoch` is the region serial at post time, used to
  /// assert the posting and fetching regions differ.
  struct Slot {
    std::uint64_t tag = 0;
    std::uint64_t epoch = 0;
    std::vector<std::byte> payload;
  };

  /// Mailbox of one ordered (src -> dst) pair. `slots` are pending in post
  /// order, and a fetch takes the first one with its tag, so one tag is
  /// FIFO. `spare` holds fetched payload buffers for the next posts.
  /// Cache-line aligned so neighbouring pairs do not false-share.
  struct alignas(64) Mailbox {
    std::vector<Slot> slots;
    std::vector<std::vector<std::byte>> spare;
    TransportStats posted;
  };

  [[nodiscard]] Mailbox& box(int src, int dst) {
    return boxes_[static_cast<std::size_t>(dst) * static_cast<std::size_t>(p_) +
                  static_cast<std::size_t>(src)];
  }
  [[nodiscard]] const Mailbox& box(int src, int dst) const {
    return boxes_[static_cast<std::size_t>(dst) * static_cast<std::size_t>(p_) +
                  static_cast<std::size_t>(src)];
  }

  int p_ = 0;
  std::vector<Mailbox> boxes_;
};

}  // namespace dpf::net
