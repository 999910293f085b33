#pragma once

/// \file local_transport.hpp
/// In-process shared-memory Transport backend.
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

#include "net/transport.hpp"

namespace dpf::net {

class LocalTransport final : public Transport {
 public:
  explicit LocalTransport(int endpoints = 1) { resize(endpoints); }

  [[nodiscard]] int endpoints() const override { return p_; }

  void resize(int endpoints) override;

  void post(int src, int dst, std::uint64_t tag, const void* data,
            std::size_t bytes) override;

  bool try_fetch(int dst, int src, std::uint64_t tag, void* data,
                 std::size_t bytes) override;

  [[nodiscard]] std::ptrdiff_t probe(int dst, int src,
                                     std::uint64_t tag) const override;

  [[nodiscard]] std::uint64_t pending() const override;

  void reset() override;

  [[nodiscard]] const char* name() const override { return "local"; }

  [[nodiscard]] TransportStats stats() const override;

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
