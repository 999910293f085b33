#include "net/transport.hpp"

#include <cassert>
#include <cstring>
#include <utility>

#include "core/machine.hpp"
#include "trace/trace.hpp"

namespace dpf::net {

void Transport::resize(int endpoints) {
  if (endpoints < 1) endpoints = 1;
  p_ = endpoints;
  boxes_.assign(
      static_cast<std::size_t>(p_) * static_cast<std::size_t>(p_), Mailbox{});
}

void Transport::post(int src, int dst, std::uint64_t tag, const void* data,
                     std::size_t bytes) {
  assert(src >= 0 && src < p_ && dst >= 0 && dst < p_);
  const bool tracing = trace::enabled(trace::Mode::Full);
  const std::uint64_t t0 = tracing ? trace::now_ns() : 0;
  const std::uint64_t epoch = Machine::instance().region_serial();
  Mailbox& mb = box(src, dst);
  Slot& s = mb.slots.emplace_back();
  s.tag = tag;
  s.epoch = epoch;
  if (!mb.spare.empty()) {
    s.payload = std::move(mb.spare.back());
    mb.spare.pop_back();
  }
  s.payload.resize(bytes);
  if (bytes > 0) std::memcpy(s.payload.data(), data, bytes);
  ++mb.posted.messages;
  mb.posted.bytes += bytes;
  if (tracing) {
    trace::transport_span(true, src, dst, bytes, t0, trace::now_ns(), epoch);
  }
}

bool Transport::try_fetch(int dst, int src, std::uint64_t tag, void* data,
                          std::size_t bytes) {
  assert(src >= 0 && src < p_ && dst >= 0 && dst < p_);
  const bool tracing = trace::enabled(trace::Mode::Full);
  const std::uint64_t t0 = tracing ? trace::now_ns() : 0;
  Mailbox& mb = box(src, dst);
  for (std::size_t i = 0; i < mb.slots.size(); ++i) {
    Slot& s = mb.slots[i];
    if (s.tag != tag) continue;
    // Phase discipline: the posting region must have ended before the
    // fetching region started (see transport.hpp).
    assert(s.epoch != Machine::instance().region_serial() ||
           !Machine::instance().inside_region());
    assert(s.payload.size() == bytes);
    if (bytes > 0) std::memcpy(data, s.payload.data(), bytes);
    mb.spare.push_back(std::move(s.payload));
    mb.slots.erase(mb.slots.begin() + static_cast<std::ptrdiff_t>(i));
    if (tracing) {
      trace::transport_span(false, src, dst, bytes, t0, trace::now_ns(),
                            Machine::instance().region_serial());
    }
    return true;
  }
  return false;
}

std::ptrdiff_t Transport::probe(int dst, int src, std::uint64_t tag) const {
  assert(src >= 0 && src < p_ && dst >= 0 && dst < p_);
  const Mailbox& mb = box(src, dst);
  for (const Slot& s : mb.slots) {
    if (s.tag == tag) return static_cast<std::ptrdiff_t>(s.payload.size());
  }
  return -1;
}

std::uint64_t Transport::pending() const {
  std::uint64_t n = 0;
  for (const Mailbox& mb : boxes_) n += mb.slots.size();
  return n;
}

TransportStats Transport::stats() const {
  TransportStats total;
  for (const Mailbox& mb : boxes_) {
    total.messages += mb.posted.messages;
    total.bytes += mb.posted.bytes;
  }
  return total;
}

void Transport::reset() {
  for (Mailbox& mb : boxes_) {
    for (Slot& s : mb.slots) mb.spare.push_back(std::move(s.payload));
    mb.slots.clear();
    mb.posted = {};
  }
}

}  // namespace dpf::net
