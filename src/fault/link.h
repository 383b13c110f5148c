// The faulty link for in-memory delivery (DESIGN.md §6). The smpi thread
// wire (World::deliver) hands a message straight to its receiver, so the
// sender learns of an injected drop at once and can simply try again. One
// Link per World carries every message of that World while injection is
// armed:
//
//   * it stamps the message with the next seq of its (src, dst) pair — a
//     gapless counter owned by the Link, never process-global;
//   * it fails fast on a fail-stopped src or dst, sleeps out injected
//     delays and retries injected drops with fault::retry_backoff;
//   * it hands an injected duplicate to the receiver twice.
//
// Each receiver keeps one net::SeqTracker per source and drops a seq it has
// already accepted. Because the counter is gapless, the tracker collapses to
// a floor: its sparse set holds at most the messages of senders racing on
// one pair, never one entry per message.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace fault {

class Link {
 public:
  explicit Link(int nranks);

  // Carries msg from src to dst: deliver(seq, msg) runs once, or twice (on
  // a copy first) when the wire duplicates it. Returns false, delivering
  // nothing, when src or dst is fail-stopped. For use while enabled().
  template <typename Msg, typename Deliver>
  bool send(int src, int dst, Msg&& msg, Deliver&& deliver) {
    std::uint64_t seq = 0;
    bool dup = false;
    if (!carry(src, dst, &seq, &dup)) return false;
    if (dup) deliver(seq, std::decay_t<Msg>(msg));
    deliver(seq, std::forward<Msg>(msg));
    return true;
  }

 private:
  // Assigns the seq and draws decisions until one gets through (true) or an
  // end of the pair is dead (false).
  bool carry(int src, int dst, std::uint64_t* seq, bool* dup);

  const int nranks_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> next_seq_;
};

}  // namespace fault
