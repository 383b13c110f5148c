#include "fault/link.h"

#include <chrono>
#include <thread>

#include "fault/fault.h"

namespace fault {

Link::Link(int nranks)
    : nranks_(nranks),
      next_seq_(new std::atomic<std::uint64_t>[std::size_t(nranks) *
                                               std::size_t(nranks)]()) {}

bool Link::carry(int src, int dst, std::uint64_t* seq, bool* dup) {
  if (rank_dead(src) || rank_dead(dst)) return false;
  *seq = next_seq_[std::size_t(src) * std::size_t(nranks_) + std::size_t(dst)]
             .fetch_add(1, std::memory_order_relaxed);
  for (std::uint32_t attempt = 0;; ++attempt) {
    const Decision d = decide(src, dst);
    if (d.delay_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(d.delay_us));
    }
    if (!d.drop) {
      *dup = d.dup;
      return true;
    }
    // The wire ate this attempt and delivery is synchronous, so the loss
    // surfaces here at once: back off and resend under the same seq.
    retry_backoff(attempt);
    if (rank_dead(src) || rank_dead(dst)) return false;
  }
}

}  // namespace fault
