// World: the process group. Owns one Endpoint per rank and launches rank
// threads. Replaces mpirun + MPI_Init for this in-process substrate.
//
// With --transport=socket (or HCMPI_TRANSPORT=socket) the World additionally
// owns this process's part of the socket mesh (net::Fabric, DESIGN.md §9).
// One rank-block map covers every layout: the mesh has P procs, proc p
// hosts world ranks [p*rpp, (p+1)*rpp) with rpp = ceil(size / P), and this
// process runs the fabrics of the procs it hosts — its own proc under
// hcmpi_launch, all of them (P = size, rpp = 1) in loopback (net/boot.h).
// Delivery within a proc stays the direct shared-memory endpoint call;
// everything else is framed onto the wire.
//
// World::run only spawns threads for the locally hosted ranks, and teardown
// ends with a goodbye exchange that propagates a remote rank failure as a
// std::runtime_error on every surviving process.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fault/link.h"
#include "net/frame.h"
#include "smpi/endpoint.h"
#include "smpi/types.h"

namespace net {
class Fabric;
}

namespace smpi {

class Comm;

// The kSmpi frame payload: a 24-byte subheader (dst world rank, source,
// tag: i32; context: u32; injection timestamp: u64), then the message.
inline constexpr std::size_t kSmpiSubheaderBytes = 24;

// Appends the kSmpi payload of `env` for world rank `dst` to `out`.
void encode_smpi(net::Bytes& out, int dst, const Envelope& env,
                 std::uint64_t ts_inject);

// Decodes a kSmpi payload from a peer process. Wire input is untrusted: a
// torn subheader, or a dst or source outside [0, world_size), is rejected
// (false). On success *dst and *env hold the message, payload moved in.
bool decode_smpi(net::Bytes&& payload, int world_size, int* dst,
                 Envelope* env);

class World {
 public:
  explicit World(int nprocs);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return int(endpoints_.size()); }
  Endpoint& endpoint(int rank) { return *endpoints_[std::size_t(rank)]; }

  // The contiguous block of world ranks hosted by this process. Equals
  // [0, size()) except under hcmpi_launch, where each process runs its own
  // slice. Collectives in tests must count arrivals against local_size().
  int local_lo() const;
  int local_hi() const;
  int local_size() const { return local_hi() - local_lo(); }
  bool is_local(int rank) const {
    return rank >= local_lo() && rank < local_hi();
  }

  // Wire-level delivery from world rank src to world rank dst. Local
  // destinations take the direct endpoint path (over the faulty link when
  // injection is armed); remote destinations are framed
  // onto the socket fabric. Reports kRankDead / kConnRefused for
  // unreachable peers instead of delivering into the void.
  ErrorCode deliver(int src, int dst, Envelope&& env);

  // Allocates a fresh communicator context id (used by Comm::dup()).
  std::uint32_t next_context() {
    return context_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  // Atomically reserves `n` consecutive context ids (Comm::split needs one
  // per color, and a racing dup from another communicator must not land in
  // the middle of the block).
  std::uint32_t next_context_block(std::uint32_t n) {
    return context_counter_.fetch_add(n, std::memory_order_relaxed);
  }

  // Creates the rank's view of COMM_WORLD (context 0).
  Comm comm(int rank);

  // In-process object exchange for collectively created shared state
  // (RMA windows): one rank stashes a shared_ptr under a fresh id, the
  // others fetch it after learning the id via bcast.
  std::uint32_t stash_put(std::shared_ptr<void> obj) {
    std::lock_guard<std::mutex> lk(stash_mu_);
    std::uint32_t id = stash_counter_++;
    stash_[id] = std::move(obj);
    return id;
  }
  std::shared_ptr<void> stash_get(std::uint32_t id) {
    std::lock_guard<std::mutex> lk(stash_mu_);
    auto it = stash_.find(id);
    return it == stash_.end() ? nullptr : it->second;
  }
  void stash_erase(std::uint32_t id) {
    std::lock_guard<std::mutex> lk(stash_mu_);
    stash_.erase(id);
  }

  // --- socket-transport plumbing (no-ops in thread mode) ---------------------

  // Graceful fabric teardown: flush, then exchange goodbyes (ours flagged
  // with `local_error`). Returns true when any peer process reported its
  // ranks failed. Idempotent; the destructor calls it as a backstop.
  bool net_shutdown(bool local_error);

  // The fabric a locally hosted rank sends through; null in thread mode.
  // Fault tests kill it to make that rank's process go dark.
  net::Fabric* net_fabric(int src_rank);

  // Spawns one thread per locally hosted rank running body(comm), joins
  // them, tears down the fabric, and rethrows the first local exception —
  // or a runtime_error when a rank on another process failed. The standard
  // entry point:
  //
  //   smpi::World::run(4, [](smpi::Comm& comm) { ... });
  static void run(int nprocs, const std::function<void(Comm&)>& body);

 private:
  struct Net;

  void net_ingest(net::Frame&& f);

  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<std::uint32_t> context_counter_{1};
  std::mutex stash_mu_;
  std::unordered_map<std::uint32_t, std::shared_ptr<void>> stash_;
  std::uint32_t stash_counter_ = 1;
  // Carries local deliveries while fault injection is armed.
  fault::Link link_;
  // Declared last: destroyed first, so fabric IO threads can still deliver
  // into live endpoints while they wind down.
  std::unique_ptr<Net> net_;
};

}  // namespace smpi
