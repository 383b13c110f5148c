// Communicator: a rank's view of a process group. Provides the MPI-style
// API surface (Table I of the paper lists the HCMPI mirror of it).
//
// Usage: World::run(nprocs, [](Comm& comm){ ... }) gives each rank thread
// its own Comm bound to the world group.
#pragma once

#include <cstddef>
#include <vector>

#include "smpi/endpoint.h"
#include "smpi/request.h"
#include "smpi/types.h"

namespace smpi {

class World;

class Comm {
 public:
  Comm(World& world, int rank, std::uint32_t context)
      : world_(&world), rank_(rank), context_(context) {}

  // Sub-communicator over a subset of world ranks; `rank` is the position
  // of this process inside `group`.
  Comm(World& world, int rank, std::uint32_t context,
       std::shared_ptr<const std::vector<int>> group)
      : world_(&world), rank_(rank), context_(context),
        group_(std::move(group)) {}

  int rank() const { return rank_; }
  int size() const;
  // Members of this communicator hosted by THIS process — == size() except
  // under hcmpi_launch. Tests counting per-rank side effects in captured
  // state must count against this, not size().
  int local_size() const;
  World& world() const { return *world_; }
  std::uint32_t context() const { return context_; }

  // Duplicates the communicator into a fresh context: messages on the dup
  // can never match messages on the parent. Collective: all ranks must call
  // it in the same order.
  Comm dup();

  // MPI_Comm_split: ranks with the same color land in one sub-communicator,
  // ordered by (key, old rank). Collective over this communicator. A
  // negative color (MPI_UNDEFINED) yields a null communicator (is_null()).
  Comm split(int color, int key);

  bool is_null() const { return rank_ < 0; }

  // --- progress on the socket wire (no-ops on the thread wire) ---
  // drive(true) makes the calling thread a driver of this rank's fabric
  // (net::Fabric::drive): it then reads and sends that fabric's frames
  // itself in progress(), which it must call once per loop iteration.
  // Blocking waits hand reading back for their duration. drive(false)
  // flushes and hands reading back to the fabric's IO thread for good.
  void drive(bool on);
  void progress();

  // MPI_Sendrecv: simultaneous send and receive (deadlock-free even in
  // rendezvous implementations; trivially so in this eager substrate).
  void sendrecv(const void* sendbuf, std::size_t sendbytes, int dest,
                int sendtag, void* recvbuf, std::size_t recvcap, int source,
                int recvtag, Status* st = nullptr);

  // --- point-to-point ---
  Request isend(const void* buf, std::size_t bytes, int dest, int tag);
  Request irecv(void* buf, std::size_t cap, int source, int tag);
  void send(const void* buf, std::size_t bytes, int dest, int tag);
  void recv(void* buf, std::size_t cap, int source, int tag,
            Status* st = nullptr);

  bool test(const Request& req, Status* st = nullptr);
  // testall: true iff all done; statuses filled for done entries.
  bool testall(const std::vector<Request>& reqs);
  // testany: index of a completed request or -1.
  int testany(const std::vector<Request>& reqs, Status* st = nullptr);
  void wait(const Request& req, Status* st = nullptr);
  void waitall(const std::vector<Request>& reqs);
  int waitany(const std::vector<Request>& reqs, Status* st = nullptr);
  // Cancels a pending receive; sends complete eagerly and cannot be
  // cancelled. Returns true if the request was cancelled.
  bool cancel(const Request& req);

  bool iprobe(int source, int tag, Status* st = nullptr);
  void probe(int source, int tag, Status* st = nullptr);

  // --- collectives (blocking; every rank of the group must participate) ---
  void barrier();
  void bcast(void* buf, std::size_t bytes, int root);
  void reduce(const void* in, void* out, std::size_t count, Datatype t, Op op,
              int root);
  void allreduce(const void* in, void* out, std::size_t count, Datatype t,
                 Op op);
  void scan(const void* in, void* out, std::size_t count, Datatype t, Op op);
  void scatter(const void* send, std::size_t bytes_per_rank, void* recv,
               int root);
  void gather(const void* send, std::size_t bytes_per_rank, void* recv,
              int root);
  void allgather(const void* send, std::size_t bytes_per_rank, void* recv);
  void alltoall(const void* send, std::size_t bytes_per_rank, void* recv);

 private:
  Endpoint& endpoint(int rank) const;
  // Translates a rank local to this communicator into a world rank.
  int world_rank(int local) const {
    return group_ ? (*group_)[std::size_t(local)] : local;
  }
  std::uint32_t coll_context() const { return context_ | kCollectiveContextBit; }

  // Delivery through the (optionally faulty) wire, World::deliver: with
  // injection off a local delivery is exactly endpoint(dest).deliver(); with
  // injection on it crosses the World's fault::Link, which retries dropped
  // attempts under one link seq and reports a fail-stopped peer as kRankDead
  // instead of delivering into the void.
  ErrorCode wire_deliver(int dest, Envelope&& env);

  // p2p helpers used by the collective algorithms (private context). Both
  // report recoverable conditions as coded errors rather than throwing:
  // csend → kRankDead when either end is fail-stopped, crecv → the received
  // status error (kTruncate on a short buffer).
  ErrorCode csend(const void* buf, std::size_t bytes, int dest, int tag);
  ErrorCode crecv(void* buf, std::size_t cap, int source, int tag);

  World* world_;
  int rank_;
  std::uint32_t context_;
  std::shared_ptr<const std::vector<int>> group_;  // null = whole world
};

}  // namespace smpi
