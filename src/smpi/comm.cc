#include "smpi/comm.h"

#include <algorithm>

#include "net/fabric.h"
#include "smpi/world.h"

namespace smpi {

int Comm::size() const {
  return group_ ? int(group_->size()) : world_->size();
}

int Comm::local_size() const {
  if (!group_) return world_->local_size();
  int n = 0;
  for (int r : *group_) {
    if (world_->is_local(r)) ++n;
  }
  return n;
}

Endpoint& Comm::endpoint(int rank) const {
  return world_->endpoint(world_rank(rank));
}

void Comm::drive(bool on) {
  if (net::Fabric* f = world_->net_fabric(world_rank(rank_))) f->drive(on);
}

void Comm::progress() {
  if (net::Fabric* f = world_->net_fabric(world_rank(rank_))) f->progress();
}

Comm Comm::dup() {
  // All ranks must call dup in the same collective order; local rank 0
  // allocates the context id and broadcasts it so every member agrees.
  std::uint32_t ctx = 0;
  if (rank_ == 0) ctx = world_->next_context();
  bcast(&ctx, sizeof ctx, 0);
  return Comm(*world_, rank_, ctx, group_);
}

Comm Comm::split(int color, int key) {
  // Gather everyone's (color, key); derive the subgroups deterministically
  // on every rank (same data, same order).
  struct Entry {
    int color, key, world;
  };
  const int p = size();
  Entry mine{color, key, world_rank(rank_)};
  std::vector<Entry> all(std::size_t(p), Entry{});
  allgather(&mine, sizeof mine, all.data());

  // Dense index of each distinct non-negative color, in sorted order, so
  // that all members compute identical context offsets.
  std::vector<int> colors;
  for (const Entry& e : all) {
    if (e.color >= 0) colors.push_back(e.color);
  }
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

  // Local rank 0 reserves one fresh context per color and shares the base.
  std::uint32_t base = 0;
  if (rank_ == 0 && !colors.empty()) {
    base = world_->next_context_block(std::uint32_t(colors.size()));
  }
  bcast(&base, sizeof base, 0);

  if (color < 0) return Comm(*world_, -1, 0, nullptr);  // null communicator

  auto members = std::make_shared<std::vector<int>>();
  std::vector<std::pair<int, int>> order;  // (key, world rank)
  for (const Entry& e : all) {
    if (e.color == color) order.emplace_back(e.key, e.world);
  }
  std::sort(order.begin(), order.end());
  int my_local = -1;
  for (const auto& [k, w] : order) {
    if (w == mine.world) my_local = int(members->size());
    members->push_back(w);
  }
  std::size_t color_idx =
      std::size_t(std::lower_bound(colors.begin(), colors.end(), color) -
                  colors.begin());
  return Comm(*world_, my_local, base + std::uint32_t(color_idx),
              std::move(members));
}

void Comm::sendrecv(const void* sendbuf, std::size_t sendbytes, int dest,
                    int sendtag, void* recvbuf, std::size_t recvcap,
                    int source, int recvtag, Status* st) {
  Request r = irecv(recvbuf, recvcap, source, recvtag);
  send(sendbuf, sendbytes, dest, sendtag);
  wait(r, st);
}

}  // namespace smpi
