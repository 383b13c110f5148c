// uts_hcmpi: distributed Unbalanced Tree Search with the two-level stealing
// of examples/uts_hcmpi.cpp — an intra-rank pool drained by self-respawning
// worker tasks, an ANY_SOURCE steal listener on the communication worker for
// inter-rank steals, and Safra's token-ring termination. Rank 0 starts with
// the root; rank 1 starts empty and lives off steals.
//
// One job solves the tree repeatedly until its time is up; each solve's time
// to solution, barrier to barrier, is a latency sample, and the job's rate is
// the tree's nodes over the median solve. Every solve uses
// its own tag block, so a steal request or reply left in flight when one
// solve terminates can never match in the next. The node count of every
// solve is checked against the sequential traversal, computed before the
// timed region.
#include <algorithm>
#include <mutex>

#include "apps/uts/uts.h"
#include "core/api.h"
#include "core/ddf.h"
#include "support/rng.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr int kChunk = 16;     // nodes per successful inter-rank steal
constexpr int kBatch = 64;     // nodes a worker task explores before respawning
constexpr int kGenMx = 8;      // T1 depth cutoff
// Trees are drawn from the seed until one falls in this size band, so every
// seed gives a similar amount of work per solve.
constexpr std::uint64_t kMinNodes = 190'000;
constexpr std::uint64_t kMaxNodes = 210'000;

struct SafraToken {
  long q = 0;
  std::uint8_t black = 0;
};

struct Tags {
  int steal, reply, token, done;
  explicit Tags(int solve)
      : steal(100 + 4 * solve), reply(steal + 1), token(steal + 2),
        done(steal + 3) {}
};

// Per-rank results of one job, read by the main thread after the join.
struct RankStats {
  std::uint64_t sent = 0;  // smpi messages this rank's code issued
  std::uint64_t steal_requests = 0;
  std::uint64_t steal_hits = 0;
  Samples steal_rtt_us;
  Samples isend_ns;
  double explore_s = 0;  // summed worker-task body time (traced)
  Counts delta;
};

struct RankState {
  hcmpi::Context& ctx;
  const uts::Params& params;
  const Tags tags;
  const bool traced;
  RankStats& stats;

  std::mutex mu;
  std::vector<uts::Node> pool;

  std::atomic<std::uint64_t> explored{0};
  std::atomic<bool> done{false};
  std::atomic<bool> thief_outstanding{false};
  std::atomic<int> active_workers{0};

  // Safra's counters over work-bearing messages only (see the example).
  std::atomic<long> msg_count{0};
  std::atomic<bool> black{false};
  std::atomic<bool> holding_token{false};
  SafraToken held_token{};

  hcmpi::RequestHandle token_req, done_req, thief_reply_req;
  SafraToken token_buf{};
  std::uint8_t done_buf = 0;
  std::vector<uts::Node> reply_buf;
  int steal_msg_out = 0;
  SafraToken token_out{};
  std::uint8_t done_out = 1;
  std::vector<uts::Node> loot_out;
  support::Xoshiro256 rng;

  std::atomic<std::uint64_t> sent{0};
  std::uint64_t steal_t0 = 0;  // thief side, one conversation at a time
  std::uint64_t steal_id = 0;

  RankState(hcmpi::Context& c, const uts::Params& p, int solve, bool tr,
            RankStats& s)
      : ctx(c), params(p), tags(solve), traced(tr), stats(s),
        rng(0xBADD1Eull * std::uint64_t(c.rank() + 1) + std::uint64_t(solve)) {}

  bool idle() {
    std::lock_guard<std::mutex> lk(mu);
    return pool.empty() && !thief_outstanding.load() &&
           active_workers.load() == 0;
  }

  hcmpi::RequestHandle isend(const void* buf, std::size_t bytes, int dest,
                             int tag, std::uint64_t op) {
    const std::uint64_t t0 = traced ? now_ns() : 0;
    hcmpi::RequestHandle r = ctx.isend(buf, bytes, dest, tag);
    if (traced) {
      const std::uint64_t t1 = now_ns();
      stats.isend_ns.add(double(t1 - t0));
      spans::record("hcmpi.isend", ctx.rank(), op, t0, t1);
    }
    sent.fetch_add(1);
    return r;
  }
};

void worker_loop(RankState& st);
void maybe_forward_token(RankState& st);

void serve_steal(RankState& st, int thief) {
  st.loot_out.clear();
  {
    std::lock_guard<std::mutex> lk(st.mu);
    if (int(st.pool.size()) > kChunk) {
      st.loot_out.assign(st.pool.begin(), st.pool.begin() + kChunk);
      st.pool.erase(st.pool.begin(), st.pool.begin() + kChunk);
    }
  }
  // Runs on the communication worker: reply synchronously. Empty = failed.
  st.ctx.user_comm().send(st.loot_out.data(),
                          st.loot_out.size() * sizeof(uts::Node), thief,
                          st.tags.reply);
  st.sent.fetch_add(1);
  if (!st.loot_out.empty()) st.msg_count.fetch_add(1);
}

void install_listener(RankState& st) {
  st.ctx.set_poller([&st](smpi::Comm&) {
    smpi::Comm& user = st.ctx.user_comm();
    bool progress = false;
    smpi::Status probe;
    while (user.iprobe(smpi::kAnySource, st.tags.steal, &probe)) {
      int thief = 0;
      user.recv(&thief, sizeof thief, probe.source, st.tags.steal);
      serve_steal(st, thief);
      progress = true;
    }
    return progress;
  });
}

void try_global_steal(RankState& st) {
  if (st.done.load() || st.ctx.size() < 2) return;
  if (st.thief_outstanding.exchange(true)) return;  // one conversation
  int victim = int(st.rng.next_below(std::uint64_t(st.ctx.size() - 1)));
  if (victim >= st.ctx.rank()) ++victim;
  st.steal_msg_out = st.ctx.rank();
  st.reply_buf.resize(std::size_t(kChunk));
  const std::uint64_t op = (std::uint64_t(st.ctx.rank()) << 40) | st.steal_id++;
  st.steal_t0 = now_ns();
  hcmpi::RequestHandle reply =
      st.ctx.irecv(st.reply_buf.data(), st.reply_buf.size() * sizeof(uts::Node),
                   victim, st.tags.reply);
  st.thief_reply_req = reply;
  st.isend(&st.steal_msg_out, sizeof st.steal_msg_out, victim, st.tags.steal, op);
  st.stats.steal_requests++;
  hc::async_await({reply.get()}, [&st, reply, op] {
    if (reply->get().cancelled) return;
    const std::uint64_t t1 = now_ns();
    st.stats.steal_rtt_us.add(double(t1 - st.steal_t0) / 1e3);
    if (st.traced) spans::record("uts.steal", st.ctx.rank(), op, st.steal_t0, t1);
    std::size_t got = reply->get().count_bytes / sizeof(uts::Node);
    if (got > 0) {
      st.stats.steal_hits++;
      st.black.store(true);  // reactivated by in-flight work
      st.msg_count.fetch_sub(1);
      std::lock_guard<std::mutex> lk(st.mu);
      st.pool.insert(st.pool.end(), st.reply_buf.begin(),
                     st.reply_buf.begin() + long(got));
    }
    st.thief_outstanding.store(false);
    hc::async([&st] { worker_loop(st); });
    maybe_forward_token(st);
  });
}

void worker_loop(RankState& st) {
  if (st.done.load()) return;
  const std::uint64_t t0 = st.traced ? now_ns() : 0;
  st.active_workers.fetch_add(1);
  std::vector<uts::Node> batch;
  {
    std::lock_guard<std::mutex> lk(st.mu);
    std::size_t take = std::min<std::size_t>(st.pool.size(), kBatch);
    batch.assign(st.pool.end() - long(take), st.pool.end());
    st.pool.resize(st.pool.size() - take);
  }
  if (!batch.empty()) {
    std::uint64_t n = 0;
    std::vector<uts::Node> spawned;
    while (!batch.empty()) {
      uts::Node node = batch.back();
      batch.pop_back();
      ++n;
      int k = uts::num_children(node, st.params);
      for (int i = 0; i < k; ++i) {
        spawned.push_back(uts::make_child(node, std::uint32_t(i)));
      }
    }
    st.explored.fetch_add(n);
    if (!spawned.empty()) {
      std::lock_guard<std::mutex> lk(st.mu);
      st.pool.insert(st.pool.end(), spawned.begin(), spawned.end());
    }
    st.active_workers.fetch_sub(1);
    if (st.traced) {
      const std::uint64_t t1 = now_ns();
      st.stats.explore_s += double(t1 - t0) / 1e9;
      spans::record("uts.explore", st.ctx.rank(), n, t0, t1);
    }
    hc::async([&st] { worker_loop(st); });  // yield to listener DDTs
  } else {
    st.active_workers.fetch_sub(1);
    try_global_steal(st);
    maybe_forward_token(st);
  }
}

void send_token(RankState& st, SafraToken tok) {
  st.token_out = tok;
  int next = (st.ctx.rank() + 1) % st.ctx.size();
  st.isend(&st.token_out, sizeof st.token_out, next, st.tags.token, 0);
}

void forward_token(RankState& st, SafraToken tok) {
  tok.q += st.msg_count.load();
  if (st.black.exchange(false)) tok.black = 1;
  send_token(st, tok);
}

void announce_done(RankState& st) {
  st.done.store(true);
  if (st.ctx.rank() + 1 < st.ctx.size()) {
    st.isend(&st.done_out, sizeof st.done_out, st.ctx.rank() + 1, st.tags.done, 0);
  }
  if (st.token_req) st.ctx.cancel(st.token_req);
  if (st.done_req) st.ctx.cancel(st.done_req);
  if (st.thief_reply_req) st.ctx.cancel(st.thief_reply_req);
}

void maybe_forward_token(RankState& st) {
  if (st.done.load() || !st.holding_token.load()) return;
  if (!st.idle()) return;
  if (!st.holding_token.exchange(false)) return;
  SafraToken tok = st.held_token;
  if (st.ctx.rank() == 0) {
    bool white = tok.black == 0 && !st.black.load();
    if (white && tok.q + st.msg_count.load() == 0) {
      announce_done(st);
      return;
    }
    st.black.store(false);
    send_token(st, SafraToken{});
  } else {
    forward_token(st, tok);
  }
}

void arm_token_handler(RankState& st) {
  if (st.done.load()) return;
  st.token_req = st.ctx.irecv(&st.token_buf, sizeof(SafraToken),
                              (st.ctx.rank() - 1 + st.ctx.size()) % st.ctx.size(),
                              st.tags.token);
  hcmpi::RequestHandle req = st.token_req;
  hc::async_await({req.get()}, [&st, req] {
    if (req->get().cancelled || st.done.load()) return;
    st.held_token = st.token_buf;
    st.holding_token.store(true);
    arm_token_handler(st);
    maybe_forward_token(st);
    if (!st.done.load() && st.holding_token.load()) {
      hc::async([&st] { maybe_forward_token(st); });
    }
  });
}

void arm_done_handler(RankState& st) {
  if (st.ctx.rank() == 0) return;
  st.done_req = st.ctx.irecv(&st.done_buf, sizeof st.done_buf,
                             st.ctx.rank() - 1, st.tags.done);
  hcmpi::RequestHandle req = st.done_req;
  hc::async_await({req.get()}, [&st, req] {
    if (req->get().cancelled) return;
    announce_done(st);
  });
}

class UtsWorkload final : public Workload {
 public:
  explicit UtsWorkload(std::uint64_t seed) {
    params_ = uts::t1();
    params_.gen_mx = kGenMx;
    // Deterministic search for a tree of the target size.
    for (std::uint64_t k = 0;; ++k) {
      params_.root_seed =
          std::uint32_t(support::SplitMix64::mix(seed * 1000003ull + k) & 0x7fffffff);
      std::uint64_t nodes = 0;
      try {
        nodes = uts::count_sequential(params_, kMaxNodes + 1).nodes;
      } catch (const std::runtime_error&) {
        continue;  // larger than the band: the traversal stopped at the limit
      }
      if (nodes >= kMinNodes) {
        expected_ = nodes;
        break;
      }
    }
  }

  std::map<std::string, std::string> inputs() const override {
    return {{"tree", params_.name()},
            {"root_seed", std::to_string(params_.root_seed)},
            {"tree_nodes", std::to_string(expected_)},
            {"steal_chunk", std::to_string(kChunk)}};
  }

  Measure measure(double seconds, bool traced, Tally& tally) override {
    RankStats stats[kRanks];
    double solve_s = 0;
    Samples solve_us, finish_wait_ms;
    std::uint64_t solves = 0;
    const std::uint64_t budget = std::uint64_t(seconds * 1e9);

    run_job(false, [&](hcmpi::Context& ctx) {
      const int me = ctx.rank();
      RankStats& rs = stats[me];
      const Counts before = rank_counters(ctx);
      const std::uint64_t start = now_ns();
      for (int solve = 0;; ++solve) {
        RankState st(ctx, params_, solve, traced, rs);
        if (me == 0) st.pool.push_back(uts::make_root(params_));
        install_listener(st);
        ctx.barrier();
        const std::uint64_t t0 = now_ns();
        std::uint64_t body_end = 0, fin_end = 0;
        ctx.run([&] {
          ScopedSpan span("hc.finish", me, std::uint64_t(solve));
          hc::finish([&] {
            arm_token_handler(st);
            arm_done_handler(st);
            hc::async([&st] { worker_loop(st); });
            if (me == 0) {
              st.held_token = SafraToken{0, 1};
              st.holding_token.store(true);
              hc::async([&st] { maybe_forward_token(st); });
            }
            body_end = now_ns();
          });
          fin_end = now_ns();
        });
        ctx.barrier();
        const std::uint64_t t1 = now_ns();
        ctx.clear_poller();
        rs.sent += st.sent.load();
        // Verification and the stop decision ride one allreduce, outside
        // the timed region.
        long in[2] = {long(st.explored.load()),
                      me == 0 && now_ns() - start >= budget ? 1 : 0};
        long res[2] = {0, 0};
        ctx.allreduce(in, res, 2, hcmpi::Datatype::kLong, hcmpi::Op::kSum);
        if (me == 0) {
          solve_s += double(t1 - t0) / 1e9;
          solve_us.add(double(t1 - t0) / 1e3);
          finish_wait_ms.add(double(fin_end - body_end) / 1e6);
          ++solves;
          tally.expect_eq(double(res[0]), double(expected_),
                          "uts: node count vs the sequential count");
        }
        if (res[1] != 0) break;
      }
      ctx.barrier();
      rs.delta = minus(rank_counters(ctx), before);
    });

    Measure m;
    m.items_per_s = double(expected_) / (solve_us.percentile(50) / 1e6);
    m.latency_us = solve_us;
    m.expected_msgs = double(stats[0].sent + stats[1].sent);
    if (!traced) return m;

    Metrics& L = m.layer;
    Counts d = stats[0].delta;
    for (const auto& [k, v] : stats[1].delta) d[k] += v;
    core_layer(d, L);
    L["core.busy_ratio"] = {(stats[0].explore_s + stats[1].explore_s) /
                                (solve_s * kRanks),
                            "ratio"};
    L["core.finish_wait_ms"] = {finish_wait_ms.percentile(50), "ms"};
    Samples isend;
    for (auto& s : stats) isend.merge(s.isend_ns);
    L["hcmpi.isend_call_ns"] = {isend.percentile(50), "ns"};
    hcmpi_layer(d, double(stats[0].sent + stats[1].sent), L);
    const double req = double(stats[0].steal_requests + stats[1].steal_requests);
    const double hits = double(stats[0].steal_hits + stats[1].steal_hits);
    L["apps.uts_steal_requests"] = {req, "count"};
    L["apps.uts_steal_success_ratio"] = {req > 0 ? hits / req : 0, "ratio"};
    L["apps.uts_nodes"] = {double(solves * expected_), "count"};
    Samples rtt;
    for (auto& s : stats) rtt.merge(s.steal_rtt_us);
    L["apps.uts_steal_rtt_p50_us"] = {rtt.percentile(50), "us"};
    return m;
  }

 private:
  uts::Params params_;
  std::uint64_t expected_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_uts(std::uint64_t seed) {
  return std::make_unique<UtsWorkload>(seed);
}

}  // namespace pb
