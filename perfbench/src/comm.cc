// hcmpi_comm_thread / hcmpi_comm_socket: the paper's communication path
// (task -> communication task -> comm worker -> smpi matching -> wire ->
// request DDF -> awaiting task) driven by three closed-loop phases through
// hcmpi::Context, on the thread wire or the socket wire:
//
//   stream     rank 0 issues a window of kWindow isends from its task, rank 1
//              a window of irecvs; both complete them with waitall, rank 1
//              acks the window (the paper's Fig. 14b message-rate analogue;
//              the rate is that of the median window, so a stall of the
//              host in a few windows does not set it);
//   ping-pong  one message in flight, send/recv, timed per round trip;
//   allreduce  one long per rank (plus the stop flag), timed per call.
//
// The traced job adds a bare smpi ping-pong and allreduce on the same wire,
// issued straight from the rank threads, so the hcmpi layer's own share of
// the latency is a measured difference. smpi.messages_delivered counts
// point-to-point messages only (collectives bypass it), so the expected
// count is exactly the p2p messages the ranks sent.
#include <string>

#include "support/rng.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr int kWindow = 64;
constexpr std::uint64_t kWarmup = 100;  // latency samples skipped per phase
constexpr std::uint64_t kWarmupWindows = 4;  // stream windows not timed
constexpr int kStreamTag = 11;
constexpr int kAckTag = 12;
constexpr int kPingTag = 13;
constexpr int kPongTag = 14;

// Every payload carries its index and a seed-derived pattern, so the
// receiver checks sequence and content of each message.
struct Msg {
  std::uint64_t index = 0;
  std::uint64_t pattern = 0;
  std::uint64_t last = 0;  // the sender's stop decision
  bool operator==(const Msg&) const = default;
};

std::uint64_t pattern(std::uint64_t seed, std::uint64_t salt, std::uint64_t i) {
  return support::SplitMix64::mix(seed * 0x100000001B3ull + salt * 0x9E37ull + i);
}

// A rank's contribution to allreduce call i: small enough that sums never
// overflow.
long contribution(std::uint64_t seed, std::uint64_t i, int rank) {
  return long(pattern(seed, 7 + std::uint64_t(rank), i) >> 24);
}

std::uint64_t ns_of(double s) { return std::uint64_t(s * 1e9); }

struct Slices {
  double stream, ping, allreduce, bare_ping, bare_allreduce;
};

// What the rank bodies leave behind for measure().
struct Out {
  // rank 0
  Samples rtt_us, allreduce_us, bare_rtt_us, bare_allreduce_us;
  Samples window_us;  // one stream window, isends to ack
  std::uint64_t stream_msgs = 0;
  // per rank
  Samples isend_ns[kRanks], waitall_us[kRanks];
  std::uint64_t p2p_sent[kRanks] = {};
  Counts stream_delta[kRanks], body_delta[kRanks];
  double busy_s[kRanks] = {}, wall_s[kRanks] = {};
  support::MetricsRegistry hists[kRanks];  // Context histograms after stream
};

class CommWorkload final : public Workload {
 public:
  CommWorkload(bool socket, std::uint64_t seed) : socket_(socket), seed_(seed) {}

  std::map<std::string, std::string> inputs() const override {
    return {{"transport", socket_ ? "socket" : "thread"},
            {"window", std::to_string(kWindow)},
            {"msg_bytes", std::to_string(sizeof(Msg))},
            {"allreduce_longs", "2"}};
  }

  Measure measure(double seconds, bool traced, Tally& tally) override {
    // Untraced jobs spend their time on the two phases that give the
    // end-to-end figures; their allreduce phase only checks sums.
    Slices sl = traced ? Slices{0.3, 0.25, 0.15, 0.2, 0.1}
                       : Slices{0.4, 0.55, 0.05, 0, 0};
    for (double* p : {&sl.stream, &sl.ping, &sl.allreduce, &sl.bare_ping,
                      &sl.bare_allreduce}) {
      *p *= seconds;
    }
    Out out;
    run_job(false, [&](hcmpi::Context& ctx) { rank_body(ctx, sl, traced, out, tally); });

    Measure m;
    m.items_per_s = kWindow / (out.window_us.percentile(50) / 1e6);
    m.latency_us = out.rtt_us;
    m.expected_msgs = double(out.p2p_sent[0] + out.p2p_sent[1]);
    if (!traced) return m;

    Metrics& L = m.layer;
    Counts s = out.stream_delta[0];
    Counts b = out.body_delta[0];
    for (const auto& [k, v] : out.stream_delta[1]) s[k] += v;
    for (const auto& [k, v] : out.body_delta[1]) b[k] += v;
    core_layer(b, L);
    double wall = out.wall_s[0] + out.wall_s[1];
    L["core.busy_ratio"] = {wall > 0 ? (out.busy_s[0] + out.busy_s[1]) / wall : 0, "ratio"};

    Samples isend, waitall;
    for (int r = 0; r < kRanks; ++r) {
      isend.merge(out.isend_ns[r]);
      waitall.merge(out.waitall_us[r]);
    }
    L["hcmpi.isend_call_ns"] = {isend.percentile(50), "ns"};
    L["hcmpi.waitall_us"] = {waitall.percentile(50), "us"};
    const double rtt = out.rtt_us.percentile(50);
    const double bare_rtt = out.bare_rtt_us.percentile(50);
    const double ar = out.allreduce_us.percentile(50);
    const double bare_ar = out.bare_allreduce_us.percentile(50);
    L["hcmpi.rtt_p50_us"] = {rtt, "us"};
    L["hcmpi.rtt_self_us"] = {rtt - bare_rtt, "us"};
    L["hcmpi.allreduce_p50_us"] = {ar, "us"};
    L["hcmpi.allreduce_self_us"] = {ar - bare_ar, "us"};
    L["smpi.rtt_p50_us"] = {bare_rtt, "us"};
    L["smpi.allreduce_p50_us"] = {bare_ar, "us"};
    hcmpi_layer(s, double(out.stream_msgs), L);
    out.hists[0].merge(out.hists[1]);
    L["hcmpi.inject_to_wire_ns"] = {
        out.hists[0].histogram("hcmpi.inject_to_wire_ns").percentile(50), "ns"};
    L["hcmpi.wire_to_completion_ns"] = {
        out.hists[0].histogram("hcmpi.wire_to_completion_ns").percentile(50), "ns"};
    return m;
  }

 private:
  void rank_body(hcmpi::Context& ctx, const Slices& sl, bool traced, Out& out,
                 Tally& tally) {
    const int me = ctx.rank();
    const std::uint64_t body_start = now_ns();
    const Counts body_before = rank_counters(ctx);

    ctx.run([&] {
      const std::uint64_t t0 = now_ns();
      const Counts before = rank_counters(ctx);
      if (me == 0) stream_send(ctx, ns_of(sl.stream), traced, out, tally);
      else stream_recv(ctx, traced, out, tally);
      out.stream_delta[me] = minus(rank_counters(ctx), before);
      if (traced) ctx.export_metrics(out.hists[me]);
      pingpong(ctx, 2, ns_of(sl.ping), traced, "hcmpi.pingpong", out.rtt_us, out, tally);
      allreduce(ctx, ns_of(sl.allreduce), traced, "hcmpi.allreduce", out.allreduce_us, tally);
      out.busy_s[me] = double(now_ns() - t0) / 1e9;
    });

    if (traced) {
      smpi::Comm bare = ctx.user_comm().dup();
      pingpong(bare, 3, ns_of(sl.bare_ping), true, "smpi.pingpong", out.bare_rtt_us, out, tally);
      allreduce(bare, ns_of(sl.bare_allreduce), true, "smpi.allreduce", out.bare_allreduce_us,
                tally);
    }
    ctx.barrier();
    out.body_delta[me] = minus(rank_counters(ctx), body_before);
    out.wall_s[me] = double(now_ns() - body_start) / 1e9;
  }

  void stream_send(hcmpi::Context& ctx, std::uint64_t slice_ns, bool traced,
                   Out& out, Tally& tally) {
    std::vector<Msg> msgs(kWindow);
    std::vector<hcmpi::RequestHandle> reqs(kWindow);
    std::uint64_t ack = 0;
    Checks checks;
    const std::uint64_t start = now_ns();
    std::uint64_t w = 0;
    for (std::uint64_t t0 = start;; ++w) {
      const std::uint64_t t1 = now_ns();
      if (w > kWarmupWindows) out.window_us.add(double(t1 - t0) / 1e3);
      t0 = t1;
      const bool last = t1 - start >= slice_ns && w > 2 * kWarmupWindows;
      for (int i = 0; i < kWindow; ++i) {
        const std::uint64_t idx = w * kWindow + std::uint64_t(i);
        msgs[std::size_t(i)] = Msg{idx, pattern(seed_, 1, idx), last};
      }
      for (int i = 0; i < kWindow; ++i) {
        const std::uint64_t t0 = traced ? now_ns() : 0;
        reqs[std::size_t(i)] =
            ctx.isend(&msgs[std::size_t(i)], sizeof(Msg), 1, kStreamTag);
        if (traced) {
          const std::uint64_t t1 = now_ns();
          out.isend_ns[0].add(double(t1 - t0));
          spans::record("hcmpi.isend", 0, w, t0, t1);
        }
      }
      waitall(ctx, reqs, w, traced, out);
      for (const auto& r : reqs) {
        checks.check(r->get().error == smpi::ErrorCode::kOk, "isend error");
      }
      out.p2p_sent[0] += kWindow;
      hcmpi::Status st;
      ctx.recv(&ack, sizeof ack, 1, kAckTag, &st);
      checks.check(st.error == smpi::ErrorCode::kOk && ack == w, "bad window ack");
      if (last) break;
    }
    out.stream_msgs = (w + 1) * kWindow;
    tally.add(checks, "stream");
  }

  void stream_recv(hcmpi::Context& ctx, bool traced, Out& out, Tally& tally) {
    std::vector<Msg> msgs(kWindow);
    std::vector<hcmpi::RequestHandle> reqs(kWindow);
    Checks checks;
    for (std::uint64_t w = 0;; ++w) {
      for (int i = 0; i < kWindow; ++i) {
        const std::uint64_t t0 = traced ? now_ns() : 0;
        reqs[std::size_t(i)] =
            ctx.irecv(&msgs[std::size_t(i)], sizeof(Msg), 0, kStreamTag);
        if (traced) {
          const std::uint64_t t1 = now_ns();
          out.isend_ns[1].add(double(t1 - t0));
          spans::record("hcmpi.irecv", 1, w, t0, t1);
        }
      }
      waitall(ctx, reqs, w, traced, out);
      // Ack first: the sender builds its next window while this one is
      // checked.
      ctx.send(&w, sizeof w, 0, kAckTag);
      out.p2p_sent[1] += 1;
      bool last = false;
      for (int i = 0; i < kWindow; ++i) {
        const std::uint64_t idx = w * kWindow + std::uint64_t(i);
        const hcmpi::Status& st = reqs[std::size_t(i)]->get();
        const Msg& m = msgs[std::size_t(i)];
        checks.check(st.error == smpi::ErrorCode::kOk && st.count_bytes == sizeof(Msg) &&
                         m.index == idx && m.pattern == pattern(seed_, 1, idx),
                     "message out of sequence or corrupt");
        last = last || m.last != 0;
      }
      if (last) break;
    }
    tally.add(checks, "stream");
  }

  static void waitall(hcmpi::Context& ctx,
                      const std::vector<hcmpi::RequestHandle>& reqs,
                      std::uint64_t w, bool traced, Out& out) {
    const std::uint64_t t0 = traced ? now_ns() : 0;
    ctx.waitall(reqs);
    if (traced) {
      const std::uint64_t t1 = now_ns();
      out.waitall_us[ctx.rank()].add(double(t1 - t0) / 1e3);
      spans::record("hcmpi.waitall", ctx.rank(), w, t0, t1);
    }
  }

  // One closed-loop ping-pong on `c` (hcmpi::Context or a bare smpi::Comm):
  // rank 0 times each round trip into `rtt_us`, rank 1 checks the sequence.
  template <typename C>
  void pingpong(C& c, std::uint64_t salt, std::uint64_t slice_ns, bool traced,
                const char* span, Samples& rtt_us, Out& out, Tally& tally) {
    const int me = c.rank();
    const std::uint64_t start = now_ns();
    Msg m, back;
    smpi::Status st;
    Checks checks;
    for (std::uint64_t i = 0;; ++i) {
      if (me == 0) {
        m = Msg{i, pattern(seed_, salt, i), now_ns() - start >= slice_ns};
        const std::uint64_t t0 = now_ns();
        c.send(&m, sizeof m, 1, kPingTag);
        recv(c, &back, 1, kPongTag, &st);
        const std::uint64_t t1 = now_ns();
        if (i >= kWarmup) rtt_us.add(double(t1 - t0) / 1e3);
        if (traced) spans::record(span, 0, i, t0, t1);
        checks.check(st.error == smpi::ErrorCode::kOk && back == m, "echo mismatch");
      } else {
        recv(c, &m, 0, kPingTag, &st);
        c.send(&m, sizeof m, 0, kPongTag);
        // Checked after the echo, outside rank 0's round trip.
        checks.check(st.error == smpi::ErrorCode::kOk && m.index == i &&
                         m.pattern == pattern(seed_, salt, i),
                     "ping out of sequence or corrupt");
      }
      out.p2p_sent[me] += 1;
      if (m.last != 0) break;
    }
    tally.add(checks, span);
  }

  // Closed-loop allreduce of one long per rank plus rank 0's stop flag.
  template <typename C>
  void allreduce(C& c, std::uint64_t slice_ns, bool traced, const char* span,
                 Samples& call_us, Tally& tally) {
    const int me = c.rank();
    const std::uint64_t start = now_ns();
    Checks checks;
    for (std::uint64_t i = 0;; ++i) {
      long in[2] = {contribution(seed_, i, me),
                    me == 0 && now_ns() - start >= slice_ns ? 1 : 0};
      long res[2] = {0, 0};
      const std::uint64_t t0 = now_ns();
      c.allreduce(in, res, 2, smpi::Datatype::kLong, smpi::Op::kSum);
      const std::uint64_t t1 = now_ns();
      if (me == 0) {
        if (i >= kWarmup) call_us.add(double(t1 - t0) / 1e3);
        if (traced) spans::record(span, 0, i, t0, t1);
      }
      checks.check(res[0] == contribution(seed_, i, 0) + contribution(seed_, i, 1),
                   "wrong sum");
      if (res[1] != 0) break;
    }
    tally.add(checks, span);
  }

  static void recv(hcmpi::Context& ctx, Msg* m, int source, int tag,
                   smpi::Status* st) {
    ctx.recv(m, sizeof *m, source, tag, st);
  }

  // The bare receive polls with test, as the communication worker does, so
  // the bare round trip pays smpi matching and the wire but no thread
  // wake-up.
  static void recv(smpi::Comm& comm, Msg* m, int source, int tag,
                   smpi::Status* st) {
    smpi::Request req = comm.irecv(m, sizeof *m, source, tag);
    while (!comm.test(req, st)) {
    }
  }

  bool socket_;
  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_comm(bool socket, std::uint64_t seed) {
  return std::make_unique<CommWorkload>(socket, seed);
}

}  // namespace pb
