// hc-net tests: wire framing, receiver-side sequencing, the Fabric's
// connection supervision / reliability machinery over real loopback
// sockets, and the socket-backed World: smpi and DDDF over loopback sockets.
//
// Everything here runs multiple Fabrics inside ONE process (the socket
// loopback configuration) so the full reliability layer — framing, acks,
// RTO retransmission, reconnect, heartbeats, death detection — is exercised
// under TSan without fork/exec. The multi-process path is covered by the CI
// `multiproc` job running the tier-1 suites under hcmpi_launch.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "dddf/space.h"
#include "fault/fault.h"
#include "hcmpi/context.h"
#include "net/boot.h"
#include "net/fabric.h"
#include "net/frame.h"
#include "smpi/comm.h"
#include "smpi/world.h"
#include "support/metrics.h"

namespace {

using net::Frame;
using net::FrameKind;

// Bounded spin for cross-thread counters: a lost delivery must fail the
// test loudly, never hang the binary (CI's chaos/multiproc steps run it
// directly, outside ctest's per-test timeout).
template <typename Pred>
bool spin_until(Pred pred, int ms = 20000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// --- framing ----------------------------------------------------------------

Frame sample_frame() {
  Frame f;
  f.kind = FrameKind::kSmpi;
  f.flags = net::kFlagError;
  f.a = 0x1234;
  f.src = 3;
  f.dst = 7;
  f.seq = 0x0102030405060708ull;
  f.payload = {1, 2, 3, 4, 5};
  return f;
}

TEST(NetFrame, HeaderRoundtrip) {
  net::Bytes wire;
  net::append_frame(wire, sample_frame());
  ASSERT_EQ(wire.size(), net::kHeaderBytes + 5);

  net::FrameReader r;
  r.feed(wire.data(), wire.size());
  Frame out;
  ASSERT_TRUE(r.next(&out));
  EXPECT_EQ(out.kind, FrameKind::kSmpi);
  EXPECT_EQ(out.flags, net::kFlagError);
  EXPECT_EQ(out.a, 0x1234);
  EXPECT_EQ(out.src, 3u);
  EXPECT_EQ(out.dst, 7u);
  EXPECT_EQ(out.seq, 0x0102030405060708ull);
  EXPECT_EQ(out.payload, (net::Bytes{1, 2, 3, 4, 5}));
  EXPECT_FALSE(r.next(&out));
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(NetFrame, SplitFeedReassembles) {
  // Partial reads are the normal case on a real socket: feed one byte at a
  // time and expect both frames to come out whole, in order.
  net::Bytes wire;
  Frame a = sample_frame();
  Frame b = sample_frame();
  b.seq = 9;
  b.payload = {42};
  net::append_frame(wire, a);
  net::append_frame(wire, b);

  net::FrameReader r;
  std::vector<Frame> out;
  for (std::uint8_t byte : wire) {
    r.feed(&byte, 1);
    Frame f;
    while (r.next(&f)) out.push_back(std::move(f));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, a.seq);
  EXPECT_EQ(out[1].seq, 9u);
  EXPECT_EQ(out[1].payload, net::Bytes{42});
}

TEST(NetFrame, BadMagicPoisonsReader) {
  net::Bytes wire;
  net::append_frame(wire, sample_frame());
  wire[0] ^= 0xFF;
  net::FrameReader r;
  r.feed(wire.data(), wire.size());
  Frame f;
  EXPECT_FALSE(r.next(&f));
  EXPECT_TRUE(r.corrupt());
  // A poisoned reader stays poisoned: the connection must be dropped.
  net::Bytes good;
  net::append_frame(good, sample_frame());
  r.feed(good.data(), good.size());
  EXPECT_FALSE(r.next(&f));
}

TEST(NetFrame, OversizeLengthPoisonsReader) {
  net::Bytes wire;
  net::append_frame(wire, sample_frame());
  // Patch the length field (last u32 of the header) to something absurd.
  std::uint32_t huge = net::kMaxFrameBytes + 1;
  std::memcpy(wire.data() + net::kHeaderBytes - 4, &huge, 4);
  net::FrameReader r;
  r.feed(wire.data(), wire.size());
  Frame f;
  EXPECT_FALSE(r.next(&f));
  EXPECT_TRUE(r.corrupt());
}

TEST(NetFrame, SubheaderHelpersRoundtrip) {
  net::Bytes b;
  net::put_u32(b, 0xDEADBEEFu);
  net::put_u64(b, 0x1122334455667788ull);
  net::put_i32(b, -17);
  net::ByteReader rd(b);
  std::uint32_t u = 0;
  std::uint64_t v = 0;
  std::int32_t i = 0;
  ASSERT_TRUE(rd.u32(&u));
  ASSERT_TRUE(rd.u64(&v));
  ASSERT_TRUE(rd.i32(&i));
  EXPECT_EQ(u, 0xDEADBEEFu);
  EXPECT_EQ(v, 0x1122334455667788ull);
  EXPECT_EQ(i, -17);
  EXPECT_EQ(rd.remaining(), 0u);
  EXPECT_FALSE(rd.u32(&u));  // past the end reports a torn subheader
}

// --- receiver-side sequencing ----------------------------------------------

Frame seq_frame(std::uint64_t seq) {
  Frame f;
  f.kind = FrameKind::kSmpi;
  f.seq = seq;
  return f;
}

TEST(NetReorderer, GapBuffersAndReleasesInOrder) {
  net::Reorderer ro;
  std::vector<Frame> rel;
  EXPECT_TRUE(ro.push(seq_frame(0), &rel));
  ASSERT_EQ(rel.size(), 1u);
  rel.clear();

  EXPECT_TRUE(ro.push(seq_frame(2), &rel));  // gap: buffered
  EXPECT_TRUE(ro.push(seq_frame(3), &rel));
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(ro.buffered(), 2u);

  EXPECT_TRUE(ro.push(seq_frame(1), &rel));  // fills the gap
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel[0].seq, 1u);
  EXPECT_EQ(rel[1].seq, 2u);
  EXPECT_EQ(rel[2].seq, 3u);
  EXPECT_EQ(ro.next_seq(), 4u);
}

TEST(NetReorderer, DuplicateBelowHorizonIsDropped) {
  // A retransmit that raced its ack was already released once: the
  // connection is where exactly-once is decided, so it goes no further.
  // push() still accepts it, so the caller acks it again.
  net::Reorderer ro;
  std::vector<Frame> rel;
  EXPECT_TRUE(ro.push(seq_frame(0), &rel));
  EXPECT_TRUE(ro.push(seq_frame(1), &rel));
  rel.clear();
  EXPECT_TRUE(ro.push(seq_frame(0), &rel));
  EXPECT_TRUE(ro.push(seq_frame(1), &rel));
  EXPECT_TRUE(rel.empty());
  EXPECT_EQ(ro.next_seq(), 2u);  // horizon unchanged
}

TEST(NetReorderer, DuplicateOfBufferedDroppedAndCapRejects) {
  net::Reorderer ro(2);
  std::vector<Frame> rel;
  EXPECT_TRUE(ro.push(seq_frame(5), &rel));
  EXPECT_TRUE(ro.push(seq_frame(5), &rel));  // dup of buffered: dropped, acked
  EXPECT_EQ(ro.buffered(), 1u);
  EXPECT_TRUE(ro.push(seq_frame(6), &rel));
  // Buffer full and another gap frame arrives: rejected, must NOT be acked.
  EXPECT_FALSE(ro.push(seq_frame(7), &rel));
  EXPECT_TRUE(rel.empty());
}

TEST(NetSeqTracker, ExactlyOnceUnderReordering) {
  net::SeqTracker t;
  EXPECT_TRUE(t.accept(0));
  EXPECT_TRUE(t.accept(2));  // out of order: sparse set above the floor
  EXPECT_FALSE(t.accept(0));
  EXPECT_FALSE(t.accept(2));
  EXPECT_TRUE(t.accept(1));  // floor advances over the sparse set
  EXPECT_EQ(t.floor(), 3u);
  EXPECT_EQ(t.above(), 0u);
  EXPECT_FALSE(t.accept(1));
}

// --- fabric (socket loopback mesh) ------------------------------------------

// N Fabrics in one process over a private session directory, each with a
// per-proc sink collecting delivered frames. Timers are shortened so death
// detection and teardown fit a unit test. Assertions run over the raw
// delivered stream: the fabric itself must release every connection seq
// exactly once, in order, whatever the wire did (a spurious RTO retransmit
// under CI load, an injected duplicate, a reconnect).
struct Mesh {
  struct Sink {
    std::mutex mu;
    std::vector<Frame> frames;
  };

  std::string session;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<std::unique_ptr<net::Fabric>> fabrics;

  explicit Mesh(int nprocs, std::size_t sendq_cap = 1024,
                std::uint32_t connect_window_ms = 5000, int skip_proc = -1) {
    std::string tmpl = "/tmp/hcmpi-net-test.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    session = mkdtemp(buf.data());
    sinks.resize(std::size_t(nprocs));
    fabrics.resize(std::size_t(nprocs));
    for (int p = 0; p < nprocs; ++p) {
      sinks[std::size_t(p)] = std::make_unique<Sink>();
      if (p != skip_proc) start(p, nprocs, sendq_cap, connect_window_ms);
    }
  }

  void start(int p, int nprocs, std::size_t sendq_cap,
             std::uint32_t connect_window_ms) {
    net::FabricOptions o;
    o.session = session;
    o.proc = p;
    o.nprocs = nprocs;
    o.heartbeat_ms = 10;
    o.death_timeout_ms = 300;
    o.connect_window_ms = connect_window_ms;
    o.rto_ms = 20;
    o.sendq_cap = sendq_cap;
    o.shutdown_timeout_ms = 2000;
    o.rank_base = p;
    o.rank_count = 1;
    Sink* sink = sinks[std::size_t(p)].get();
    fabrics[std::size_t(p)] =
        std::make_unique<net::Fabric>(o, [sink](Frame&& f) {
          std::lock_guard<std::mutex> lk(sink->mu);
          sink->frames.push_back(std::move(f));
        });
  }

  // Loopback goodbyes only complete when every side is shutting down, so
  // teardown must be concurrent (same as World's).
  void shutdown_all() {
    std::vector<std::jthread> js;
    for (auto& f : fabrics) {
      if (f) js.emplace_back([&f] { f->shutdown(); });
    }
    js.clear();  // join
  }

  ~Mesh() {
    shutdown_all();
    fabrics.clear();
    std::string cmd = "rm -rf '" + session + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
  }

  // Proc p's raw delivered stream so far.
  std::vector<Frame> frames(int p) {
    std::lock_guard<std::mutex> lk(sinks[std::size_t(p)]->mu);
    return sinks[std::size_t(p)]->frames;
  }

  bool wait_frames(int p, std::size_t n, int ms = 10000) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (frames(p).size() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
};

Frame data_frame(std::uint32_t tag, std::size_t pad = 0) {
  Frame f;
  f.kind = FrameKind::kSmpi;
  net::put_u32(f.payload, tag);
  f.payload.resize(f.payload.size() + pad);
  return f;
}

std::uint32_t tag_of(const Frame& f) {
  net::ByteReader rd(f.payload);
  std::uint32_t v = 0;
  rd.u32(&v);
  return v;
}

// One sender's raw stream of n frames tagged 0..n-1 arrived exactly once
// and in order: connection seq i carries tag i, nothing repeated or missing.
void expect_exactly_once_in_order(const std::vector<Frame>& got, int n) {
  ASSERT_EQ(got.size(), std::size_t(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(got[std::size_t(i)].seq, std::uint64_t(i));
    EXPECT_EQ(tag_of(got[std::size_t(i)]), std::uint32_t(i));
  }
}

TEST(NetFabric, TwoProcDelivery) {
  Mesh m(2);
  const int kN = 50;
  for (int i = 0; i < kN; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  ASSERT_TRUE(m.wait_frames(1, kN));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // late dups
  std::vector<Frame> got = m.frames(1);
  expect_exactly_once_in_order(got, kN);
  for (const Frame& f : got) EXPECT_EQ(f.src, 0u);
}

TEST(NetFabric, FourProcAllToAll) {
  Mesh m(4);
  const int kPer = 20;
  {
    std::vector<std::jthread> senders;
    for (int p = 0; p < 4; ++p) {
      senders.emplace_back([&m, p] {
        for (int i = 0; i < kPer; ++i) {
          for (int q = 0; q < 4; ++q) {
            if (q == p) continue;
            Frame f = data_frame(std::uint32_t(p * 1000 + i));
            ASSERT_EQ(m.fabrics[std::size_t(p)]->send(q, f),
                      net::Fabric::SendResult::kOk);
          }
        }
      });
    }
  }
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(m.wait_frames(q, 3 * kPer)) << "proc " << q;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // late dups
  for (int q = 0; q < 4; ++q) {
    // Per-source exactly-once, in-order delivery: sender p's frames carry
    // connection seqs 0..kPer-1 and tags p*1000 + 0..kPer-1, in that order.
    std::map<std::uint32_t, std::vector<Frame>> by_src;
    for (Frame& f : m.frames(q)) by_src[f.src].push_back(std::move(f));
    ASSERT_EQ(by_src.size(), 3u) << "proc " << q;
    for (auto& [src, got] : by_src) {
      ASSERT_EQ(got.size(), std::size_t(kPer)) << "proc " << q;
      for (int i = 0; i < kPer; ++i) {
        EXPECT_EQ(got[std::size_t(i)].seq, std::uint64_t(i));
        EXPECT_EQ(tag_of(got[std::size_t(i)]), src * 1000 + std::uint32_t(i));
      }
    }
  }
}

TEST(NetFabric, ReconnectRepairsStreamExactlyOnce) {
  // Connections are dropped mid-stream; the supervisor reconnects and the
  // retransmit queue repairs the tail. The raw delivered stream must carry
  // every connection seq exactly once, in order: the receiver's Reorderer
  // survives the reconnect and drops the resent frames it already released.
  Mesh m(2);
  const int kN = 200;
  std::jthread chaos([&m] {
    for (int i = 0; i < 6; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      m.fabrics[0]->drop_connections();
      m.fabrics[1]->drop_connections();
    }
  });
  for (int i = 0; i < kN; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  chaos.join();
  ASSERT_TRUE(m.wait_frames(1, kN));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  expect_exactly_once_in_order(m.frames(1), kN);
}

TEST(NetFabric, KillSurfacesPeerDeath) {
  Mesh m(2);
  Frame f = data_frame(1);
  ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  ASSERT_TRUE(m.wait_frames(1, 1));

  m.fabrics[1]->kill();  // SIGKILL stand-in: no goodbye, sockets just close
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!m.fabrics[0]->peer_dead(1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "death never detected";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Frame g = data_frame(2);
  EXPECT_EQ(m.fabrics[0]->try_send(1, g),
            net::Fabric::SendResult::kPeerDead);
  EXPECT_EQ(m.fabrics[0]->dead_peers(), std::vector<int>{1});
}

TEST(NetFabric, NeverConnectedPeerRefusedAfterWindow) {
  // Proc 1 never starts: after the connect window, sends fail kRefused
  // instead of queueing forever.
  Mesh m(2, 1024, /*connect_window_ms=*/200, /*skip_proc=*/1);
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!m.fabrics[0]->peer_dead(1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "refused-dead never declared";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Frame f = data_frame(1);
  EXPECT_EQ(m.fabrics[0]->try_send(1, f),
            net::Fabric::SendResult::kRefused);
}

TEST(NetFabric, BackpressureReportsWouldBlock) {
  // Writes frozen + large payloads: the outbuf high-water mark stops the
  // queue drain, the bounded sendq fills, try_send reports kWouldBlock
  // instead of buffering without limit.
  Mesh m(2, /*sendq_cap=*/4);
  m.fabrics[0]->pause_tx(true);
  const std::size_t kPad = 512 * 1024;
  bool would_block = false;
  int accepted = 0;
  for (int i = 0; i < 16 && !would_block; ++i) {
    Frame f = data_frame(std::uint32_t(i), kPad);
    switch (m.fabrics[0]->try_send(1, f)) {
      case net::Fabric::SendResult::kOk:
        ++accepted;
        break;
      case net::Fabric::SendResult::kWouldBlock:
        would_block = true;
        break;
      default:
        FAIL() << "unexpected send result";
    }
    // Give the IO thread a moment to drain the sendq into the outbuf.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(would_block);
  m.fabrics[0]->pause_tx(false);
  ASSERT_TRUE(m.wait_frames(1, std::size_t(accepted)));
  Frame f = data_frame(99);
  EXPECT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  ASSERT_TRUE(m.wait_frames(1, std::size_t(accepted) + 1));
}

TEST(NetFabric, UnknownKindIsAckedAndDropped) {
  // Wire input is untrusted: frames of kinds no consumer reads (kNone, a
  // retired kind number, garbage) take their place in the connection's
  // sequence and are acked, but never reach the deliver callback — the
  // smpi frames behind them still arrive, in order.
  Mesh m(2);
  for (int kind : {0, 5, 200}) {
    Frame junk = data_frame(std::uint32_t(kind));
    junk.kind = FrameKind(kind);
    ASSERT_EQ(m.fabrics[0]->send(1, junk), net::Fabric::SendResult::kOk);
  }
  for (std::uint32_t tag : {10u, 11u}) {
    Frame f = data_frame(tag);
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  ASSERT_TRUE(spin_until([&m] {
    for (const Frame& f : m.frames(1)) {
      if (tag_of(f) == 11) return true;
    }
    return false;
  }));
  std::vector<Frame> got = m.frames(1);
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, FrameKind::kSmpi);
    EXPECT_EQ(got[i].seq, 3 + i);
    EXPECT_EQ(tag_of(got[i]), 10 + i);
  }
}

TEST(NetFabric, ShutdownFlushesQueuedFrames) {
  Mesh m(2);
  const int kN = 100;
  for (int i = 0; i < kN; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  // Shutdown's flush phase must not discard anything still in flight.
  m.shutdown_all();
  EXPECT_EQ(m.frames(1).size(), std::size_t(kN));
}

TEST(NetFabric, ChaosDropDupDelayExactlyOnce) {
  // Seeded wire chaos at the socket transmit point: drops are repaired by
  // RTO retransmission, delays by the reorderer, and duplicates are dropped
  // there too. The raw delivered stream must still be 0..N-1 in order.
  fault::reset();
  fault::Config cfg;
  cfg.seed = 1;
  cfg.drop_p = 0.05;
  cfg.delay_p = 0.10;
  cfg.delay_us = 100;
  cfg.dup_p = 0.05;
  fault::configure(cfg);
  {
    Mesh m(2);
    const int kN = 300;
    for (int i = 0; i < kN; ++i) {
      Frame f = data_frame(std::uint32_t(i));
      ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
    }
    ASSERT_TRUE(m.wait_frames(1, kN, 20000));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    expect_exactly_once_in_order(m.frames(1), kN);
  }
  fault::reset();
}

// The ack-protocol tests below assert the exact frames a fabric sends on a
// clean wire; injected delays would reorder them (every frame above a gap
// earns its own ack by design). They switch injection off, e.g. when the
// suite runs under HCMPI_FAULT, and restore it afterwards.
class CleanWire {
 public:
  CleanWire() { fault::reset(); }
  ~CleanWire() { fault::configure(saved_); }
  CleanWire(const CleanWire&) = delete;
  CleanWire& operator=(const CleanWire&) = delete;

 private:
  fault::Config saved_ = fault::config();
};

TEST(NetFabric, BurstIsAckedCumulatively) {
  // A burst read in one batch earns one cumulative ack, not one ack per
  // frame. The sender's wire is held while the burst queues, so it leaves
  // in one write.
  CleanWire clean;
  auto& acks = support::MetricsRegistry::global().counter("net.acks.sent");
  const std::uint64_t acks_before = acks.value();
  Mesh m(2);
  const int kN = 256;
  m.fabrics[0]->pause_tx(true);
  for (int i = 0; i < kN; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(m.fabrics[0]->send(1, f), net::Fabric::SendResult::kOk);
  }
  m.fabrics[0]->pause_tx(false);
  ASSERT_TRUE(m.wait_frames(1, kN));
  expect_exactly_once_in_order(m.frames(1), kN);
  // Shutdown's flush phase waits for every frame to be acked; if the
  // cumulative acks missed any, it would run into its 2 s deadline.
  const auto t0 = std::chrono::steady_clock::now();
  m.shutdown_all();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_LT(acks.value() - acks_before, std::uint64_t(kN));
}

// A hand-driven proc 0 on a raw Unix socket, connected to a Mesh whose
// proc 0 was skipped: it puts frames on the wire a Fabric never would.
class RawPeer {
 public:
  explicit RawPeer(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    if (connected_) send(control(FrameKind::kHello, 0, 0));
  }
  ~RawPeer() { ::close(fd_); }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  bool connected() const { return connected_; }

  static Frame control(FrameKind kind, std::uint8_t flags, std::uint64_t seq) {
    Frame f;
    f.kind = kind;
    f.flags = flags;
    f.seq = seq;
    f.src = 0;
    f.dst = 1;
    return f;
  }

  void send(const Frame& f) {
    net::Bytes b;
    net::append_frame(b, f);
    send_bytes(b.data(), b.size());
  }

  void send_bytes(const std::uint8_t* p, std::size_t len) {
    std::size_t off = 0;
    while (off < len) {
      ssize_t n = ::send(fd_, p + off, len - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += std::size_t(n);
    }
  }

  // Next frame of `kind` within `ms`, heartbeating meanwhile so the fabric
  // does not declare this peer dead.
  bool next(FrameKind kind, Frame* out, int ms) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < deadline) {
      while (reader_.next(out)) {
        if (out->kind == kind) return true;
      }
      send(control(FrameKind::kHeartbeat, 0, 0));
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 5) > 0) {
        std::uint8_t buf[4096];
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n <= 0) return false;
        reader_.feed(buf, std::size_t(n));
      }
    }
    return false;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  net::FrameReader reader_;
};

TEST(NetFabric, CumulativeAckBeyondAssignedSeqIsIgnored) {
  // Wire input is untrusted: an ack of "everything below 1000" when only
  // seq 0 was ever assigned must not empty the retransmit window.
  CleanWire clean;
  Mesh m(2, 1024, 5000, /*skip_proc=*/0);
  RawPeer peer(m.session + "/j0.p1");
  ASSERT_TRUE(peer.connected());
  Frame f = data_frame(7);
  ASSERT_EQ(m.fabrics[1]->send(0, f), net::Fabric::SendResult::kOk);
  Frame got;
  ASSERT_TRUE(peer.next(FrameKind::kSmpi, &got, 5000));
  ASSERT_EQ(got.seq, 0u);
  peer.send(RawPeer::control(FrameKind::kAck, net::kFlagCumulative, 1000));
  // Still unacked, so the RTO keeps resending it (every 20-320 ms here).
  int resent = 0;
  while (resent < 2 && peer.next(FrameKind::kSmpi, &got, 2000)) {
    EXPECT_EQ(got.seq, 0u);
    ++resent;
  }
  EXPECT_EQ(resent, 2);
  m.fabrics[1]->kill();
}

TEST(NetFabric, AcksSelectiveAboveGapCumulativeBehindIt) {
  // A frame buffered above a gap is acked on its own at once; the frame
  // that fills the gap earns one cumulative ack covering both.
  CleanWire clean;
  Mesh m(2, 1024, 5000, /*skip_proc=*/0);
  RawPeer peer(m.session + "/j0.p1");
  ASSERT_TRUE(peer.connected());
  auto data = [](std::uint64_t seq) {
    Frame f = data_frame(std::uint32_t(seq));
    f.seq = seq;
    f.src = 0;
    f.dst = 1;
    return f;
  };
  peer.send(data(1));
  Frame ack;
  ASSERT_TRUE(peer.next(FrameKind::kAck, &ack, 5000));
  EXPECT_EQ(ack.flags & net::kFlagCumulative, 0);
  EXPECT_EQ(ack.seq, 1u);
  EXPECT_TRUE(m.frames(1).empty());  // held behind the gap
  peer.send(data(0));
  ASSERT_TRUE(peer.next(FrameKind::kAck, &ack, 5000));
  EXPECT_EQ(ack.flags & net::kFlagCumulative, net::kFlagCumulative);
  EXPECT_EQ(ack.seq, 2u);
  ASSERT_TRUE(m.wait_frames(1, 2));
  std::vector<Frame> got = m.frames(1);
  EXPECT_EQ(got[0].seq, 0u);
  EXPECT_EQ(got[1].seq, 1u);
  m.fabrics[1]->kill();
}

std::uint64_t counter(const char* name) {
  return support::MetricsRegistry::global().counter_value(name);
}

// Seeded control-frame fuzz. A hand-driven peer sends one sequenced stream
// (kSmpi frames and frames of unknown kinds, seqs 0..n-1, with injected
// duplicates and adjacent swaps) interleaved with hellos, heartbeats,
// goodbyes and acks of seqs the fabric never assigned, cut into random
// chunks. The fabric must release every kSmpi frame exactly once, in order,
// and keep retransmitting its own frames, since no ack it got was valid.
struct ControlFuzz {
  net::Bytes wire;
  std::vector<std::uint64_t> smpi_seqs;  // in release order
};

ControlFuzz control_fuzz(std::uint64_t seed, std::uint64_t tx_assigned) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  auto control = RawPeer::control;
  ControlFuzz out;
  const std::uint64_t n = 64 + pick(64);
  std::vector<Frame> seqd;
  for (std::uint64_t seq = 0; seq < n; ++seq) {
    Frame f;
    if (pick(4) == 0) {
      f.kind = FrameKind(7 + pick(249));  // no consumer reads these kinds
      f.payload.assign(std::size_t(pick(16)), std::uint8_t(seq));
    } else {
      f = data_frame(std::uint32_t(out.smpi_seqs.size()),
                     std::size_t(pick(32)));
      out.smpi_seqs.push_back(seq);
    }
    f.seq = seq;
    f.src = 0;
    f.dst = 1;
    seqd.push_back(std::move(f));
  }
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < seqd.size(); ++i) {
    if (i + 1 < seqd.size() && pick(8) == 0) {
      std::swap(seqd[i], seqd[i + 1]);  // a frame arrives above a gap
    }
    frames.push_back(seqd[i]);
    if (pick(8) == 0) frames.push_back(seqd[pick(i + 1)]);  // duplicate
    for (std::uint64_t c = pick(3); c > 0; --c) {
      switch (pick(5)) {
        case 0:
          frames.push_back(control(FrameKind::kHello, 0, pick(1000)));
          break;
        case 1:
          frames.push_back(control(FrameKind::kHeartbeat, 0, 0));
          break;
        case 2:
          frames.push_back(control(FrameKind::kGoodbye,
                                   std::uint8_t(pick(2)) * net::kFlagError, 0));
          break;
        default:  // cumulative or selective, above every assigned seq
          frames.push_back(control(
              FrameKind::kAck,
              std::uint8_t(pick(2)) * net::kFlagCumulative,
              tx_assigned + 1 + pick(1u << 20)));
          break;
      }
    }
  }
  for (const Frame& f : frames) net::append_frame(out.wire, f);
  return out;
}

void run_control_fuzz(std::uint64_t seed, bool driven) {
  CleanWire clean;
  Mesh m(2, 1024, 5000, /*skip_proc=*/0);
  net::Fabric& fab = *m.fabrics[1];
  std::jthread driver;  // stopped and joined on every exit path
  if (driven) {
    driver = std::jthread([&fab](std::stop_token stop) {
      fab.drive(true);
      while (!stop.stop_requested()) {
        fab.progress();
        std::this_thread::yield();
      }
      fab.drive(false);
    });
  }
  const std::uint64_t driver_read0 = counter("net.frames.driver_read");
  RawPeer peer(m.session + "/j0.p1");
  ASSERT_TRUE(peer.connected());
  constexpr std::uint64_t kOwn = 3;  // frames the fabric sends the peer
  for (std::uint64_t i = 0; i < kOwn; ++i) {
    Frame f = data_frame(std::uint32_t(i));
    ASSERT_EQ(fab.send(0, f), net::Fabric::SendResult::kOk);
  }
  Frame got;
  for (std::uint64_t i = 0; i < kOwn; ++i) {
    ASSERT_TRUE(peer.next(FrameKind::kSmpi, &got, 5000));
  }
  const ControlFuzz fz = control_fuzz(seed, kOwn);
  std::mt19937_64 rng(seed ^ 0x5eed);
  for (std::size_t off = 0; off < fz.wire.size();) {
    const std::size_t len = std::min<std::size_t>(1 + rng() % 512,
                                                  fz.wire.size() - off);
    peer.send_bytes(fz.wire.data() + off, len);
    off += len;
  }
  ASSERT_TRUE(m.wait_frames(1, fz.smpi_seqs.size()));
  // Every frame the fabric sent is still unacked, so the RTO resends each.
  std::vector<bool> resent(kOwn, false);
  std::size_t missing = kOwn;
  while (missing > 0 && peer.next(FrameKind::kSmpi, &got, 5000)) {
    ASSERT_LT(got.seq, kOwn);
    if (!resent[got.seq]) --missing;
    resent[got.seq] = true;
  }
  EXPECT_EQ(missing, 0u) << "an ack above the assigned seqs was honoured";
  std::vector<Frame> rx = m.frames(1);
  ASSERT_EQ(rx.size(), fz.smpi_seqs.size());
  for (std::size_t i = 0; i < rx.size(); ++i) {
    EXPECT_EQ(rx[i].kind, FrameKind::kSmpi);
    EXPECT_EQ(rx[i].seq, fz.smpi_seqs[i]);
    EXPECT_EQ(tag_of(rx[i]), std::uint32_t(i));
  }
  if (driven) {
    EXPECT_GT(counter("net.frames.driver_read"), driver_read0);
  }
  driver = {};
  fab.kill();
}

TEST(NetFabric, ControlFrameFuzzIoThreadReads) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    run_control_fuzz(seed, /*driven=*/false);
  }
}

TEST(NetFabric, ControlFrameFuzzDriverReads) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    run_control_fuzz(seed, /*driven=*/true);
  }
}

// --- socket-backed World ----------------------------------------------------

// Switches the process into socket mode with unit-test-sized timers, and
// restores everything on teardown (the rest of the suite must keep running
// in thread mode).
class SocketWorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_mode_ = net::mode();
    setenv("HCMPI_NET_HEARTBEAT_MS", "10", 1);
    setenv("HCMPI_NET_DEATH_TIMEOUT_MS", "400", 1);
    setenv("HCMPI_NET_RTO_MS", "20", 1);
    setenv("HCMPI_NET_CONNECT_MS", "2000", 1);
    setenv("HCMPI_NET_SHUTDOWN_MS", "3000", 1);
    net::reload_proc_env();
    net::set_mode(net::Mode::kSocket);
  }
  void TearDown() override {
    net::set_mode(prev_mode_);
    unsetenv("HCMPI_NET_HEARTBEAT_MS");
    unsetenv("HCMPI_NET_DEATH_TIMEOUT_MS");
    unsetenv("HCMPI_NET_RTO_MS");
    unsetenv("HCMPI_NET_CONNECT_MS");
    unsetenv("HCMPI_NET_SHUTDOWN_MS");
    net::reload_proc_env();
    fault::reset();
  }

 private:
  net::Mode prev_mode_ = net::Mode::kThread;
};

TEST_F(SocketWorldTest, PointToPointOverLoopbackSockets) {
  smpi::World::run(3, [](smpi::Comm& comm) {
    int right = (comm.rank() + 1) % comm.size();
    int left = (comm.rank() + comm.size() - 1) % comm.size();
    int out = comm.rank() * 10;
    int in = -1;
    comm.sendrecv(&out, sizeof out, right, 7, &in, sizeof in, left, 7);
    EXPECT_EQ(in, left * 10);
    comm.barrier();
  });
}

TEST_F(SocketWorldTest, RepeatedOpenCloseIsClean) {
  // Teardown-order hardening: Worlds (and their fabrics, sockets, IO
  // threads) come and go repeatedly in one process. Leaked fds, unjoined
  // threads or use-after-free in the teardown path show up here — this is
  // the case the tsan CI job runs.
  for (int iter = 0; iter < 8; ++iter) {
    smpi::World::run(3, [](smpi::Comm& comm) {
      int token = comm.rank();
      comm.bcast(&token, sizeof token, 0);
      EXPECT_EQ(token, 0);
      comm.barrier();
    });
  }
}

TEST_F(SocketWorldTest, ChaosOverSocketsStaysExactlyOnce) {
  fault::Config cfg;
  cfg.seed = 1;
  cfg.drop_p = 0.05;
  cfg.delay_p = 0.10;
  cfg.delay_us = 100;
  fault::configure(cfg);
  // Sum-allreduce is wrong if any message is lost or double-applied.
  smpi::World::run(3, [](smpi::Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      long mine = comm.rank() + 1 + round;
      long sum = -1;
      comm.allreduce(&mine, &sum, 1, smpi::Datatype::kLong, smpi::Op::kSum);
      EXPECT_EQ(sum, 6 + 3 * round);
    }
  });
}

// DDDF over sockets runs the paper's protocol unchanged: REGISTER and DATA
// are smpi messages, so the fabric carries them like any other.
dddf::SpaceConfig cyclic(int ranks) {
  return {
      .home = [ranks](dddf::Guid g) { return int(g % dddf::Guid(ranks)); },
      .size = [](dddf::Guid) { return std::size_t(64); },
  };
}

TEST_F(SocketWorldTest, DddfRemoteAwaitMovesOneTransfer) {
  const std::uint64_t frames_before =
      support::MetricsRegistry::global().counter("net.frames.sent").value();
  smpi::World::run(2, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(2));
    const dddf::Guid g = 42;  // homed at rank 0
    ctx.run([&] {
      if (ctx.rank() == 0) {
        space.put_value<int>(g, 99);
      } else {
        std::atomic<int> got{-1};
        hc::finish([&] {
          space.async_await({g}, [&] { got.store(space.get_value<int>(g)); });
        });
        EXPECT_EQ(got.load(), 99);
      }
      space.finalize(10000);
    });
    if (ctx.rank() == 0) {
      EXPECT_EQ(space.registrations_received(), 1u);
      EXPECT_EQ(space.data_messages_sent(), 1u);
    } else {
      EXPECT_EQ(space.remote_gets_issued(), 1u);
      EXPECT_EQ(space.data_messages_sent(), 0u);
    }
  });
  // The protocol crossed the sockets rather than a shared-memory shortcut.
  EXPECT_GT(
      support::MetricsRegistry::global().counter("net.frames.sent").value(),
      frames_before);
}

// --- the communication worker drives its rank's fabric ----------------------

TEST_F(SocketWorldTest, CommWorkerReadsWhatItsRankReceives) {
  // A driven hcmpi ping-pong: the comm workers read the frames themselves
  // (net.frames.driver_read), the IO threads only supervise. Counted on rank
  // 0 after a warm-up, so set-up traffic read by the IO threads (the
  // Context's dup on the rank threads) stays out of the ratio.
  constexpr int kWarmup = 50, kRounds = 2000;
  std::uint64_t driver_read = 0, received = 0;
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] {
      const int me = ctx.rank(), peer = 1 - me;
      std::uint64_t read0 = 0, recv0 = 0;
      for (int i = 0; i < kWarmup + kRounds; ++i) {
        if (me == 0 && i == kWarmup) {
          read0 = counter("net.frames.driver_read");
          recv0 = counter("net.frames.received");
        }
        int got = -1;
        if (me == 0) {
          ctx.send(&i, sizeof i, peer, 5);
          ctx.recv(&got, sizeof got, peer, 6);
        } else {
          ctx.recv(&got, sizeof got, peer, 5);
          ctx.send(&got, sizeof got, peer, 6);
        }
        ASSERT_EQ(got, i);
      }
      if (me == 0) {
        driver_read = counter("net.frames.driver_read") - read0;
        received = counter("net.frames.received") - recv0;
      }
    });
  });
  EXPECT_GE(received, std::uint64_t(2 * kRounds));
  EXPECT_GE(driver_read * 10, received * 9)
      << driver_read << " of " << received << " frames read by a driver";
}

TEST_F(SocketWorldTest, CommWorkerBlockingCollectiveHandsReadingBack) {
  // ctx.allreduce runs comm_.allreduce on the comm worker, which blocks in
  // smpi waits: it must hand reading back to the IO thread at once. If it
  // left that to the backstop, every blocked round would count a takeover.
  constexpr int kRounds = 40;
  const std::uint64_t backstop0 = counter("net.io.backstop");
  smpi::World::run(3, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    ctx.run([&] {
      for (int round = 0; round < kRounds; ++round) {
        long mine = ctx.rank() + 1 + round;
        long sum = -1;
        ctx.allreduce(&mine, &sum, 1, hcmpi::Datatype::kLong,
                      hcmpi::Op::kSum);
        ASSERT_EQ(sum, 6 + 3 * round);
      }
    });
  });
  EXPECT_LT(counter("net.io.backstop") - backstop0,
            std::uint64_t(kRounds / 2));
}

TEST_F(SocketWorldTest, BackstopReadsForAStuckDriver) {
  // Rank 1's comm worker sits in an exec closure that waits on a flag and
  // makes no smpi call: it neither reads nor hands reading back. Rank 1's
  // rank thread sets the flag only after its blocking smpi recv of rank 0's
  // message completes, and rank 0 sends that message only once the closure
  // runs. Only the IO thread's backstop can read it; the closure gives up
  // after 5 s, so a broken backstop fails instead of hanging. The death
  // timeout outlasts that guard: without a backstop nothing reads rank 0's
  // heartbeats either, and a peer declared dead would strand the message.
  setenv("HCMPI_NET_DEATH_TIMEOUT_MS", "20000", 1);
  net::reload_proc_env();
  net::set_mode(net::Mode::kSocket);  // the reload re-read the mode
  const std::uint64_t backstop0 = counter("net.io.backstop");
  std::atomic<bool> timed_out{false};
  smpi::World::run(2, [&](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 1});
    constexpr int kGoTag = 8, kMsgTag = 9;
    if (comm.rank() == 0) {
      int go = 0;
      comm.recv(&go, sizeof go, 1, kGoTag);
      int msg = 42;
      comm.send(&msg, sizeof msg, 1, kMsgTag);
      return;
    }
    // Let the IO thread see the comm worker driving before it gets stuck.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::atomic<bool> entered{false}, release{false};
    ctx.post_exec([&](smpi::Comm&) {
      entered.store(true);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!release.load()) {
        if (std::chrono::steady_clock::now() >= deadline) {
          timed_out.store(true);
          return;
        }
        std::this_thread::yield();
      }
    });
    ASSERT_TRUE(spin_until([&] { return entered.load(); }));
    int go = 1;
    comm.send(&go, sizeof go, 0, kGoTag);
    int msg = -1;
    comm.recv(&msg, sizeof msg, 0, kMsgTag);
    release.store(true);
    EXPECT_EQ(msg, 42);
  });
  EXPECT_FALSE(timed_out.load()) << "nothing read rank 1's message";
  EXPECT_GT(counter("net.io.backstop"), backstop0);
}

TEST_F(SocketWorldTest, FinalizeBarrierNamesDeadRank) {
  // Rank 2 "dies" (its fabric is killed, as SIGKILL would): the survivors'
  // deadlined finalize must throw a BarrierTimeout naming rank 2, not hang.
  smpi::World::run(3, [](smpi::Comm& comm) {
    hcmpi::Context ctx(comm, {.num_workers = 2});
    dddf::Space space(ctx, cyclic(3));
    const int me = ctx.rank();
    ctx.run([&] {
      // Handshake through the space itself, so the kill below races with no
      // in-flight traffic. Round 1: every rank puts guid `me` and awaits
      // the other two, so a survivor leaving it holds rank 2's value. Round
      // 2: the survivors put guids 3 and 4 (homed at 0 and 1) only after
      // round 1, and rank 2 awaits both: once they land, everything rank 2
      // sent has been delivered, and rank 2 may die.
      hc::finish([&] {
        for (int r = 0; r < comm.size(); ++r) {
          if (r == me) continue;
          const dddf::Guid g = dddf::Guid(r);
          space.async_await({g}, [&space, g, r] {
            EXPECT_EQ(space.get_value<int>(g), r);
          });
        }
        space.put_value<int>(dddf::Guid(me), me);
      });
      if (me == 2) {
        hc::finish([&] { space.async_await({3, 4}, [] {}); });
        comm.world().net_fabric(2)->kill();
        return;
      }
      space.put_value<int>(dddf::Guid(3 + me), me);
      try {
        space.finalize(8000);
        ADD_FAILURE() << "finalize did not surface the dead rank";
      } catch (const dddf::BarrierTimeout& e) {
        EXPECT_EQ(e.rank(), me);
        EXPECT_EQ(e.missing(), std::vector<int>{2});
      }
    });
  });
}

}  // namespace
