// hc-net Fabric: one process's view of the socket mesh (DESIGN.md §9).
//
// A Fabric owns one duplex Unix-domain stream connection per peer process
// (socket files in a session directory), bounded per-peer send queues, and
// one poll()-driven IO thread. Senders interact only through the queues:
// try_send() reports kWouldBlock instead of buffering without limit, and
// send() parks on a condition variable until the queue drains or the peer
// dies.
//
// Who reads and who writes. The connection state (sockets, framing,
// sequencing, acks, the retransmit window, outbufs) is guarded by the IO
// token, a per-fabric mutex; whoever holds it moves frames. A thread may
// register as the fabric's *driver* (drive(true)) and then call progress()
// once per loop iteration: progress() takes the token with a try-lock and,
// on the calling thread, reads and delivers the frames that have arrived,
// drains the send queues and flushes the outbufs. A driver's own try_send
// queues without waking the IO thread, so the frames one iteration queues
// leave in one send(2). While a driver keeps calling progress(), the IO
// thread keeps connect/accept supervision with capped-backoff reconnect, RTO
// retransmission, heartbeats and silence-based peer-death detection,
// fault-delayed bytes, POLLOUT and the flush->goodbye teardown, but stops
// polling the peer sockets for input. A driver hands reading back around
// every blocking wait (HandBack: flush, deregister, wake the IO thread), and
// the IO thread takes reading back on its own after one pass in which no
// registered driver called progress() (the backstop). With no driver, the
// IO thread does everything.
//
// The data path pays its fixed costs per burst, not per frame:
//   * one wake per burst: a non-driver sender writes the wake pipe only when
//     it flips wake_pending_, and the IO loop clears the flag once per pass;
//   * one cumulative ack per read batch (kFlagCumulative, the Reorderer
//     horizon), plus a selective ack for each frame buffered above a gap;
//   * one mu_ acquisition and one notify per batch drained from a sendq;
//   * frames are encoded straight into the connection's outbuf.
//
// The Fabric is process-agnostic on purpose: `proc` is just its address in
// the mesh, so a test (or the socket *loopback* mode) can run several
// Fabrics in one OS process and still push every byte through real
// sockets — which is what makes the reliability layer testable under TSan
// without fork/exec.
//
// Fault injection (fault::decide) hooks the transmit point: a dropped frame
// is cut off the outbuf again (the RTO resends it), a duplicate is written
// twice, a delay moves the encoded bytes to a timer queue. Channel ids are
// process ids and transmits are serialized under the IO token, so the
// per-channel decision sequence advances in one transmit order whichever
// thread holds the token.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"

namespace net {

struct FabricOptions {
  std::string session;  // rendezvous directory (UDS paths live here)
  int job = 0;          // per-process instance counter (path uniqueness)
  int proc = 0;
  int nprocs = 1;

  std::uint32_t heartbeat_ms = 50;
  std::uint32_t death_timeout_ms = 3000;
  std::uint32_t connect_window_ms = 10000;
  std::uint32_t rto_ms = 40;
  std::size_t sendq_cap = 1024;
  std::uint32_t shutdown_timeout_ms = 5000;

  // Ranks hosted by this fabric, for two rank-level hooks: fault kill_rank
  // of a hosted rank makes the whole fabric go dark (a killed *process*
  // stops acking and heartbeating — peers must detect it, not be told),
  // and error goodbyes name this range.
  int rank_base = 0;
  int rank_count = 0;
};

class Fabric {
 public:
  enum class SendResult {
    kOk,
    kWouldBlock,  // bounded send queue full; retry after a pause
    kPeerDead,    // peer was alive once (or should have been) and is gone
    kRefused,     // peer never came up inside the connect window
    kClosed,      // this fabric is shut down
  };

  // Reliable (kSmpi) frames, in per-connection order, from the thread that
  // holds the IO token (the IO thread or a driver in progress()). Must not
  // call back into this Fabric except via try_send, and must not block.
  using DeliverFn = std::function<void(Frame&&)>;

  Fabric(const FabricOptions& opts, DeliverFn deliver);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int proc() const { return opts_.proc; }
  int nprocs() const { return opts_.nprocs; }
  const FabricOptions& options() const { return opts_; }

  // Queues a reliable frame for dst (seq assigned internally). On
  // kWouldBlock the frame is left intact so the caller can retry with the
  // same object.
  SendResult try_send(int dst, Frame& f);
  // try_send + park until queue space or peer death / shutdown.
  SendResult send(int dst, Frame& f);

  // --- driving (see the header comment) ------------------------------------

  // Registers (true) or deregisters (false) the calling thread as a driver
  // of this fabric. A thread drives at most one fabric at a time.
  // Deregistering flushes what the driver queued and wakes the IO thread.
  void drive(bool on);
  // A driver's step: if the IO token is free, read and deliver what has
  // arrived, drain the send queues and flush, all on the calling thread.
  void progress();

  // Scope guard for a blocking wait: if the calling thread drives a fabric,
  // it hands reading back to that fabric's IO thread for the scope (flush,
  // deregister, wake) and registers again at its end. A no-op on any other
  // thread, so every blocking smpi wait can construct one.
  class HandBack {
   public:
    HandBack();
    ~HandBack();
    HandBack(const HandBack&) = delete;
    HandBack& operator=(const HandBack&) = delete;

   private:
    Fabric* f_;
  };

  bool peer_dead(int p) const;
  std::vector<int> dead_peers() const;

  // Graceful teardown: flush (all queued frames acked), then exchange
  // goodbyes, then stop the IO thread — each phase bounded by
  // shutdown_timeout_ms so a dead peer cannot hang exit. `error` marks our
  // goodbye with kFlagError; the return value is true when any peer's
  // goodbye carried it (remote failure propagation).
  bool shutdown(bool error = false);

  // --- test / chaos hooks ---------------------------------------------------

  // Immediate stop: no flush, no goodbye, sockets just close. Simulates
  // SIGKILL for peer-death tests.
  void kill();
  // Freezes transmission (frames queue, nothing hits the wire).
  void pause_tx(bool on);
  // Closes every live connection once; the supervisor reconnects and the
  // retransmit queue repairs the stream.
  void drop_connections();

 private:
  struct Unacked {
    Frame frame;
    std::uint32_t attempts = 0;
    std::chrono::steady_clock::time_point next_rto;
  };

  struct Peer {
    int id = -1;

    // Shared state (mu_).
    std::deque<Frame> sendq;
    // Set with a push to sendq, cleared when a drain empties it: lets
    // progress() skip the mu_ acquisition when nothing is queued.
    std::atomic<bool> tx_ready{false};
    std::uint64_t tx_next = 0;
    std::size_t unacked_count = 0;
    bool dead = false;
    bool refused = false;      // dead because it never connected
    bool goodbye_rx = false;
    bool goodbye_err = false;
    bool goodbye_flushed = false;  // our goodbye fully written to the wire

    // IO-token state: touched only by the holder of io_mu_.
    int fd = -1;
    bool connecting = false;   // nonblocking connect() in flight
    bool up = false;
    bool ever_up = false;
    FrameReader reader;
    Reorderer reorder;
    std::vector<Frame> released;  // Reorderer output scratch
    bool ack_due = false;  // in-order frames since the last cumulative ack
    std::map<std::uint64_t, Unacked> unacked;
    std::vector<Frame> batch;  // drain_sendq scratch
    Bytes outbuf;
    std::size_t outoff = 0;
    // Fault-delayed encoded frames: (due, bytes). Flushed by the IO loop;
    // the IO thread itself never sleeps for an injected delay.
    std::deque<std::pair<std::chrono::steady_clock::time_point, Bytes>>
        delayed;
    std::chrono::steady_clock::time_point last_rx{};
    std::chrono::steady_clock::time_point last_tx{};
    std::chrono::steady_clock::time_point next_attempt{};
    std::uint32_t backoff_ms = 1;
    bool goodbye_sent = false;
  };

  struct PendingAccept {
    int fd = -1;
    FrameReader reader;
    std::chrono::steady_clock::time_point deadline;
  };

  void io_main();
  void open_listener();
  void wake();
  bool initiator(int p) const { return opts_.proc < p; }
  std::string uds_path(int p) const;

  void maintain(Peer& p, std::chrono::steady_clock::time_point now);
  void try_connect(Peer& p, std::chrono::steady_clock::time_point now);
  void finish_connect(Peer& p);
  void attach(Peer& p, int fd, FrameReader reader,
              std::chrono::steady_clock::time_point now);
  void conn_down(Peer& p, int err);
  void mark_dead(Peer& p, bool refused, bool half_open);
  void drain_sendq(Peer& p, std::chrono::steady_clock::time_point now);
  void transmit(Peer& p, const Frame& f, int lane,
                std::chrono::steady_clock::time_point now);
  void send_control(Peer& p, FrameKind kind, std::uint8_t flags,
                    std::uint64_t seq, int lane,
                    std::chrono::steady_clock::time_point now);
  void flush_out(Peer& p);
  std::size_t read_ready(Peer& p, std::chrono::steady_clock::time_point now);
  void handle_frame(Peer& p, Frame&& f,
                    std::chrono::steady_clock::time_point now);
  void on_ack(Peer& p, const Frame& f);
  void ack_batch(Peer& p, std::chrono::steady_clock::time_point now);
  void accept_ready(std::chrono::steady_clock::time_point now);
  void poll_pending_accepts(std::chrono::steady_clock::time_point now);
  void check_dark();
  void enlist();
  void retire();
  void close_all_io();

  FabricOptions opts_;
  DeliverFn deliver_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // The IO token: guards the IO-token state of every Peer, the listener and
  // the pending accepts. Lock order: io_mu_ before mu_.
  std::mutex io_mu_;
  int drivers_ = 0;  // (mu_) registered driver threads
  // A driver called progress() since the IO thread's last pass.
  std::atomic<bool> driver_seen_{false};
  std::vector<std::unique_ptr<Peer>> peers_;  // peers_[proc_] stays null
  bool stop_ = false;
  bool closed_ = false;         // no new sends accepted
  bool goodbye_phase_ = false;
  bool goodbye_error_ = false;  // flag to put on our goodbyes
  std::atomic<bool> paused_{false};  // written under mu_
  bool drop_conns_ = false;
  bool dark_ = false;  // a hosted rank was fault-killed: play dead
  bool shutdown_done_ = false;

  std::chrono::steady_clock::time_point start_{};  // io_main entry time
  int listen_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::atomic<bool> wake_pending_{false};  // a pipe byte is on its way
  std::vector<PendingAccept> pending_accepts_;
  std::string listen_path_;  // UDS file to unlink on exit

  std::thread io_;
};

}  // namespace net
