// Distributed Data-Driven Futures (paper §II-D, §III-B) — the APGNS model.
//
// Every DDDF is named by a user-managed globally unique id (guid). The user
// provides two callbacks, available on all ranks:
//
//   home(guid) -> rank that owns the value   (the paper's DDF_HOME)
//   size(guid) -> payload byte size          (the paper's DDF_SIZE)
//
// handle(guid) returns the rank-local view. The home rank produces the value
// with put(); any rank consumes it with async_await + get(). Under the hood:
//
//   * the first local await on a remote guid sends REGISTER(guid, me) to the
//     home rank as a message on the HCMPI system communicator (§III-B);
//   * the home rank answers with DATA once the value exists (a listener —
//     the poller on the communication worker — serves late registrations);
//   * the payload is cached locally, so "the data transfer from home to
//     remote happens at most once" and later awaits succeed immediately;
//   * finalize() is the global termination step that lets every rank's
//     listener keep serving until all ranks are provably quiescent.
//
// All protocol handlers run on the communication worker (the progress
// context), one thread per rank, so the home-side tables need no locks. The
// same protocol runs unchanged on the thread wire and the socket wire
// (DESIGN.md §9). The dynamic single-assignment rule of DDFs makes the
// remote cache trivially coherent and all accesses race-free and
// deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/ddf.h"

namespace hcmpi {
class Context;
}
namespace smpi {
class Comm;
}

namespace dddf {

using Guid = std::uint64_t;
using Bytes = std::vector<std::uint8_t>;

// Thrown by finalize when a deadline was set and some ranks never arrived
// (rank death, lost protocol traffic past the retry budget) — `missing()`
// names them, turning the classic hang-forever into an actionable
// diagnostic.
class BarrierTimeout : public std::runtime_error {
 public:
  BarrierTimeout(int rank, std::vector<int> missing)
      : std::runtime_error(format(rank, missing)),
        rank_(rank), missing_(std::move(missing)) {}
  int rank() const { return rank_; }
  const std::vector<int>& missing() const { return missing_; }

 private:
  static std::string format(int rank, const std::vector<int>& missing) {
    std::string s = "dddf: finalize barrier timed out on rank " +
                    std::to_string(rank) + "; ranks never arrived:";
    for (int r : missing) s += " " + std::to_string(r);
    return s;
  }
  int rank_;
  std::vector<int> missing_;
};

struct SpaceConfig {
  std::function<int(Guid)> home;          // DDF_HOME
  std::function<std::size_t(Guid)> size;  // DDF_SIZE
};

class Space {
 public:
  // Collective across all ranks of ctx. The protocol rides ctx's
  // communication worker; the poller is armed last, so remote traffic that
  // races ahead of this constructor stays queued in smpi until then.
  Space(hcmpi::Context& ctx, SpaceConfig cfg);
  ~Space();

  Space(const Space&) = delete;
  Space& operator=(const Space&) = delete;

  int rank() const;
  bool is_home(Guid guid) const { return cfg_.home(guid) == rank(); }

  // DDF_HANDLE: the local DDF backing this guid (created on first use).
  hc::DdfBase* handle(Guid guid);

  // DDF_PUT: home rank only (the paper's producers always put at home).
  void put(Guid guid, Bytes data);
  template <typename T>
  void put_value(Guid guid, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes b(sizeof(T));
    std::memcpy(b.data(), &v, sizeof(T));
    put(guid, std::move(b));
  }

  // DDF_GET: non-blocking; throws hc::PrematureGet when the value has not
  // reached this rank yet (program error per the paper).
  const Bytes& get(Guid guid);
  template <typename T>
  T get_value(Guid guid) {
    static_assert(std::is_trivially_copyable_v<T>);
    const Bytes& b = get(guid);
    T v;
    std::memcpy(&v, b.data(), sizeof(T));
    return v;
  }

  // async AWAIT(guids...) { fn }: spawns fn as a DDT gated on every guid,
  // issuing remote fetches for guids homed elsewhere.
  template <typename F>
  void async_await(const std::vector<Guid>& guids, F&& fn) {
    std::vector<hc::DdfBase*> deps;
    deps.reserve(guids.size());
    for (Guid g : guids) deps.push_back(request(g));
    hc::async_await(std::move(deps), std::forward<F>(fn));
  }

  // Global termination (paper §III-B): every rank calls finalize after its
  // computation finish completes; listeners keep serving stragglers until
  // the system is quiescent. In a checked build (-DHCMPI_CHECK=ON), put()
  // or a new remote await after finalize() throws hc::check::CheckError:
  // protocol traffic behind the termination detector's back deadlocks or
  // drops data at scale even when a small run happens to survive it.
  //
  // timeout_ms bounds the wait for global quiescence: 0 defers to the
  // process-wide fault::finalize_timeout_ms() (default: wait forever); a
  // nonzero effective deadline turns a hung barrier into BarrierTimeout
  // naming the ranks that never arrived.
  void finalize(std::uint64_t timeout_ms = 0);

  // Introspection for tests.
  std::uint64_t data_messages_sent() const {
    return data_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t registrations_received() const {
    return regs_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t remote_gets_issued() const {
    return gets_issued_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    hc::Ddf<Bytes> ddf;
    std::atomic<bool> fetch_requested{false};
  };

  Entry* ensure(Guid guid);
  // handle() + remote fetch kick-off.
  hc::DdfBase* request(Guid guid);
  // The communication-worker poller: drains REGISTER, ARRIVE and DATA
  // messages and dispatches them to the handlers below.
  bool poll(smpi::Comm& comm);
  // Progress-context handlers.
  void on_register(Guid guid, int requester);
  void on_data(Guid guid, Bytes payload);
  void serve(Guid guid, Entry* e, int requester);

  hcmpi::Context& ctx_;
  SpaceConfig cfg_;

  std::mutex mu_;
  std::unordered_map<Guid, std::unique_ptr<Entry>> entries_;
  std::atomic<bool> finalized_{false};

  // Progress-context-only state (no lock needed). The byte counters are
  // read only by ~Space, after the poller has been cleared.
  std::unordered_map<Guid, std::vector<int>> pending_;  // waiting requesters
  std::unordered_map<Guid, std::unordered_set<int>> served_;
  std::uint64_t bytes_sent_ = 0;      // DATA payload bytes queued
  std::uint64_t bytes_received_ = 0;  // DATA payload bytes delivered
  // Bumped on the progress context only, but read from computation threads
  // (test introspection after finalize, the teardown metrics export, the
  // watchdog dump) with no synchronizing edge — hence relaxed atomics.
  std::atomic<std::uint64_t> data_sent_{0};
  std::atomic<std::uint64_t> regs_received_{0};
  // Bumped from consumer threads (first await on a remote guid).
  std::atomic<std::uint64_t> gets_issued_{0};

  // Relaxed mirrors of the progress-context counters above, readable from
  // the watchdog's diagnostic dump (any thread).
  std::atomic<std::uint64_t> pending_guids_{0};
  std::atomic<std::uint64_t> served_pairs_{0};
  int diag_id_ = -1;  // fault::register_diagnostic handle

  // Barrier-arrival flags (one-shot; finalize happens once per Space): set
  // by poll() when a peer's ARRIVE lands, read by a deadlined finalize to
  // name the ranks that never made it.
  std::unique_ptr<std::atomic<bool>[]> arrived_;
};

}  // namespace dddf
