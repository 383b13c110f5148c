#include "dddf/space.h"

#include <stdexcept>

#include "check/check.h"
#include "core/runtime.h"
#include "fault/fault.h"
#include "hcmpi/context.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace dddf {

namespace {
// Tags in the system communicator's space; hcmpi's non-blocking collective
// scripts use tags < 100, so the DDDF protocol lives at 1000+.
constexpr int kTagRegister = 1000;
constexpr int kTagData = 1001;
// Barrier-arrival announcement: lets a deadlined finalize name the ranks
// that never reached it instead of hanging forever.
constexpr int kTagArrive = 1002;

struct RegisterMsg {
  Guid guid;
  int requester;
};

// DDDF protocol events land on the ring of whatever worker slot runs the
// handler: the hcmpi communication worker (progress context) or a
// computation worker issuing the first remote fetch.
void record_event(support::trace::Ev ev, Guid guid, std::uint64_t bytes) {
  if (!support::trace::enabled()) return;
  hc::Worker* w = hc::Runtime::current_worker();
  if (w != nullptr) {
    w->trace_ring().record(ev, std::uint32_t(guid), bytes);
  }
}
}  // namespace

Space::Space(hcmpi::Context& ctx, SpaceConfig cfg)
    : ctx_(ctx),
      cfg_(std::move(cfg)),
      // Value-initialized: no rank has arrived.
      arrived_(std::make_unique<std::atomic<bool>[]>(std::size_t(ctx.size()))) {
  // Contribute protocol state to the stall watchdog's dump: which side of
  // the REGISTER/DATA handshake this rank is stuck on is usually the whole
  // diagnosis. Reads only atomics — safe from the watchdog's thread.
  diag_id_ = fault::register_diagnostic(
      "dddf.space", [this](std::FILE* f) {
        std::uint64_t entries;
        {
          std::lock_guard<std::mutex> lk(mu_);
          entries = entries_.size();
        }
        std::fprintf(
            f,
            "  dddf.space rank=%d entries=%llu pending_guids=%llu "
            "served_pairs=%llu gets_issued=%llu finalized=%d\n",
            rank(), (unsigned long long)entries,
            (unsigned long long)pending_guids_.load(std::memory_order_relaxed),
            (unsigned long long)served_pairs_.load(std::memory_order_relaxed),
            (unsigned long long)gets_issued_.load(std::memory_order_relaxed),
            int(finalized_.load(std::memory_order_relaxed)));
      });
  // Last: from here on the communication worker dispatches into this object.
  ctx_.set_poller([this](smpi::Comm& comm) { return poll(comm); });
}

Space::~Space() {
  fault::unregister_diagnostic(diag_id_);
  // Detach the poller *before* the implicit member destruction reaches the
  // protocol tables it dispatches into: the handshake runs behind every
  // queued put-flush closure, and no late REGISTER is dispatched after it,
  // so `pending_`/`served_`/`entries_` are still alive for all of them.
  ctx_.clear_poller();
  // Fold this rank's protocol counters into the process-wide registry.
  auto& reg = support::MetricsRegistry::global();
  reg.counter("dddf.remote_gets_issued").add(remote_gets_issued());
  reg.counter("dddf.registrations_received").add(registrations_received());
  reg.counter("dddf.data_messages_sent").add(data_messages_sent());
  reg.counter("dddf.bytes_sent").add(bytes_sent_);
  reg.counter("dddf.bytes_received").add(bytes_received_);
}

int Space::rank() const { return ctx_.rank(); }

Space::Entry* Space::ensure(Guid guid) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(guid);
  if (it != entries_.end()) return it->second.get();
  auto entry = std::make_unique<Entry>();
  Entry* out = entry.get();
  entries_.emplace(guid, std::move(entry));
  return out;
}

hc::DdfBase* Space::handle(Guid guid) { return &ensure(guid)->ddf; }

hc::DdfBase* Space::request(Guid guid) {
  Entry* e = ensure(guid);
  int home = cfg_.home(guid);
  if (home != rank() &&
      !e->fetch_requested.exchange(true, std::memory_order_acq_rel)) {
    if (hc::check::enabled() &&
        finalized_.load(std::memory_order_acquire)) {
      throw hc::check::CheckError(
          "hc-check: new remote DDDF await after Space::finalize() — the "
          "termination detector has already declared quiescence");
    }
    // First consumer on this rank: register intent with the home rank
    // (paper: "the runtime sends the home location a message to register
    // its intent on receiving the put data").
    gets_issued_.fetch_add(1, std::memory_order_relaxed);
    record_event(support::trace::Ev::kDddfGetIssued, guid, 0);
    RegisterMsg msg{guid, rank()};
    ctx_.post_exec([msg, home](smpi::Comm& comm) {
      comm.send(&msg, sizeof msg, home, kTagRegister);
    });
  }
  return &e->ddf;
}

void Space::put(Guid guid, Bytes data) {
  if (!is_home(guid)) {
    throw std::logic_error("dddf: DDF_PUT must run on the guid's home rank");
  }
  if (hc::check::enabled() && finalized_.load(std::memory_order_acquire)) {
    throw hc::check::CheckError(
        "hc-check: DDDF put after Space::finalize() — remote consumers can "
        "no longer be served");
  }
  Entry* e = ensure(guid);
  e->ddf.put(std::move(data));  // releases local DDTs
  // Flush registrations that arrived before the put. The flush runs on the
  // communication worker, where `pending_`/`served_` live; a registration
  // racing this put is answered directly by on_register (it sees the DDF
  // satisfied), and `served_` keeps the transfer at-most-once either way.
  ctx_.post_exec([this, guid, e](smpi::Comm&) {
    auto it = pending_.find(guid);
    if (it == pending_.end()) return;
    for (int requester : it->second) serve(guid, e, requester);
    pending_.erase(it);
    pending_guids_.store(pending_.size(), std::memory_order_relaxed);
  });
}

const Bytes& Space::get(Guid guid) { return ensure(guid)->ddf.get(); }

void Space::serve(Guid guid, Entry* e, int requester) {
  if (!served_[guid].insert(requester).second) return;  // at-most-once
  served_pairs_.fetch_add(1, std::memory_order_relaxed);
  const Bytes& payload = e->ddf.get();
  record_event(support::trace::Ev::kDddfServed, guid, payload.size());
  Bytes wire(sizeof(Guid) + payload.size());
  std::memcpy(wire.data(), &guid, sizeof(Guid));
  if (!payload.empty()) {
    std::memcpy(wire.data() + sizeof(Guid), payload.data(), payload.size());
  }
  ctx_.post_exec([wire = std::move(wire), requester](smpi::Comm& comm) {
    comm.send(wire.data(), wire.size(), requester, kTagData);
  });
  data_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_ += payload.size();
}

void Space::on_register(Guid guid, int requester) {
  regs_received_.fetch_add(1, std::memory_order_relaxed);
  Entry* e = ensure(guid);
  if (e->ddf.satisfied()) {
    serve(guid, e, requester);  // the "listener task" answering late arrivals
  } else {
    pending_[guid].push_back(requester);
    pending_guids_.store(pending_.size(), std::memory_order_relaxed);
  }
}

void Space::on_data(Guid guid, Bytes payload) {
  ensure(guid)->ddf.put(std::move(payload));  // wakes awaiting DDTs
}

bool Space::poll(smpi::Comm& comm) {
  bool progress = false;
  smpi::Status st;
  while (comm.iprobe(smpi::kAnySource, kTagRegister, &st)) {
    RegisterMsg msg{};
    comm.recv(&msg, sizeof msg, st.source, kTagRegister);
    progress = true;
    on_register(msg.guid, msg.requester);
  }
  while (comm.iprobe(smpi::kAnySource, kTagArrive, &st)) {
    int peer = -1;
    comm.recv(&peer, sizeof peer, st.source, kTagArrive);
    progress = true;
    if (peer >= 0 && peer < ctx_.size()) {
      arrived_[std::size_t(peer)].store(true, std::memory_order_release);
    }
  }
  while (comm.iprobe(smpi::kAnySource, kTagData, &st)) {
    Bytes wire(st.count_bytes);
    comm.recv(wire.data(), wire.size(), st.source, kTagData);
    progress = true;
    Guid guid = 0;
    std::memcpy(&guid, wire.data(), sizeof(Guid));
    Bytes payload(wire.begin() + sizeof(Guid), wire.end());
    bytes_received_ += payload.size();
    record_event(support::trace::Ev::kDddfData, guid, payload.size());
    on_data(guid, std::move(payload));
  }
  return progress;
}

void Space::finalize(std::uint64_t timeout_ms) {
  finalized_.store(true, std::memory_order_release);
  // When every rank has reached finalize, every await was satisfied, hence
  // every registration was served and no protocol message is in flight: a
  // single system-wide barrier *whose progress engine keeps the listener
  // serving* is a sound termination detector (DESIGN.md §5). The hcmpi
  // non-blocking barrier progresses on the communication worker loop, which
  // also drives poll().
  if (timeout_ms == 0) timeout_ms = fault::finalize_timeout_ms();
  if (timeout_ms == 0) {
    hcmpi::Context::block_until(ctx_.submit_nb_barrier());
    return;
  }
  // Announce arrival out-of-band before joining the barrier proper. The
  // broadcast only happens on the deadlined path, so the common
  // wait-forever configuration pays nothing extra.
  const int me = rank();
  arrived_[std::size_t(me)].store(true, std::memory_order_release);
  for (int r = 0; r < ctx_.size(); ++r) {
    if (r == me) continue;
    ctx_.post_exec([me, r](smpi::Comm& comm) {
      comm.send(&me, sizeof me, r, kTagArrive);
    });
  }
  hcmpi::RequestHandle req = ctx_.submit_nb_barrier();
  if (hcmpi::Context::block_until_deadline(req, timeout_ms)) return;
  // Deadline expired: pull this rank out of the stuck collective so the
  // communication worker can still shut down cleanly, then name the ranks
  // whose ARRIVE never landed.
  if (!ctx_.cancel(req)) return;  // completed at the wire — we lost the race
  std::vector<int> missing;
  for (int r = 0; r < ctx_.size(); ++r) {
    if (!arrived_[std::size_t(r)].load(std::memory_order_acquire)) {
      missing.push_back(r);
    }
  }
  // missing may be empty: everyone announced arrival but the barrier script
  // itself stalled (e.g. step traffic lost past the retry budget). Still a
  // timeout — the message then names no ranks rather than fabricating some.
  throw BarrierTimeout(me, std::move(missing));
}

}  // namespace dddf
