// The dedicated communication worker (paper Fig. 10): drains the lock-free
// worklist, issues smpi operations, polls ACTIVE requests with test (the
// paper's MPI_Test loop), makes progress on script-based non-blocking
// collectives, and runs the DDDF poller — all on one thread, so the
// substrate operates at MPI_THREAD_SINGLE no matter how many computation
// workers are active. On the socket wire it also drives its rank's fabric:
// once per iteration it reads arrived frames and sends what the iteration
// queued (smpi::Comm::progress), as an MPI library moves the network inside
// MPI_Test.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "hcmpi/context.h"
#include "prof/prof.h"

namespace hcmpi {

// ---------------------------------------------------------------------------
// Script-based non-blocking collectives.
//
// Each rank's half of a collective is a straight-line "script" of steps
// (send, recv+combine, recv-overwrite); the communication worker advances
// the script whenever the pending receive tests complete. Collectives are
// strictly FIFO per rank, so a fixed tag per step class is unambiguous
// (matching is FIFO per (source, tag, context) channel).
// ---------------------------------------------------------------------------

namespace {
constexpr int kTagNbBarrier = 16;  // +round
constexpr int kTagNbReduce = 80;
constexpr int kTagNbBcast = 81;
}  // namespace

struct NbStep {
  enum class K : std::uint8_t { kSendAcc, kRecvCombine, kRecvAcc };
  K kind;
  int peer;
  int tag;
};

struct NbScript {
  std::vector<NbStep> steps;
  std::size_t pc = 0;
  std::vector<std::uint8_t> acc, scratch;
  smpi::Request pending;
  smpi::Datatype dtype = smpi::Datatype::kByte;
  smpi::Op op = smpi::Op::kSum;
  std::size_t count = 0;

  static NbScript* barrier(const smpi::Comm& c) {
    auto* s = new NbScript;
    int p = c.size(), r = c.rank();
    for (int k = 0, dist = 1; dist < p; ++k, dist <<= 1) {
      s->steps.push_back({NbStep::K::kSendAcc, (r + dist) % p, kTagNbBarrier + k});
      s->steps.push_back(
          {NbStep::K::kRecvAcc, (r - dist % p + p) % p, kTagNbBarrier + k});
    }
    return s;
  }

  static NbScript* allreduce(const smpi::Comm& c, const void* in,
                             std::size_t count, smpi::Datatype t,
                             smpi::Op op) {
    auto* s = new NbScript;
    s->dtype = t;
    s->op = op;
    s->count = count;
    std::size_t bytes = count * smpi::datatype_size(t);
    s->acc.resize(bytes);
    s->scratch.resize(bytes);
    if (bytes > 0) std::memcpy(s->acc.data(), in, bytes);
    int p = c.size(), r = c.rank();
    // Binomial reduce toward rank 0 ...
    for (int mask = 1; mask < p; mask <<= 1) {
      if (r & mask) {
        s->steps.push_back({NbStep::K::kSendAcc, r - mask, kTagNbReduce});
        break;
      }
      if (r + mask < p) {
        s->steps.push_back({NbStep::K::kRecvCombine, r + mask, kTagNbReduce});
      }
    }
    // ... then binomial bcast from rank 0 (same shape as Comm::bcast).
    int mask = 1;
    while (mask < p) {
      if (r & mask) {
        s->steps.push_back({NbStep::K::kRecvAcc, r - mask, kTagNbBcast});
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    // Masks below a rank's receive mask are clear in its rank id, so the
    // r+mask < p guard is the only condition needed (same as Comm::bcast).
    while (mask > 0) {
      if (r + mask < p) {
        s->steps.push_back({NbStep::K::kSendAcc, r + mask, kTagNbBcast});
      }
      mask >>= 1;
    }
    return s;
  }

  // Advances as far as possible. True when the script has finished.
  bool step(smpi::Comm& c) {
    while (pc < steps.size()) {
      NbStep& st = steps[pc];
      switch (st.kind) {
        case NbStep::K::kSendAcc:
          c.send(acc.data(), acc.size(), st.peer, st.tag);
          ++pc;
          break;
        case NbStep::K::kRecvCombine:
        case NbStep::K::kRecvAcc: {
          bool into_acc = st.kind == NbStep::K::kRecvAcc;
          if (!pending) {
            pending = c.irecv(into_acc ? acc.data() : scratch.data(),
                              into_acc ? acc.size() : scratch.size(), st.peer,
                              st.tag);
          }
          if (!c.test(pending)) return false;
          pending.reset();
          if (!into_acc && count > 0) {
            smpi::apply_op(op, dtype, acc.data(), scratch.data(), count);
          }
          ++pc;
          break;
        }
      }
    }
    return true;
  }

};

void NbScriptDeleter::operator()(NbScript* s) const { delete s; }

// ---------------------------------------------------------------------------
// Context pieces that need NbScript's definition.
// ---------------------------------------------------------------------------

RequestHandle Context::submit_nb_barrier() {
  auto req = std::make_shared<RequestImpl>();
  CommTask* t = allocate_task();
  t->kind = CommKind::kNbBarrier;
  t->request = req;
  t->finish = nullptr;
  // Linked like p2p requests so a deadlined finalize barrier is cancellable
  // (Space::finalize timeout; see the kCancel nb path below).
  req->task.store(t, std::memory_order_release);
  req->task_gen.store(t->gen.load(std::memory_order_acquire),
                      std::memory_order_release);
  submit(t);
  return req;
}

RequestHandle Context::submit_nb_allreduce(const void* in, void* out,
                                           std::size_t count, Datatype dt,
                                           Op op) {
  auto req = std::make_shared<RequestImpl>();
  CommTask* t = allocate_task();
  t->kind = CommKind::kNbAllreduce;
  t->coll_in = in;
  t->coll_out = out;
  t->count = count;
  t->dtype = dt;
  t->op = op;
  t->request = req;
  t->finish = nullptr;
  req->task.store(t, std::memory_order_release);
  req->task_gen.store(t->gen.load(std::memory_order_acquire),
                      std::memory_order_release);
  submit(t);
  return req;
}

void Context::comm_worker_main() {
  hc::Worker* self = runtime_->register_producer();
  self->set_trace_name("comm-worker");
  prof::rename_thread("comm-worker");
  // hc-check: flags this thread so blocking HCMPI calls issued from comm
  // tasks (kExec closures, pollers) are rejected as guaranteed deadlocks.
  hc::check::enter_comm_worker();

  std::vector<CommTask*> active;        // ACTIVE irecvs being polled
  std::deque<CommTask*> coll_queue;     // FIFO of collectives
  bool shutting_down = false;
  std::uint64_t stall_since_ns = 0;     // hc-fault watchdog arm time

  auto complete_p2p = [&](CommTask* t) {
    Status st;
    comm_.test(t->sreq, &st);
    comm_counters_.p2p_completions.fetch_add(1, std::memory_order_relaxed);
    complete_task(t, st);
  };

  // Deadline expiry (RequestImpl::set_timeout): unhook the posted receive
  // and complete the request with kTimeout so waiters never hang. The
  // raise policy additionally throws RequestTimeout into the enclosing
  // finish, turning the lost message into a structured failure.
  auto expire_p2p = [&](CommTask* t) {
    if (!comm_.cancel(t->sreq)) {
      complete_p2p(t);  // completed just under the deadline — not a timeout
      return;
    }
    support::MetricsRegistry::global().counter("request.timeout.count").add();
    self->trace_ring().record(support::trace::Ev::kRequestTimeout, t->slot_id,
                              t->gen.load(std::memory_order_relaxed));
    if (t->request &&
        t->request->raise_on_timeout.load(std::memory_order_relaxed) &&
        t->finish != nullptr) {
      t->finish->capture_exception(std::make_exception_ptr(
          RequestTimeout(t->kind, t->peer, t->tag)));
    }
    Status st;
    st.source = t->peer;
    st.tag = t->tag;
    st.error = smpi::ErrorCode::kTimeout;
    complete_task(t, st);
  };

  // Stall diagnostics: outstanding comm tasks with their states, the tail of
  // every worker's trace ring, and whatever subsystems registered with the
  // fault diagnostics registry (the DDDF space's table).
  auto watchdog_fire = [&](std::uint64_t stall_ns) {
    support::MetricsRegistry::global().counter("watchdog.fired").add();
    self->trace_ring().record(
        support::trace::Ev::kWatchdogFired,
        std::uint32_t(active.size() + coll_queue.size()), stall_ns);
    std::FILE* f = stderr;
    std::fprintf(f,
                 "\n== hcmpi watchdog: rank %d saw no comm-task lifecycle "
                 "transition for %.1f ms with work outstanding ==\n",
                 rank(), double(stall_ns) / 1e6);
    auto dump_task = [&](const CommTask* t) {
      std::fprintf(f,
                   "    slot=%u gen=%llu %s peer=%d tag=%d bytes=%zu "
                   "state=%d\n",
                   t->slot_id,
                   (unsigned long long)t->gen.load(std::memory_order_relaxed),
                   kind_name(t->kind), t->peer, t->tag, t->bytes,
                   int(t->state.load(std::memory_order_relaxed)));
    };
    std::fprintf(f, "  ACTIVE p2p tasks (%zu):\n", active.size());
    for (const CommTask* t : active) dump_task(t);
    std::fprintf(f, "  queued collectives (%zu):\n", coll_queue.size());
    for (const CommTask* t : coll_queue) dump_task(t);
    for (int i = 0; i < runtime_->total_slots(); ++i) {
      hc::Worker* w = runtime_->slot(i);
      if (w == nullptr) continue;
      auto evs = w->trace_ring().snapshot();
      std::size_t tail = evs.size() < 6 ? evs.size() : 6;
      std::fprintf(f, "  worker slot %d ring tail (%zu of %zu events):\n", i,
                   tail, evs.size());
      for (std::size_t k = evs.size() - tail; k < evs.size(); ++k) {
        std::fprintf(f, "    t=%lluns %s a=%u b=%llu\n",
                     (unsigned long long)evs[k].ts_ns,
                     support::trace::ev_name(evs[k].kind), evs[k].a,
                     (unsigned long long)evs[k].b);
      }
    }
    fault::dump_diagnostics(f);
    std::fprintf(f, "== end hcmpi watchdog dump ==\n");
  };

  // The PRESCRIBED -> ACTIVE transition of Fig. 10: timestamped and
  // ring-recorded on the communication worker, which drives it.
  auto mark_active = [&](CommTask* t) {
    if (support::trace::enabled() || prof::telemetry()) {
      t->ts_active = support::trace::now_ns();
      self->trace_ring().record(support::trace::Ev::kCommActive, t->slot_id,
                                t->gen.load(std::memory_order_relaxed));
    }
    transition(*t, CommTaskState::kActive);
  };

  // Profiler state register: the whole progress loop is "comm progress".
  // Re-armed lazily so profiling enabled after thread start still attributes
  // this thread (one relaxed load per iteration until then).
  bool prof_bound = false;

  // Socket wire: this thread reads and writes the fabric from here on, and
  // hands reading back to the fabric's IO thread around blocking calls.
  comm_.drive(true);

  for (;;) {
    if (!prof_bound && prof::enabled()) {
      prof::enter_state(prof::State::kCommProgress);
      prof_bound = true;
    }
    bool progress = false;
    comm_counters_.loop_iterations.fetch_add(1, std::memory_order_relaxed);

    // 1. Drain the worklist.
    CommTask* t = nullptr;
    while (worklist_.pop(t)) {
      progress = true;
      // hc-check submit -> receive edge: from here on, everything this
      // worker does (including the completion put) is ordered after the
      // submitter's history.
      hc::check::on_comm_receive(t);
      switch (t->kind) {
        case CommKind::kShutdown:
          shutting_down = true;
          release_task(t);
          break;
        case CommKind::kIsend: {
          mark_active(t);
          t->sreq = comm_.isend(t->send_buf, t->bytes, t->peer, t->tag);
          complete_p2p(t);  // eager substrate: sends complete immediately
          break;
        }
        case CommKind::kIrecv: {
          mark_active(t);
          t->sreq = comm_.irecv(t->recv_buf, t->bytes, t->peer, t->tag);
          if (t->sreq->done()) {
            complete_p2p(t);
          } else {
            active.push_back(t);
          }
          break;
        }
        case CommKind::kCancel: {
          CommTask* target = t->target;
          // The generation check makes a stale handle harmless: a recycled
          // slot has a bumped generation and is left alone.
          if (target != nullptr &&
              target->gen.load(std::memory_order_acquire) == t->target_gen &&
              target->state.load(std::memory_order_acquire) ==
                  CommTaskState::kActive) {
            if (target->kind == CommKind::kIrecv) {
              if (comm_.cancel(target->sreq)) {
                std::erase(active, target);
                Status st;
                st.cancelled = true;
                st.error = smpi::ErrorCode::kCancelled;
                complete_task(target, st);
              }
            } else if (target->kind == CommKind::kNbBarrier ||
                       target->kind == CommKind::kNbAllreduce) {
              // A deadlined finalize barrier must be removable from the
              // collective queue, or the shutdown drain below waits on the
              // stuck script forever.
              auto it =
                  std::find(coll_queue.begin(), coll_queue.end(), target);
              if (it != coll_queue.end()) {
                if (target->script && target->script->pending) {
                  comm_.cancel(target->script->pending);
                }
                coll_queue.erase(it);
                Status st;
                st.cancelled = true;
                st.error = smpi::ErrorCode::kCancelled;
                complete_task(target, st);
              }
            }
          }
          release_task(t);
          break;
        }
        case CommKind::kExec: {
          mark_active(t);
          t->exec(sys_comm_);
          Status st;
          complete_task(t, st);
          break;
        }
        default:
          // Collectives: ordered FIFO execution.
          mark_active(t);
          coll_queue.push_back(t);
          break;
      }
    }

    // The sends just issued leave together, and arrived frames are read and
    // delivered before the requests are polled.
    comm_.progress();

    // 2. Poll ACTIVE point-to-point requests (the paper's MPI_Test loop),
    // expiring any whose deadline has passed.
    for (std::size_t i = 0; i < active.size();) {
      comm_counters_.p2p_polls.fetch_add(1, std::memory_order_relaxed);
      CommTask* t2 = active[i];
      if (t2->sreq->done()) {
        active[i] = active.back();
        active.pop_back();
        complete_p2p(t2);
        progress = true;
        continue;
      }
      std::uint64_t dl =
          t2->request != nullptr
              ? t2->request->deadline_ns.load(std::memory_order_acquire)
              : 0;
      if (dl != 0 && support::trace::now_ns() >= dl) {
        active[i] = active.back();
        active.pop_back();
        expire_p2p(t2);
        progress = true;
        continue;
      }
      ++i;
    }

    // 3. Progress the head collective.
    if (!coll_queue.empty()) {
      CommTask* head = coll_queue.front();
      bool finished = false;
      switch (head->kind) {
        case CommKind::kNbBarrier:
          if (!head->script) head->script.reset(NbScript::barrier(sys_comm_));
          comm_counters_.coll_script_steps.fetch_add(
              1, std::memory_order_relaxed);
          finished = head->script->step(sys_comm_);
          break;
        case CommKind::kNbAllreduce:
          if (!head->script) {
            head->script.reset(NbScript::allreduce(sys_comm_, head->coll_in,
                                                   head->count, head->dtype,
                                                   head->op));
          }
          comm_counters_.coll_script_steps.fetch_add(
              1, std::memory_order_relaxed);
          finished = head->script->step(sys_comm_);
          if (finished && head->coll_out != nullptr &&
              !head->script->acc.empty()) {
            std::memcpy(head->coll_out, head->script->acc.data(),
                        head->script->acc.size());
          }
          break;
        case CommKind::kBarrier:
          comm_.barrier();  // paper: the worker blocks for collective calls
          finished = true;
          break;
        case CommKind::kBcast:
          comm_.bcast(head->coll_out, head->bytes, head->root);
          finished = true;
          break;
        case CommKind::kReduce:
          comm_.reduce(head->coll_in, head->coll_out, head->count,
                       head->dtype, head->op, head->root);
          finished = true;
          break;
        case CommKind::kAllreduce:
          comm_.allreduce(head->coll_in, head->coll_out, head->count,
                          head->dtype, head->op);
          finished = true;
          break;
        case CommKind::kScan:
          comm_.scan(head->coll_in, head->coll_out, head->count, head->dtype,
                     head->op);
          finished = true;
          break;
        case CommKind::kGather:
          comm_.gather(head->coll_in, head->bytes, head->coll_out,
                       head->root);
          finished = true;
          break;
        case CommKind::kScatter:
          comm_.scatter(head->coll_in, head->bytes, head->coll_out,
                        head->root);
          finished = true;
          break;
        default:
          finished = true;  // unreachable
          break;
      }
      if (finished) {
        coll_queue.pop_front();
        comm_counters_.collectives.fetch_add(1, std::memory_order_relaxed);
        Status st;
        complete_task(head, st);
        progress = true;
      }
    }

    // 4. DDDF / user poller.
    if (poller_set_.load(std::memory_order_acquire) && poller_(sys_comm_)) {
      progress = true;
    }

    // 5. Stall watchdog (hc-fault): tasks outstanding but nothing moved for
    // the configured window — dump diagnostics and rearm. One relaxed load
    // when the watchdog is off.
    std::uint64_t wd = fault::watchdog_ns();
    if (wd != 0) {
      if (progress || (active.empty() && coll_queue.empty())) {
        stall_since_ns = 0;
      } else {
        std::uint64_t now = support::trace::now_ns();
        if (stall_since_ns == 0) {
          stall_since_ns = now;
        } else if (now - stall_since_ns >= wd) {
          watchdog_fire(now - stall_since_ns);
          stall_since_ns = now;  // rearm for the next window
        }
      }
    }

    if (shutting_down && active.empty() && coll_queue.empty() &&
        worklist_.empty_approx()) {
      break;
    }
    if (!progress) std::this_thread::yield();
  }

  // Teardown: cancel anything still pending so no slot leaks in ACTIVE
  // state (cancelled status is observable on the requests).
  for (CommTask* t : active) {
    if (comm_.cancel(t->sreq)) {
      Status st;
      st.cancelled = true;
      st.error = smpi::ErrorCode::kCancelled;
      complete_task(t, st);
    } else {
      complete_p2p(t);
    }
  }
  comm_.drive(false);
  prof::unregister_thread();
}

}  // namespace hcmpi
