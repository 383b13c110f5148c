#include "smpi/world.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fault/fault.h"
#include "net/boot.h"
#include "net/fabric.h"
#include "smpi/comm.h"

namespace smpi {

namespace {

// Per-process World instance counter: distinguishes the UDS paths of Worlds
// created back-to-back in one process. Under hcmpi_launch every process
// creates its Worlds in the same order (SPMD), so the counters agree across
// the job and sibling fabrics rendezvous on the same paths.
std::atomic<int> g_job{0};

// Session directory for loopback fabrics when HCMPI_SESSION is not set: one
// mkdtemp per process, shared by all Worlds (the job counter disambiguates),
// and removed at exit if it is empty again — every Fabric unlinks its socket
// file when it stops. rmdir only, so it can never remove anything else.
struct SessionDir {
  std::string path = "/tmp";
  bool created = false;

  SessionDir() {
    const char* t = std::getenv("TMPDIR");
    std::string d = (t != nullptr && *t != '\0') ? t : "/tmp";
    d += "/hcmpi.XXXXXX";
    std::vector<char> buf(d.begin(), d.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) return;
    path = buf.data();
    created = true;
  }
  ~SessionDir() {
    if (created) ::rmdir(path.c_str());
  }
  SessionDir(const SessionDir&) = delete;
  SessionDir& operator=(const SessionDir&) = delete;
};

const std::string& default_session() {
  static const SessionDir dir;
  return dir.path;
}

}  // namespace

void encode_smpi(net::Bytes& out, int dst, const Envelope& env,
                 std::uint64_t ts_inject) {
  out.reserve(out.size() + kSmpiSubheaderBytes + env.payload.size());
  net::put_i32(out, dst);
  net::put_i32(out, env.source);
  net::put_i32(out, env.tag);
  net::put_u32(out, env.context);
  net::put_u64(out, ts_inject);
  out.insert(out.end(), env.payload.begin(), env.payload.end());
}

bool decode_smpi(net::Bytes&& payload, int world_size, int* dst,
                 Envelope* env) {
  net::ByteReader rd(payload);
  std::int32_t dst_w = 0, source = 0, tag = 0;
  std::uint32_t context = 0;
  std::uint64_t ts = 0;
  if (!rd.i32(&dst_w) || !rd.i32(&source) || !rd.i32(&tag) ||
      !rd.u32(&context) || !rd.u64(&ts)) {
    return false;
  }
  if (dst_w < 0 || dst_w >= world_size || source < 0 ||
      source >= world_size) {
    return false;
  }
  *dst = dst_w;
  env->source = source;
  env->tag = tag;
  env->context = context;
  env->ts_inject = ts;
  payload.erase(payload.begin(), payload.begin() + std::ptrdiff_t(rd.off));
  env->payload = std::move(payload);
  return true;
}

// The socket side of a World: the fabrics of the hosted procs [p_lo, p_hi)
// of an nprocs mesh with rpp ranks per proc (see world.h). A hosted proc
// with no ranks (more procs than ranks) still runs its fabric: goodbye and
// error propagation must reach it too.
struct World::Net {
  int rpp = 1;
  int p_lo = 0;
  int p_hi = 0;
  bool all_hosted = false;  // the whole mesh lives in this process
  std::vector<std::unique_ptr<net::Fabric>> fabrics;
  std::atomic<bool> shut{false};
  bool remote_error = false;

  Net(World& w, int n) {
    const net::ProcEnv& env = net::proc_env();
    net::FabricOptions o = env.fabric;
    if (o.session.empty()) o.session = default_session();
    o.job = g_job.fetch_add(1, std::memory_order_relaxed);
    if (env.launched) {
      p_lo = o.proc;
      p_hi = o.proc + 1;
    } else {
      o.nprocs = n;
      p_lo = 0;
      p_hi = n;
    }
    rpp = (n + o.nprocs - 1) / o.nprocs;
    all_hosted = p_lo == 0 && p_hi == o.nprocs;
    auto deliver = [&w](net::Frame&& f) { w.net_ingest(std::move(f)); };
    fabrics.reserve(std::size_t(p_hi - p_lo));
    for (int p = p_lo; p < p_hi; ++p) {
      o.proc = p;
      o.rank_base = first_rank(p, n);
      o.rank_count = first_rank(p + 1, n) - o.rank_base;
      fabrics.push_back(std::make_unique<net::Fabric>(o, deliver));
    }
  }

  int first_rank(int proc, int n) const { return std::min(n, proc * rpp); }
  int proc_of(int rank) const { return rank / rpp; }
  net::Fabric& fabric_for(int src_rank) {
    return *fabrics[std::size_t(proc_of(src_rank) - p_lo)];
  }
  // Is (src -> dst) a same-proc delivery (shared-memory fast path)?
  bool local(int src, int dst) const { return proc_of(src) == proc_of(dst); }
};

World::World(int nprocs) : link_(nprocs) {
  endpoints_.reserve(std::size_t(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    endpoints_.push_back(std::make_unique<Endpoint>(r));
  }
  if (net::mode() == net::Mode::kSocket && nprocs > 1) {
    net_ = std::make_unique<Net>(*this, nprocs);
  }
}

World::~World() {
  net_shutdown(false);  // backstop; run() already did this on the main path
}

Comm World::comm(int rank) { return Comm(*this, rank, /*context=*/0); }

int World::local_lo() const {
  return net_ ? net_->first_rank(net_->p_lo, size()) : 0;
}
int World::local_hi() const {
  return net_ ? net_->first_rank(net_->p_hi, size()) : size();
}

net::Fabric* World::net_fabric(int src_rank) {
  return net_ ? &net_->fabric_for(src_rank) : nullptr;
}

void World::net_ingest(net::Frame&& f) {
  // The fabric delivers kSmpi frames only (net::reliable).
  int dst = -1;
  Envelope env;
  if (!decode_smpi(std::move(f.payload), size(), &dst, &env)) return;
  endpoint(dst).deliver(std::move(env));
}

ErrorCode World::deliver(int src, int dst, Envelope&& env) {
  if (net_ && !net_->local(src, dst)) {
    // Remote: frame it onto the fabric. The fault plane hooks the fabric's
    // transmit point (real drops repaired by retransmission), so the only
    // checks here are fail-stop ones.
    if (fault::enabled() &&
        (fault::rank_dead(src) || fault::rank_dead(dst))) {
      return ErrorCode::kRankDead;
    }
    net::Frame f;
    f.kind = net::FrameKind::kSmpi;
    // Trace epochs differ across real processes; timestamps are comparable
    // end to end only when the whole mesh lives in this process.
    encode_smpi(f.payload, dst, env, net_->all_hosted ? env.ts_inject : 0);
    switch (net_->fabric_for(src).send(net_->proc_of(dst), f)) {
      case net::Fabric::SendResult::kOk:
        return ErrorCode::kOk;
      case net::Fabric::SendResult::kRefused:
        return ErrorCode::kConnRefused;
      case net::Fabric::SendResult::kWouldBlock:
        return ErrorCode::kWouldBlock;  // unreachable: send() parks
      case net::Fabric::SendResult::kPeerDead:
      case net::Fabric::SendResult::kClosed:
        return ErrorCode::kRankDead;
    }
    return ErrorCode::kRankDead;
  }

  // Local (thread mode, or co-located ranks in socket mode): the direct
  // endpoint call, over the faulty link when injection is armed.
  Endpoint& ep = endpoint(dst);
  if (!fault::enabled()) {
    ep.deliver(std::move(env));
    return ErrorCode::kOk;
  }
  env.wire_src = src;
  const bool sent = link_.send(src, dst, std::move(env),
                               [&ep](std::uint64_t seq, Envelope&& e) {
                                 e.wire_seq = seq;
                                 ep.deliver(std::move(e));
                               });
  return sent ? ErrorCode::kOk : ErrorCode::kRankDead;
}

bool World::net_shutdown(bool local_error) {
  if (!net_) return false;
  bool expected = false;
  if (!net_->shut.compare_exchange_strong(expected, true)) {
    return net_->remote_error;
  }
  // Hosted fabrics shut down CONCURRENTLY: each one's goodbye phase waits
  // on goodbyes from all the others. The first runs on this thread.
  std::atomic<bool> any{false};
  auto stop = [&any, local_error](net::Fabric& f) {
    if (f.shutdown(local_error)) any.store(true);
  };
  {
    std::vector<std::jthread> ts;
    ts.reserve(net_->fabrics.size() - 1);
    for (std::size_t i = 1; i < net_->fabrics.size(); ++i) {
      ts.emplace_back(stop, std::ref(*net_->fabrics[i]));
    }
    stop(*net_->fabrics[0]);
  }  // join
  const bool err = any.load();
  net_->remote_error = err;
  return err;
}

void World::run(int nprocs, const std::function<void(Comm&)>& body) {
  World world(nprocs);
  std::exception_ptr first_error;
  std::mutex err_mu;
  {
    std::vector<std::jthread> threads;
    threads.reserve(std::size_t(world.local_size()));
    for (int r = world.local_lo(); r < world.local_hi(); ++r) {
      threads.emplace_back([&world, &body, &first_error, &err_mu, r] {
        try {
          Comm comm = world.comm(r);
          body(comm);
        } catch (...) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  }  // join
  bool local_failed;
  {
    std::lock_guard<std::mutex> lk(err_mu);
    local_failed = bool(first_error);
  }
  const bool remote_failed = world.net_shutdown(local_failed);
  if (first_error) std::rethrow_exception(first_error);
  if (remote_failed) {
    throw std::runtime_error("smpi: a rank on another process failed");
  }
}

}  // namespace smpi
