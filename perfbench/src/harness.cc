#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "dddf/space.h"
#include "smpi/world.h"
#include "support/stats.h"

namespace pb {

// --- Samples -----------------------------------------------------------------

Samples::Samples(std::size_t cap) : cap_(cap) { kept_.reserve(cap); }

void Samples::add(double x) {
  ++seen_;
  if (kept_.size() < cap_) {
    kept_.push_back(float(x));
    return;
  }
  // Replace a kept value with probability cap / seen.
  const std::uint64_t j = rng_.next() % seen_;
  if (j < cap_) kept_[std::size_t(j)] = float(x);
}

double Samples::percentile(double p) const {
  support::Percentiles sel;
  sel.reserve(kept_.size());
  for (float x : kept_) sel.add(double(x));
  return sel.percentile(p);
}

void Samples::merge(const Samples& other) {
  const std::uint64_t seen = seen_ + other.seen_;
  if (kept_.size() + other.kept_.size() <= cap_) {
    kept_.insert(kept_.end(), other.kept_.begin(), other.kept_.end());
  } else {
    // Each side fills the share of the reservoir that its offered values
    // are of all offered values, with a uniform draw from what it kept.
    auto draw = [this](std::vector<float>& v, std::size_t k) {
      for (std::size_t i = 0; i < k; ++i) {
        std::swap(v[i], v[i + std::size_t(rng_.next() % (v.size() - i))]);
      }
      v.resize(k);
    };
    std::vector<float> theirs = other.kept_;
    const std::size_t n_theirs = std::min(
        theirs.size(), std::size_t(double(cap_) * double(other.seen_) / double(seen) + 0.5));
    draw(theirs, n_theirs);
    draw(kept_, std::min(kept_.size(), cap_ - n_theirs));
    kept_.insert(kept_.end(), theirs.begin(), theirs.end());
  }
  seen_ = seen;
}

// --- spans -------------------------------------------------------------------

namespace spans {
namespace {

// Bounds memory and the size of the written file (~100 bytes a span).
constexpr std::size_t kPerThread = 1u << 16;

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_mu;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

std::vector<Span>& local_buffer() {
  thread_local std::vector<Span>* buf = [] {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(kPerThread);
    std::vector<Span>* raw = owned.get();
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

}  // namespace

bool enabled() { return g_on.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_on.store(on, std::memory_order_relaxed); }

void record(const char* name, int rank, std::uint64_t op, std::uint64_t t0,
            std::uint64_t t1) {
  if (!enabled()) return;
  std::vector<Span>& buf = local_buffer();
  if (buf.size() >= kPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.push_back(Span{name, op, t0, t1, rank});
}

std::uint64_t recorded() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->size();
  return n;
}

std::uint64_t dropped() { return g_dropped.load(); }

bool write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(g_mu);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  std::uint64_t base = ~std::uint64_t(0);
  for (const auto& b : g_buffers) {
    for (const Span& s : *b) base = std::min(base, s.t0);
  }
  for (std::size_t tid = 0; tid < g_buffers.size(); ++tid) {
    for (const Span& s : *g_buffers[tid]) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                   first ? "" : ",\n", s.name, s.rank, tid,
                   double(s.t0 - base) / 1e3, double(s.t1 - s.t0) / 1e3,
                   (unsigned long long)s.op);
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%llu}}\n",
               (unsigned long long)dropped());
  return std::fclose(f) == 0;
}

}  // namespace spans

// --- Tally -------------------------------------------------------------------

void Tally::fail(const std::string& why) {
  attempted_.fetch_add(1);
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lk(mu_);
  if (reasons_.size() < 8) reasons_.push_back(why);
}

void Tally::expect_eq(double got, double want, const char* what) {
  if (got == want) {
    attempted_.fetch_add(1);
    return;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: got %.17g, expected %.17g", what, got, want);
  fail(buf);
}

void Tally::add(const Checks& c, const char* where) {
  attempted_.fetch_add(c.ops);
  if (c.bad == 0) return;
  failed_.fetch_add(c.bad);
  std::lock_guard<std::mutex> lk(mu_);
  if (reasons_.size() < 8) {
    reasons_.push_back(std::string(where) + ": " + c.first + " (" + std::to_string(c.bad) +
                       " of " + std::to_string(c.ops) + " checks)");
  }
}

std::vector<std::string> Tally::reasons() const {
  std::lock_guard<std::mutex> lk(mu_);
  return reasons_;
}

// --- counters ----------------------------------------------------------------

namespace {
Counts read_counters(const support::MetricsRegistry& reg,
                     const std::vector<std::string>& names) {
  Counts c;
  for (const std::string& n : names) c[n] = double(reg.counter_value(n));
  return c;
}
}  // namespace

Counts minus(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    d[k] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

double count_of(const Counts& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

namespace {
const std::vector<std::string> kRankNames = {
    "hc.tasks_executed",        "hc.steals",
    "hc.steal_attempts",        "hc.failed_steal_rounds",
    "hc.task_pool.freelist_hits", "hc.task_pool.freelist_misses",
    "hcmpi.comm_tasks_submitted", "hcmpi.comm_tasks_recycled",
    "hcmpi.poll_loop_iterations", "hcmpi.p2p_polls",
    "hcmpi.p2p_completions",
};
const std::vector<std::string> kGlobalNames = {
    "smpi.messages_delivered", "net.frames.sent",       "net.bytes.sent",
    "net.retransmits",         "net.sendq.would_block", "dddf.bytes_sent",
};
}  // namespace

Counts rank_counters(const hcmpi::Context& ctx) {
  support::MetricsRegistry reg;
  ctx.export_metrics(reg);
  const_cast<hcmpi::Context&>(ctx).runtime().export_metrics(reg);
  return read_counters(reg, kRankNames);
}

Counts global_counters() {
  return read_counters(support::MetricsRegistry::global(), kGlobalNames);
}

// --- job runner --------------------------------------------------------------

KeepAwake::KeepAwake() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    threads_.emplace_back([this, c] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      sched_param sp{};
      if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) != 0 ||
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp) != 0) {
        return;  // at normal priority it would compete with the workers
      }
      while (!stop_.load(std::memory_order_relaxed)) std::this_thread::yield();
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

SetupSplit run_job(bool space_probe, const RankBody& body) {
  SetupSplit split;
  const std::uint64_t t0 = now_ns();
  smpi::World world(kRanks);
  const std::uint64_t t1 = now_ns();
  spans::record("smpi.World", 0, 0, t0, t1);
  std::atomic<std::uint64_t> t2{0}, t3{0};
  std::exception_ptr first_error;
  std::mutex err_mu;
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < kRanks; ++r) {
      threads.emplace_back([&, r] {
        try {
          const std::uint64_t c0 = now_ns();
          hcmpi::Context ctx(world.comm(r), {.num_workers = 1});
          spans::record("hcmpi.Context", r, 0, c0, now_ns());
          ctx.barrier();
          if (r == 0) t2.store(now_ns());
          if (space_probe) {
            const std::uint64_t s0 = now_ns();
            dddf::Space space(ctx, {
                .home = [](dddf::Guid g) { return int(g % kRanks); },
                .size = [](dddf::Guid) { return std::size_t(64); },
            });
            spans::record("dddf.Space", r, 0, s0, now_ns());
            ctx.barrier();
            if (r == 0) t3.store(now_ns());
            ctx.run([&] { space.finalize(); });
          }
          if (body) body(ctx);
        } catch (...) {
          std::lock_guard<std::mutex> lk(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  }
  world.net_shutdown(bool(first_error));
  if (first_error) std::rethrow_exception(first_error);
  split.world_ms = double(t1 - t0) / 1e6;
  split.context_ms = double(t2.load() - t1) / 1e6;
  if (space_probe) split.space_ms = double(t3.load() - t2.load()) / 1e6;
  return split;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

}  // namespace pb
