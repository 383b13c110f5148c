// Shared plumbing of the perfbench binary: the clock, bounded sample sets,
// the span log of the traced run, failure accounting, metric maps, and the
// 2-rank job runner that times World / Context / Space construction.
//
// Every layer is measured from outside: the workloads time their own calls
// into the library's public API and take deltas of the counters the library
// exports to support::MetricsRegistry. Nothing here reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hcmpi/context.h"
#include "support/metrics.h"
#include "support/rng.h"

namespace pb {

// Monotonic nanoseconds on the process-wide steady clock. Ranks are threads
// of one process, so timestamps taken on different ranks are comparable.
inline std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

// A sample set of bounded memory: up to `cap` values are kept, later ones
// replace kept ones uniformly at random (reservoir sampling with a fixed
// seed). The buffer is reserved, not written, up front, so a set costs
// resident memory only for the values it holds (at most 64 KB by default),
// and the benchmark's share of peak_rss_mb does not grow with speed.
class Samples {
 public:
  explicit Samples(std::size_t cap = std::size_t(1) << 14);
  void add(double x);
  // Values offered, including those the reservoir did not keep.
  std::uint64_t count() const { return seen_; }
  // p in [0, 100], linear interpolation between closest ranks; 0 when empty.
  double percentile(double p) const;
  void merge(const Samples& other);

 private:
  std::size_t cap_;
  std::vector<float> kept_;
  std::uint64_t seen_ = 0;
  support::XorShift64 rng_{0x9E3779B97F4A7C15ull};
};

// Spans recorded around the benchmark's calls into each layer. Off by
// default; the traced run switches them on. Each thread appends to its own
// buffer (bounded; overflow is counted, not stored), and the buffers are
// written out once the run ends.
struct Span {
  const char* name;   // layer call, e.g. "hcmpi.isend"
  std::uint64_t op;   // operation id shared by the spans of one operation
  std::uint64_t t0;   // now_ns() at entry
  std::uint64_t t1;   // now_ns() at exit
  int rank;
};

namespace spans {
bool enabled();
void set_enabled(bool on);
void record(const char* name, int rank, std::uint64_t op, std::uint64_t t0,
            std::uint64_t t1);
std::uint64_t recorded();
std::uint64_t dropped();
// Writes every buffered span as Chrome trace-event JSON ("X" events, one
// pid per rank, args.op = operation id); false on I/O failure.
bool write(const std::string& path);
}  // namespace spans

// RAII span: records [construction, destruction) when spans are enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int rank, std::uint64_t op)
      : name_(name), rank_(rank), op_(op), t0_(spans::enabled() ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (t0_ != 0) spans::record(name_, rank_, op_, t0_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int rank_;
  std::uint64_t op_;
  std::uint64_t t0_;
};

// The checks one rank makes during a measured phase, counted in plain locals
// so the phase pays no shared atomic and builds no message; the Tally absorbs
// them once the phase ends.
struct Checks {
  std::uint64_t ops = 0;
  std::uint64_t bad = 0;
  const char* first = nullptr;  // the first failed check
  void check(bool good, const char* why) {
    ++ops;
    if (!good && bad++ == 0) first = why;
  }
};

// Attempted / failed operations of a run. A failed op is a request error, a
// timeout or a verification mismatch; the first few reasons are kept.
class Tally {
 public:
  void fail(const std::string& why);
  // Counts one attempted op, failed unless `good`.
  void check(bool good, const char* why) {
    if (good) attempted_.fetch_add(1); else fail(why);
  }
  // Counts one attempted op, failed unless got == want; the reason, with
  // both values, is built only on failure.
  void expect_eq(double got, double want, const char* what);
  // Adds a phase's checks; `where` names the phase in the failure reason.
  void add(const Checks& c, const char* where);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> reasons() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Library counters by name, read from a metrics registry.
using Counts = std::map<std::string, double>;
Counts minus(const Counts& after, const Counts& before);
// The named count, 0 when absent.
double count_of(const Counts& c, const std::string& name);
// Exports the rank's Runtime ("hc.*") and Context ("hcmpi.*") counters into
// a fresh registry and reads them: the per-phase snapshot of one rank.
Counts rank_counters(const hcmpi::Context& ctx);
// The global registry's live counters (smpi, net) and teardown exports
// (dddf, and hc/hcmpi once a Context is destroyed).
Counts global_counters();

// Ranks per job (one process, one thread per rank).
inline constexpr int kRanks = 2;

struct SetupSplit {
  double world_ms = 0;    // World constructor
  double context_ms = 0;  // rank threads up, Context built, first barrier
  double space_ms = 0;    // dddf::Space built, barrier (0 when not probed)
  double total_s() const { return (world_ms + context_ms + space_ms) / 1e3; }
};

using RankBody = std::function<void(hcmpi::Context&)>;

// Builds a kRanks-rank World and one Context (one computation worker) per
// rank, plus a dddf::Space when `space_probe` is set, timing each up to the
// barrier that follows it; then runs `body` (when non-null) on every rank,
// tears everything down and rethrows the first rank exception.
SetupSplit run_job(bool space_probe, const RankBody& body);

// Keeps every CPU the process may use from going idle while it lives: one
// thread per CPU, pinned to it, at SCHED_IDLE priority, yielding in a loop.
// On a virtual machine whose idle CPUs halt, waking a thread onto a halted
// CPU waits until the hypervisor runs that CPU again, which on a shared host
// takes milliseconds that depend on the other tenants; the workers park and
// wake all the time, so without this the figures follow the host. A
// SCHED_IDLE thread runs only when nothing else on its CPU can, and yields
// at once, so the benchmark's own threads lose next to nothing to it.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Peak resident set of this process, in MB.
double peak_rss_mb();

}  // namespace pb
