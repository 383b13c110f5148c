// sw_dddf: tiled Smith-Waterman over dddf::Space with the MpiTransport, as in
// examples/smithwaterman_dddf.cpp. Tile (r, c) publishes three DDDFs (bottom
// row, right column, corner) homed on rank (r * tiles_w + c) % kRanks; each
// tile is a data-driven task awaiting its neighbours' boundaries. Tiles are
// small, so the DDDF protocol (REGISTER/DATA, the remote cache, put at home)
// rather than the kernel dominates.
//
// One job solves the alignment repeatedly, each solve in a fresh Space, until
// its time is up. Each solve's time to solution is a latency sample, the
// job's rate is the matrix's cells over the median solve, and every score is
// checked against the serial reference, computed before the timed region.
#include <algorithm>
#include <cstring>

#include "apps/sw/sw.h"
#include "core/api.h"
#include "dddf/space.h"
#include "support/rng.h"
#include "workloads.h"

namespace pb {
namespace {

// Small enough that one solve takes a few milliseconds: the host's other
// tenants then stall a minority of solves, and the median solve is one they
// did not touch.
constexpr std::size_t kLen = 512;  // |A|; |B| = kLen + kLen / 8
constexpr std::size_t kTile = 32;

enum Kind : dddf::Guid { kBottom = 0, kRight = 1, kCorner = 2 };

dddf::Bytes encode(const std::vector<int>& v) {
  dddf::Bytes b(v.size() * sizeof(int));
  if (!b.empty()) std::memcpy(b.data(), v.data(), b.size());
  return b;
}

std::vector<int> decode(const dddf::Bytes& b, std::size_t n) {
  std::vector<int> v(b.size() / sizeof(int));
  if (!b.empty()) std::memcpy(v.data(), b.data(), v.size() * sizeof(int));
  v.resize(std::min(v.size(), n));
  return v;
}

struct RankStats {
  Samples dep_latency_us;
  Samples tile_us;
  Samples put_ns;
  double body_s = 0, kernel_s = 0;
  std::uint64_t remote_gets = 0, transfers = 0;
  Counts delta;
};

class SwWorkload final : public Workload {
 public:
  explicit SwWorkload(std::uint64_t seed)
      : a_(sw::random_seq(kLen, support::SplitMix64::mix(seed * 2 + 1))),
        b_(sw::random_seq(kLen + kLen / 8, support::SplitMix64::mix(seed * 2 + 2))),
        th_((a_.size() + kTile - 1) / kTile),
        tw_((b_.size() + kTile - 1) / kTile),
        expected_(sw::best_score_serial(params_, a_, b_)),
        put_ts_(3 * th_ * tw_) {}

  std::map<std::string, std::string> inputs() const override {
    return {{"len_a", std::to_string(a_.size())},
            {"len_b", std::to_string(b_.size())},
            {"tile", std::to_string(kTile)},
            {"tiles", std::to_string(th_ * tw_)},
            {"expected_score", std::to_string(expected_)}};
  }

  bool uses_space() const override { return true; }

  Measure measure(double seconds, bool traced, Tally& tally) override {
    RankStats stats[kRanks];
    double solve_s = 0;
    Samples solve_us, finalize_ms, finish_wait_ms;
    std::uint64_t solves = 0;
    const std::uint64_t budget = std::uint64_t(seconds * 1e9);
    const Counts g_before = global_counters();

    run_job(true, [&](hcmpi::Context& ctx) {
      const int me = ctx.rank();
      RankStats& rs = stats[me];
      const Counts before = rank_counters(ctx);
      const std::uint64_t start = now_ns();
      for (int solve = 0;; ++solve) {
        std::atomic<int> best{0};
        std::uint64_t t0 = 0, t1 = 0, fin0 = 0, body_end = 0, fin_end = 0;
        {
          dddf::Space space(ctx, {
              .home = [this](dddf::Guid g) { return home(tile_of(g)); },
              .size = [](dddf::Guid) { return kTile * sizeof(int) + 16; },
          });
          ctx.barrier();
          t0 = now_ns();
          ctx.run([&] {
            {
              ScopedSpan span("hc.finish", me, std::uint64_t(solve));
              hc::finish([&] {
                for (std::size_t r = 0; r < th_; ++r) {
                  for (std::size_t c = 0; c < tw_; ++c) {
                    if (home(r * tw_ + c) == me) spawn_tile(space, r, c, me, traced, rs, best);
                  }
                }
                body_end = now_ns();
              });
              fin_end = now_ns();
            }
            fin0 = now_ns();
            space.finalize();
            const std::uint64_t fin1 = now_ns();
            if (traced) spans::record("dddf.finalize", me, std::uint64_t(solve), fin0, fin1);
            if (me == 0) finalize_ms.add(double(fin1 - fin0) / 1e6);
          });
          ctx.barrier();
          t1 = now_ns();
          rs.remote_gets += space.remote_gets_issued();
          rs.transfers += space.data_messages_sent();
        }
        long in[2] = {best.load(), me == 0 && now_ns() - start >= budget ? 1 : 0};
        long res[2] = {0, 0};
        ctx.allreduce(in, res, 2, hcmpi::Datatype::kLong, hcmpi::Op::kMax);
        if (me == 0) {
          solve_s += double(t1 - t0) / 1e9;
          solve_us.add(double(t1 - t0) / 1e3);
          finish_wait_ms.add(double(fin_end - body_end) / 1e6);
          ++solves;
          tally.expect_eq(double(res[0]), double(expected_),
                          "sw: score vs best_score_serial");
        }
        if (res[1] != 0) break;
      }
      ctx.barrier();
      rs.delta = minus(rank_counters(ctx), before);
    });
    const Counts g = minus(global_counters(), g_before);

    Measure m;
    m.items_per_s = double(a_.size() * b_.size()) / (solve_us.percentile(50) / 1e6);
    m.latency_us = solve_us;
    const double gets = double(stats[0].remote_gets + stats[1].remote_gets);
    const double transfers = double(stats[0].transfers + stats[1].transfers);
    // At-most-once transfer: every remote guid a rank awaited crossed the
    // wire exactly once.
    tally.check(gets > 0, "dddf: no remote guid awaited");
    tally.expect_eq(transfers, gets, "dddf: transfers vs remote guids awaited");
    // REGISTER and DATA messages, plus the one point-to-point message each
    // rank sends in every Space::finalize barrier (the set-up probe's too).
    m.expected_msgs = gets + transfers + double(kRanks * (solves + 1));
    if (!traced) return m;

    Metrics& L = m.layer;
    Counts d = stats[0].delta;
    for (const auto& [k, v] : stats[1].delta) d[k] += v;
    core_layer(d, L);
    const double worker_s = solve_s * kRanks;
    L["core.busy_ratio"] = {(stats[0].body_s + stats[1].body_s) / worker_s, "ratio"};
    L["core.finish_wait_ms"] = {finish_wait_ms.percentile(50), "ms"};
    hcmpi_layer(d, gets + transfers, L);
    Samples dep, tile, put;
    for (auto& s : stats) {
      dep.merge(s.dep_latency_us);
      tile.merge(s.tile_us);
      put.merge(s.put_ns);
    }
    L["dddf.remote_gets"] = {gets, "count"};
    L["dddf.transfers_per_remote_guid"] = {gets > 0 ? transfers / gets : 0, "ratio"};
    L["dddf.bytes_sent"] = {count_of(g, "dddf.bytes_sent"), "bytes"};
    L["dddf.put_call_ns"] = {put.percentile(50), "ns"};
    L["dddf.dep_latency_p50_us"] = {dep.percentile(50), "us"};
    L["dddf.dep_latency_p99_us"] = {dep.percentile(99), "us"};
    L["dddf.finalize_ms"] = {finalize_ms.percentile(50), "ms"};
    L["apps.sw_tile_us"] = {tile.percentile(50), "us"};
    L["apps.sw_kernel_share"] = {(stats[0].kernel_s + stats[1].kernel_s) / worker_s,
                                 "ratio"};
    L["apps.sw_tiles"] = {double(solves * th_ * tw_), "count"};
    return m;
  }

 private:
  static int home(std::size_t tile) { return int(tile % kRanks); }
  static std::size_t tile_of(dddf::Guid g) { return std::size_t(g / 3); }
  dddf::Guid guid(std::size_t r, std::size_t c, Kind k) const {
    return (dddf::Guid(r) * tw_ + c) * 3 + k;
  }

  void spawn_tile(dddf::Space& space, std::size_t r, std::size_t c, int me,
                  bool traced, RankStats& rs, std::atomic<int>& best) {
    std::vector<dddf::Guid> deps;
    if (r > 0) deps.push_back(guid(r - 1, c, kBottom));
    if (c > 0) deps.push_back(guid(r, c - 1, kRight));
    if (r > 0 && c > 0) deps.push_back(guid(r - 1, c - 1, kCorner));
    space.async_await(deps, [&, r, c, me, traced, deps] {
      // Runs on the rank's single computation worker, so rs needs no lock.
      const std::uint64_t start = now_ns();
      const std::uint64_t op = r * tw_ + c;
      if (traced && !deps.empty()) {
        std::uint64_t last = 0;
        for (dddf::Guid g : deps) last = std::max(last, put_ts_[g].load());
        rs.dep_latency_us.add(double(start - std::min(start, last)) / 1e3);
      }
      const std::size_t i0 = r * kTile, i1 = std::min(a_.size(), i0 + kTile);
      const std::size_t j0 = c * kTile, j1 = std::min(b_.size(), j0 + kTile);
      std::string_view ta(a_.data() + i0, i1 - i0);
      std::string_view tb(b_.data() + j0, j1 - j0);
      std::vector<int> top = r > 0 ? decode(space.get(guid(r - 1, c, kBottom)), tb.size())
                                   : std::vector<int>(tb.size(), 0);
      std::vector<int> left = c > 0 ? decode(space.get(guid(r, c - 1, kRight)), ta.size())
                                    : std::vector<int>(ta.size(), 0);
      int corner = r > 0 && c > 0 ? space.get_value<int>(guid(r - 1, c - 1, kCorner)) : 0;
      const std::uint64_t k0 = now_ns();
      sw::TileBoundary res = sw::compute_tile(params_, ta, tb, top, left, corner);
      const std::uint64_t k1 = now_ns();
      int seen = best.load(std::memory_order_relaxed);
      while (res.best > seen && !best.compare_exchange_weak(seen, res.best)) {
      }
      put(space, guid(r, c, kBottom), encode(res.bottom), traced, rs, me, op);
      put(space, guid(r, c, kRight), encode(res.right), traced, rs, me, op);
      dddf::Bytes cb(sizeof(int));
      std::memcpy(cb.data(), &res.corner, sizeof(int));
      put(space, guid(r, c, kCorner), std::move(cb), traced, rs, me, op);
      if (traced) {
        const std::uint64_t end = now_ns();
        rs.tile_us.add(double(k1 - k0) / 1e3);
        rs.kernel_s += double(k1 - k0) / 1e9;
        rs.body_s += double(end - start) / 1e9;
        spans::record("sw.tile", me, op, start, end);
        spans::record("apps.compute_tile", me, op, k0, k1);
      }
    });
  }

  void put(dddf::Space& space, dddf::Guid g, dddf::Bytes data, bool traced,
           RankStats& rs, int me, std::uint64_t op) {
    if (!traced) {
      space.put(g, std::move(data));
      return;
    }
    const std::uint64_t t0 = now_ns();
    put_ts_[g].store(t0);
    space.put(g, std::move(data));
    const std::uint64_t t1 = now_ns();
    rs.put_ns.add(double(t1 - t0));
    spans::record("dddf.put", me, op, t0, t1);
  }

  const sw::Params params_;
  const std::string a_, b_;
  const std::size_t th_, tw_;
  const int expected_;
  // When each guid was last put in a traced job, on the shared steady
  // clock. A dependent task starts only after its inputs' puts of the same
  // solve, so it always reads that solve's stamps.
  std::vector<std::atomic<std::uint64_t>> put_ts_;
};

}  // namespace

std::unique_ptr<Workload> make_sw(std::uint64_t seed) {
  return std::make_unique<SwWorkload>(seed);
}

}  // namespace pb
