// perfbench: the repository benchmark. One run = one workload, one seed,
// --seconds of measured work split into jobs, untraced (end-to-end metrics)
// or traced (per-layer metrics plus the tracing overhead). Usually driven by
// run.py, which builds this binary first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--source-id <id>]
//
// The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it holds the
// run metadata. The full report (metadata, every metric, failure reasons)
// goes to <out-dir>/<workload>-s<seed>-t<trace>.json; a traced run also
// writes its spans and the library's Chrome trace to
// <out-dir>/<workload>.spans.json and <workload>.trace.json.
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/boot.h"
#include "prof/prof.h"
#include "support/trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

void core_layer(const Counts& d, Metrics& m) {
  auto at = [&](const char* k) { return count_of(d, k); };
  const double attempts = at("hc.steal_attempts");
  const double allocs = at("hc.task_pool.freelist_hits") + at("hc.task_pool.freelist_misses");
  m["core.tasks"] = {at("hc.tasks_executed"), "count"};
  m["core.steal_attempts"] = {attempts, "count"};
  m["core.steals"] = {at("hc.steals"), "count"};
  m["core.steal_success_ratio"] = {attempts > 0 ? at("hc.steals") / attempts : 0, "ratio"};
  m["core.failed_steal_rounds"] = {at("hc.failed_steal_rounds"), "count"};
  m["core.task_pool_allocs"] = {allocs, "count"};
  m["core.task_pool_miss_ratio"] = {
      allocs > 0 ? at("hc.task_pool.freelist_misses") / allocs : 0, "ratio"};
}

void hcmpi_layer(const Counts& d, double msgs, Metrics& m) {
  auto at = [&](const char* k) { return count_of(d, k); };
  const double completions = at("hcmpi.p2p_completions");
  const double submitted = at("hcmpi.comm_tasks_submitted");
  m["hcmpi.p2p_completions"] = {completions, "count"};
  m["hcmpi.polls_per_completion"] = {
      completions > 0 ? at("hcmpi.p2p_polls") / completions : 0, "ratio"};
  m["hcmpi.msgs"] = {msgs, "count"};
  m["hcmpi.loop_iterations_per_msg"] = {
      msgs > 0 ? at("hcmpi.poll_loop_iterations") / msgs : 0, "ratio"};
  m["hcmpi.tasks_submitted"] = {submitted, "count"};
  m["hcmpi.recycle_ratio"] = {
      submitted > 0 ? at("hcmpi.comm_tasks_recycled") / submitted : 0, "ratio"};
}

namespace {

// Every per-layer metric a traced run prints, on every workload; a metric
// whose layer the workload does not use reads 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"core.tasks", "count"},
    {"core.steal_attempts", "count"},
    {"core.steals", "count"},
    {"core.steal_success_ratio", "ratio"},
    {"core.failed_steal_rounds", "count"},
    {"core.task_pool_allocs", "count"},
    {"core.task_pool_miss_ratio", "ratio"},
    {"core.busy_ratio", "ratio"},
    {"core.finish_wait_ms", "ms"},
    {"hcmpi.isend_call_ns", "ns"},
    {"hcmpi.waitall_us", "us"},
    {"hcmpi.rtt_p50_us", "us"},
    {"hcmpi.rtt_self_us", "us"},
    {"hcmpi.allreduce_p50_us", "us"},
    {"hcmpi.allreduce_self_us", "us"},
    {"hcmpi.p2p_completions", "count"},
    {"hcmpi.polls_per_completion", "ratio"},
    {"hcmpi.msgs", "count"},
    {"hcmpi.loop_iterations_per_msg", "ratio"},
    {"hcmpi.tasks_submitted", "count"},
    {"hcmpi.recycle_ratio", "ratio"},
    {"hcmpi.inject_to_wire_ns", "ns"},
    {"hcmpi.wire_to_completion_ns", "ns"},
    {"smpi.rtt_p50_us", "us"},
    {"smpi.allreduce_p50_us", "us"},
    {"smpi.messages_delivered", "count"},
    {"smpi.messages_expected", "count"},
    {"smpi.injection_to_delivery_ns", "ns"},
    {"net.frames", "count"},
    {"net.frames_per_msg", "ratio"},
    {"net.bytes_per_msg", "bytes"},
    {"net.retransmits", "count"},
    {"net.sendq_would_block", "count"},
    {"dddf.remote_gets", "count"},
    {"dddf.transfers_per_remote_guid", "ratio"},
    {"dddf.bytes_sent", "bytes"},
    {"dddf.put_call_ns", "ns"},
    {"dddf.dep_latency_p50_us", "us"},
    {"dddf.dep_latency_p99_us", "us"},
    {"dddf.finalize_ms", "ms"},
    {"apps.sw_tiles", "count"},
    {"apps.sw_tile_us", "us"},
    {"apps.sw_kernel_share", "ratio"},
    {"apps.uts_nodes", "count"},
    {"apps.uts_steal_requests", "count"},
    {"apps.uts_steal_success_ratio", "ratio"},
    {"apps.uts_steal_rtt_p50_us", "us"},
    {"setup.world_ms", "ms"},
    {"setup.context_ms", "ms"},
    {"setup.space_ms", "ms"},
    {"trace_overhead.items_per_s", "ratio"},
    {"trace_overhead.latency_p50_us", "ratio"},
    {"trace_overhead.latency_p90_us", "ratio"},
    {"latency.samples", "count"},
    {"error_rate", "fraction"},
    {"spans.recorded", "count"},
    {"spans.dropped", "count"},
};

// Untraced measurement is split into this many jobs, each with fresh ranks
// and threads, and each end-to-end figure is the median over the jobs: a
// neighbour's burst then moves a few of the values, not the result.
constexpr int kJobs = 60;
// Set-ups timed before each job. setup_s is the median of all of them, taken
// through the whole run, so a burst of host load at one moment cannot move
// it.
constexpr int kSetupsPerJob = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <hcmpi_comm_thread|"
               "hcmpi_comm_socket|uts_hcmpi|sw_dddf> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--source-id <id>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out-dir") a.out_dir = v;
      else if (k == "--source-id") a.source_id = v;
      else usage(("unknown flag " + k).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const Metrics& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) {
    if (o.size() > 1) o += ", ";
    o += json_str(k) + ": {\"value\": " + json_num(v.value) +
         ", \"unit\": " + json_str(v.unit) + "}";
  }
  return o + "}";
}

std::string json_map(const std::map<std::string, std::string>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) {
    if (o.size() > 1) o += ", ";
    o += json_str(k) + ": " + json_str(v);
  }
  return o + "}";
}

double hist_p50(const char* name) {
  return support::MetricsRegistry::global().histogram(name).percentile(50);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// The end-to-end figures of a run, or of its traced half.
struct Figures {
  double items_per_s = 0;
  double latency_p50_us = 0;
  double latency_p90_us = 0;
  std::uint64_t latency_samples = 0;
};

// kJobs untraced jobs sharing `seconds`, with the set-ups timed before each
// appended to `setups`; per-job figures go to `per_job`.
Figures measure_jobs(Workload& wl, double seconds, Tally& tally,
                     std::vector<SetupSplit>& setups,
                     std::map<std::string, std::string>& per_job) {
  std::vector<double> items, p50, p90;
  std::uint64_t samples = 0;
  for (int j = 0; j < kJobs; ++j) {
    for (int i = 0; i < kSetupsPerJob; ++i) {
      setups.push_back(run_job(wl.uses_space(), nullptr));
    }
    Measure m = wl.measure(seconds / kJobs, false, tally);
    items.push_back(m.items_per_s);
    p50.push_back(m.latency_us.percentile(50));
    p90.push_back(m.latency_us.percentile(90));
    samples += m.latency_us.count();
  }
  auto list = [](const std::vector<double>& v) {
    std::string o;
    for (double x : v) {
      if (!o.empty()) o += ' ';
      o += json_num(x);
    }
    return o;
  };
  per_job["jobs.items_per_s"] = list(items);
  per_job["jobs.latency_p50_us"] = list(p50);
  per_job["jobs.latency_p90_us"] = list(p90);
  return Figures{median(items), median(p50), median(p90), samples};
}

int run(const Args& a) {
  const bool socket = a.workload == "hcmpi_comm_socket";
  std::unique_ptr<Workload> wl;
  if (a.workload == "hcmpi_comm_thread" || socket) wl = make_comm(socket, a.seed);
  else if (a.workload == "uts_hcmpi") wl = make_uts(a.seed);
  else if (a.workload == "sw_dddf") wl = make_sw(a.seed);
  else usage(("unknown workload " + a.workload).c_str());
  net::set_mode(socket ? net::Mode::kSocket : net::Mode::kThread);

  Tally tally;
  std::vector<SetupSplit> setups;
  std::map<std::string, std::string> per_job;
  // The set-up split comes from the median set-up, so it sums to setup_s.
  auto median_setup = [&] {
    std::string o;
    for (const SetupSplit& x : setups) o += std::to_string(int(x.total_s() * 1e6)) + " ";
    per_job["setups_us"] = o;
    std::sort(setups.begin(), setups.end(), [](const SetupSplit& x, const SetupSplit& y) {
      return x.total_s() < y.total_s();
    });
    return setups[setups.size() / 2];
  };

  Metrics metrics;
  std::optional<KeepAwake> awake(std::in_place);
  if (!a.trace) {
    const Figures m = measure_jobs(*wl, a.seconds, tally, setups, per_job);
    const SetupSplit setup = median_setup();
    metrics["setup_s"] = {setup.total_s(), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["items_per_s"] = {m.items_per_s, "1/s"};
    metrics["latency_p50_us"] = {m.latency_p50_us, "us"};
    metrics["latency_p90_us"] = {m.latency_p90_us, "us"};
  } else {
    // Half the time untraced, half traced: the ratio of the two is the
    // tracing overhead, and the traced half gives the per-layer figures.
    const Figures u = measure_jobs(*wl, a.seconds / 2, tally, setups, per_job);
    const SetupSplit setup = median_setup();
    spans::set_enabled(true);
    support::trace::Collector::global().clear();
    support::trace::set_enabled(true);
    prof::set_telemetry(true);
    const Counts g0 = global_counters();
    Measure tm = wl->measure(a.seconds / 2, true, tally);
    const Figures t{tm.items_per_s, tm.latency_us.percentile(50), tm.latency_us.percentile(90),
                    tm.latency_us.count()};
    const Counts g = minus(global_counters(), g0);
    prof::set_telemetry(false);
    support::trace::set_enabled(false);
    spans::set_enabled(false);

    metrics = tm.layer;
    const double delivered = count_of(g, "smpi.messages_delivered");
    metrics["smpi.messages_delivered"] = {delivered, "count"};
    metrics["smpi.messages_expected"] = {tm.expected_msgs, "count"};
    tally.expect_eq(delivered, tm.expected_msgs,
                    "smpi: messages delivered vs messages the workload accounts for");
    metrics["smpi.injection_to_delivery_ns"] = {hist_p50("smpi.injection_to_delivery_ns"), "ns"};
    for (const char* h : {"hcmpi.inject_to_wire_ns", "hcmpi.wire_to_completion_ns"}) {
      if (!metrics.count(h)) metrics[h] = {hist_p50(h), "ns"};
    }
    const double frames = count_of(g, "net.frames.sent");
    metrics["net.frames"] = {frames, "count"};
    metrics["net.frames_per_msg"] = {ratio(frames, delivered), "ratio"};
    metrics["net.bytes_per_msg"] = {ratio(count_of(g, "net.bytes.sent"), delivered), "bytes"};
    metrics["net.retransmits"] = {count_of(g, "net.retransmits"), "count"};
    metrics["net.sendq_would_block"] = {count_of(g, "net.sendq.would_block"), "count"};
    // The thread wire never frames a message; the socket wire frames all.
    if (socket) {
      tally.check(frames >= delivered, "net: fewer frames than messages on the socket wire");
    } else {
      tally.check(frames == 0 && count_of(g, "net.bytes.sent") == 0,
                  "net: frames on the thread wire");
    }

    metrics["setup.world_ms"] = {setup.world_ms, "ms"};
    metrics["setup.context_ms"] = {setup.context_ms, "ms"};
    metrics["setup.space_ms"] = {setup.space_ms, "ms"};
    metrics["trace_overhead.items_per_s"] = {ratio(t.items_per_s, u.items_per_s), "ratio"};
    metrics["trace_overhead.latency_p50_us"] = {ratio(t.latency_p50_us, u.latency_p50_us), "ratio"};
    metrics["trace_overhead.latency_p90_us"] = {ratio(t.latency_p90_us, u.latency_p90_us), "ratio"};
    metrics["latency.samples"] = {double(t.latency_samples), "count"};
    metrics["spans.recorded"] = {double(spans::recorded()), "count"};
    metrics["spans.dropped"] = {double(spans::dropped()), "count"};
    metrics["error_rate"] = {ratio(double(tally.failed()), double(tally.attempted())), "fraction"};
    for (const auto& [name, unit] : kLayerMetrics) {
      if (!metrics.count(name)) metrics[name] = {0, unit};
    }

    // One spans file and one trace file per workload, replaced by each
    // traced run, so repeated runs do not pile up large files.
    const std::string base = a.out_dir + "/" + a.workload;
    if (!spans::write(base + ".spans.json")) {
      std::fprintf(stderr, "perfbench: failed to write %s.spans.json\n", base.c_str());
    }
    if (!support::trace::write_chrome_trace(base + ".trace.json")) {
      std::fprintf(stderr, "perfbench: failed to write %s.trace.json\n", base.c_str());
    }
  }

  awake.reset();
  utsname un{};
  uname(&un);
  std::map<std::string, std::string> meta = wl->inputs();
  meta.insert(per_job.begin(), per_job.end());
  meta["jobs"] = std::to_string(kJobs);
  meta["workload"] = a.workload;
  meta["seed"] = std::to_string(a.seed);
  meta["seconds"] = json_num(a.seconds);
  meta["trace"] = a.trace ? "1" : "0";
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  meta["machine"] = un.machine;
  meta["kernel"] = un.release;
  meta["compiler"] = "g++ " __VERSION__;
  meta["build_type"] = PERFBENCH_BUILD_TYPE;
  meta["source_id"] = a.source_id;
  meta["ranks"] = std::to_string(kRanks);
  meta["workers_per_rank"] = "1";
  meta["setup_reps"] = std::to_string(setups.size());

  const bool correct = tally.failed() == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted()) +
      ", \"failed\": " + std::to_string(tally.failed()) +
      ", \"metrics\": " + json_metrics(metrics) + "}";
  std::string reasons = "[";
  for (const std::string& r : tally.reasons()) {
    if (reasons.size() > 1) reasons += ", ";
    reasons += json_str(r);
  }
  reasons += "]";
  const std::string report_path = a.out_dir + "/" + a.workload + "-s" +
                                  std::to_string(a.seed) + "-t" + (a.trace ? "1" : "0") +
                                  ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "{\"meta\": %s,\n \"failures\": %s,\n \"result\": %s}\n",
                 json_map(meta).c_str(), reasons.c_str(), result.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "perfbench: failed to write %s\n", report_path.c_str());
  }
  for (const std::string& r : tally.reasons()) std::fprintf(stderr, "perfbench: FAILED %s\n", r.c_str());
  std::printf("{\"meta\": %s}\n%s\n", json_map(meta).c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Args args = pb::parse(argc, argv);
  try {
    return pb::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
