// The four perfbench workloads. Each runs in one process with kRanks ranks,
// one computation worker and one communication worker per rank, and verifies
// its own output into the Tally.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "harness.h"

namespace pb {

// What one measured job reports. `items_per_s` and the latency samples are
// the workload's end-to-end figures (see run.py for what each workload counts
// as an item and as a latency sample); `layer` holds the per-layer metrics,
// meaningful only from a traced job.
struct Measure {
  double items_per_s = 0;
  Samples latency_us;
  // smpi messages the job must deliver: what the workload's code sent plus
  // the known protocol traffic (collectives, DDDF REGISTER/DATA).
  double expected_msgs = 0;
  Metrics layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Input sizes and other facts recorded in the run metadata.
  virtual std::map<std::string, std::string> inputs() const = 0;
  // Whether set-up includes a dddf::Space.
  virtual bool uses_space() const { return false; }
  // One job of `seconds` measured work, traced or not. Ratios in `layer`
  // come with their base counts.
  virtual Measure measure(double seconds, bool traced, Tally& tally) = 0;
};

// seed: the workload seed; every input derives from it.
std::unique_ptr<Workload> make_comm(bool socket, std::uint64_t seed);
std::unique_ptr<Workload> make_uts(std::uint64_t seed);
std::unique_ptr<Workload> make_sw(std::uint64_t seed);

// The core.* counters and ratios from summed rank-counter deltas.
void core_layer(const Counts& d, Metrics& m);
// The hcmpi.* progress-loop ratios from summed rank-counter deltas over a
// phase that moved `msgs` messages through communication tasks.
void hcmpi_layer(const Counts& d, double msgs, Metrics& m);

}  // namespace pb
