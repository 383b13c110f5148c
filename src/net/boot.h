// hc-net process bootstrap: which transport this process uses and, when it
// was started by hcmpi_launch, where it sits in the multi-process job.
//
// In thread mode (the historical default) every rank is a thread in this
// process and delivery is a direct endpoint call. In socket mode
// (--transport=socket or HCMPI_TRANSPORT=socket) a World's ranks are laid
// out over a mesh of procs, ceil(ranks / procs) consecutive ranks per proc,
// and every proc is one net::Fabric. The only thing the launch env decides
// is which procs this process hosts:
//   * launched (hcmpi_launch set HCMPI_PROC/HCMPI_NPROCS): the mesh is the
//     job's processes and this process hosts its own proc only;
//   * loopback (no launch env): the mesh has one proc per rank and this
//     process hosts all of them, so every cross-rank message still crosses
//     a real socket. This is how tests, TSan and the bench harness exercise
//     the wire without fork/exec.
#pragma once

#include <string>

#include "net/fabric.h"

namespace support {
class Flags;
}

namespace net {

enum class Mode { kThread, kSocket };

// Process-wide transport mode. Seeded from HCMPI_TRANSPORT at startup;
// --transport (via support::Observe / net::configure) overrides it.
Mode mode();
void set_mode(Mode m);
bool parse_mode(const std::string& s, Mode* out);

// Applies --transport=thread|socket (absent flag leaves the mode alone).
void configure(const support::Flags& flags);

// The launch-time environment, parsed once.
struct ProcEnv {
  // True only under hcmpi_launch (HCMPI_PROC present).
  bool launched = false;
  // The template every World's fabrics start from: session from
  // HCMPI_SESSION (empty = a per-process temporary directory), proc and
  // nprocs from HCMPI_PROC/HCMPI_NPROCS when launched, and the timers and
  // queue cap from HCMPI_NET_* variables. job and the rank block are filled
  // in per World.
  FabricOptions fabric;
};

const ProcEnv& proc_env();
// Re-reads the environment; for tests that fork or mutate HCMPI_* vars.
void reload_proc_env();

}  // namespace net
