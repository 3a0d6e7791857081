// Fabric worker: the lease -> execute -> result loop a forked campaign
// worker process runs.
//
// The worker is forked from the coordinator after campaign expansion, so
// it inherits the fully-resolved cell table by address — no config ever
// crosses the wire. It announces itself with HELLO, then serves LEASE
// messages until SHUTDOWN (or EOF): probe the shared RunCache, run the
// engine on a miss, store the summary back, and send a RESULT line. A
// background thread heartbeats the in-flight cell index so the
// coordinator can tell "slow" from "dead".
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "sweep/cache.h"
#include "sweep/campaign.h"

namespace rootstress::sweep::fabric {

/// Everything a worker needs; plain values plus a borrowed pointer to
/// the fork-inherited cell table.
struct WorkerEnv {
  int ordinal = 0;  ///< worker number, for logs and fault injection
  const std::vector<CampaignCell>* cells = nullptr;
  int inner_lanes = 1;  ///< engine threads per cell
  /// Shared result store; empty = run without a cache.
  std::filesystem::path cache_dir;
  std::string cache_salt{kCodeVersionSalt};
  /// Fault injection (tests): ordinal-0 workers exit hard after
  /// accepting this many leases. < 0 disables.
  int fail_after_leases = -1;
};

/// Serves the protocol over `fd` (blocking socketpair end) until
/// SHUTDOWN or peer EOF. Returns the process exit code. The caller (a
/// freshly forked child) must _exit() with it — never return into the
/// parent's stack.
int worker_main(int fd, const WorkerEnv& env);

}  // namespace rootstress::sweep::fabric
