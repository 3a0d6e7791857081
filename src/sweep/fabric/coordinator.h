// Fabric coordinator: the SubprocessExecutor.
//
// execute() forks ExecutorConfig::workers worker processes (each holding
// the fork-inherited cell table), connects each over a socketpair, and
// runs a poll loop that leases cells, collects RESULT lines, acks them,
// and keeps every worker busy until the batch is done:
//
//   - Liveness: workers heartbeat their in-flight cell. A closed channel
//     (EOF / EPIPE) means the worker died; its outstanding lease goes
//     back to the front of the queue and is re-leased elsewhere.
//   - Work stealing: once the queue is empty, an idle worker duplicates
//     the oldest lease that has been out longer than kStealAfterMs.
//     First result wins; the loser's duplicate is acked and discarded.
//     Duplicates are bit-identical by the determinism contract (and
//     usually resolve through the shared RunCache anyway), so stealing
//     can only shorten the straggler tail.
//   - Results: RunSummary JSON round-trips exactly, so a fabric cell's
//     digest is bit-identical to the in-process executor's.
//
// Worker failures are tolerated as long as at least one worker lives;
// ERROR replies (an engine throw inside a cell) abort the campaign after
// the batch drains, mirroring the in-process executor's exception
// behavior.
#pragma once

#include "sweep/executor.h"

namespace rootstress::sweep::fabric {

class SubprocessExecutor : public Executor {
 public:
  explicit SubprocessExecutor(ExecutorConfig config)
      : config_(std::move(config)) {}

  std::string name() const override { return "subprocess"; }
  void execute(const ExecutionContext& context) override;

 private:
  ExecutorConfig config_;
};

}  // namespace rootstress::sweep::fabric
