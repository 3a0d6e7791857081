#include "sweep/fabric/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/cache.h"
#include "sweep/fabric/protocol.h"
#include "sweep/fabric/worker.h"
#include "util/logging.h"

namespace rootstress::sweep::fabric {

namespace {

using Clock = std::chrono::steady_clock;

struct WorkerSlot {
  int ordinal = 0;
  pid_t pid = -1;
  LineChannel channel;
  bool ready = false;       ///< HELLO received
  bool reaped = false;      ///< waitpid collected
  long lease = -1;          ///< in-flight cell index, -1 when idle
  Clock::time_point lease_since{};
  Clock::time_point last_heard{};
};

/// Per-cell lease bookkeeping, indexed by cell index.
struct CellLease {
  int holders = 0;      ///< live workers currently leased this cell
  int grants = 0;       ///< total leases ever granted (steal cap)
  bool started = false; ///< board cell_started fired
  bool completed = false;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

void SubprocessExecutor::execute(const ExecutionContext& ctx) {
  const std::vector<CampaignCell>& cells = *ctx.cells;
  const std::vector<std::size_t>& to_run = *ctx.to_run;
  std::vector<CellOutcome>& outcomes = *ctx.outcomes;
  if (to_run.empty()) return;

  WorkerEnv env_base;
  env_base.cells = &cells;
  env_base.inner_lanes = ctx.inner_lanes;
  if (ctx.cache != nullptr) {
    env_base.cache_dir = ctx.cache->directory();
    env_base.cache_salt = ctx.cache->salt();
  }
  env_base.fail_after_leases = config_.fail_worker_after;

  // Fork the fleet. Children inherit the expanded cell table and nothing
  // else they care about; each gets one socketpair end and closes every
  // other fd we created.
  std::vector<WorkerSlot> workers(static_cast<std::size_t>(ctx.workers));
  std::vector<int> parent_fds;
  for (int w = 0; w < ctx.workers; ++w) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("fabric: socketpair failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error("fabric: fork failed");
    }
    if (pid == 0) {
      // Child: keep only our worker end.
      for (const int fd : parent_fds) ::close(fd);
      ::close(sv[0]);
      WorkerEnv env = env_base;
      env.ordinal = w;
      // _Exit: no atexit handlers, no static destructors, no stdio
      // double-flush of the parent's buffers.
      std::_Exit(worker_main(sv[1], env));
    }
    ::close(sv[1]);
    set_nonblocking(sv[0]);
    parent_fds.push_back(sv[0]);
    WorkerSlot& slot = workers[static_cast<std::size_t>(w)];
    slot.ordinal = w;
    slot.pid = pid;
    slot.channel = LineChannel(sv[0]);
    slot.last_heard = Clock::now();
  }

  std::deque<std::size_t> pending(to_run.begin(), to_run.end());
  std::vector<CellLease> leases(cells.size());
  std::size_t done = 0;
  const std::size_t need = to_run.size();
  std::vector<std::string> errors;

  const auto steal_after =
      std::chrono::duration<double, std::milli>(kStealAfterMs);

  // Picks the next cell for an idle worker: queue first, then steal the
  // oldest sufficiently-stale lease held elsewhere (at most one
  // duplicate per cell).
  const auto next_cell = [&](const WorkerSlot& idle) -> long {
    while (!pending.empty()) {
      const std::size_t index = pending.front();
      pending.pop_front();
      if (!leases[index].completed) return static_cast<long>(index);
    }
    long victim = -1;
    Clock::time_point oldest{};
    const auto now = Clock::now();
    for (const WorkerSlot& other : workers) {
      if (&other == &idle || other.lease < 0) continue;
      const std::size_t index = static_cast<std::size_t>(other.lease);
      if (leases[index].completed || leases[index].grants >= 2) continue;
      if (now - other.lease_since < steal_after) continue;
      if (victim < 0 || other.lease_since < oldest) {
        victim = other.lease;
        oldest = other.lease_since;
      }
    }
    return victim;
  };

  const auto grant = [&](WorkerSlot& slot) {
    if (!slot.ready || slot.lease >= 0 || !slot.channel.alive()) return;
    const long index = next_cell(slot);
    if (index < 0) return;
    CellLease& lease = leases[static_cast<std::size_t>(index)];
    if (!slot.channel.send_line(encode_lease(
            static_cast<std::size_t>(index)))) {
      // Peer died between poll rounds; its death is handled below and
      // the cell (still unleased here) goes back to the queue.
      if (lease.holders == 0 && !lease.completed) {
        pending.push_front(static_cast<std::size_t>(index));
      }
      return;
    }
    slot.lease = index;
    slot.lease_since = Clock::now();
    ++lease.holders;
    ++lease.grants;
    if (!lease.started) {
      lease.started = true;
      if (ctx.board != nullptr) {
        ctx.board->cell_started(outcomes[static_cast<std::size_t>(index)]);
      }
    }
  };

  const auto on_death = [&](WorkerSlot& slot) {
    if (slot.channel.fd() < 0) return;
    slot.channel.close_fd();
    if (!slot.reaped && slot.pid > 0) {
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      slot.reaped = true;
    }
    if (slot.lease >= 0) {
      const std::size_t index = static_cast<std::size_t>(slot.lease);
      CellLease& lease = leases[index];
      --lease.holders;
      --lease.grants;  // a dead holder frees its duplicate slot
      slot.lease = -1;
      if (!lease.completed && lease.holders == 0) {
        pending.push_front(index);  // re-lease ahead of fresh work
      }
      RS_LOG_INFO << "fabric: worker-" << slot.ordinal
                  << " died, re-leasing cell " << index;
    } else {
      RS_LOG_INFO << "fabric: worker-" << slot.ordinal << " exited";
    }
  };

  const auto on_message = [&](WorkerSlot& slot, const Message& msg) {
    slot.last_heard = Clock::now();
    switch (msg.kind) {
      case MessageKind::kHello:
        if (msg.version != kProtocolVersion) {
          errors.push_back("fabric: worker-" + std::to_string(slot.ordinal) +
                           " spoke protocol v" + std::to_string(msg.version));
          slot.channel.close_fd();
          return;
        }
        slot.ready = true;
        grant(slot);
        break;
      case MessageKind::kHeartbeat:
        break;  // last_heard already refreshed
      case MessageKind::kError: {
        errors.push_back("fabric: cell '" +
                         (msg.index < cells.size()
                              ? cells[msg.index].label
                              : std::to_string(msg.index)) +
                         "' failed on worker-" + std::to_string(slot.ordinal) +
                         ": " + msg.error);
        if (msg.index >= cells.size()) break;
        CellLease& lease = leases[msg.index];
        if (slot.lease == static_cast<long>(msg.index)) {
          slot.lease = -1;
          --lease.holders;
        }
        if (!lease.completed) {
          lease.completed = true;  // don't retry a deterministic throw
          ++done;
        }
        grant(slot);
        break;
      }
      case MessageKind::kResult: {
        const WireResult& wire = msg.result;
        if (wire.index >= cells.size()) break;
        CellLease& lease = leases[wire.index];
        if (slot.lease == static_cast<long>(wire.index)) {
          slot.lease = -1;
          --lease.holders;
        }
        slot.channel.send_line(encode_ack(wire.index));
        if (!lease.completed) {
          lease.completed = true;
          ++done;
          CellOutcome& outcome = outcomes[wire.index];
          if (wire.key != outcome.key) {
            // Same salt + same config must key identically; a mismatch
            // means the inherited cell table is not what we leased.
            errors.push_back("fabric: key mismatch on cell '" +
                             outcome.label + "'");
          }
          outcome.summary = wire.summary;
          if (outcome.summary.config_hash == 0) {
            outcome.summary.config_hash = outcome.key;
          }
          outcome.wall_ms = wire.wall_ms;
          outcome.executed_by = "worker-" + std::to_string(slot.ordinal);
          outcome.timeline_digest = wire.timeline_digest;
          outcome.timeline_series = wire.timeline_series;
          outcome.timeline_spans = wire.timeline_spans;
          if (ctx.executed_counter != nullptr) ctx.executed_counter->add(1);
          if (ctx.wall_hist != nullptr) ctx.wall_hist->observe(wire.wall_ms);
          if (ctx.board != nullptr) ctx.board->cell_finished(outcome);
        }
        grant(slot);
        break;
      }
      case MessageKind::kLease:
      case MessageKind::kAck:
      case MessageKind::kShutdown:
        break;  // coordinator-bound grammar only
    }
  };

  std::vector<std::string> lines;
  while (done < need) {
    std::vector<pollfd> pfds;
    std::vector<std::size_t> slot_of_pfd;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      if (workers[w].channel.alive() && workers[w].channel.fd() >= 0) {
        pfds.push_back({workers[w].channel.fd(), POLLIN, 0});
        slot_of_pfd.push_back(w);
      }
    }
    if (pfds.empty()) {
      throw std::runtime_error(
          "fabric: all workers died with " + std::to_string(need - done) +
          " cells unfinished" +
          (errors.empty() ? "" : ("; first error: " + errors.front())));
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
           static_cast<int>(kHeartbeatMs));
    for (std::size_t p = 0; p < pfds.size(); ++p) {
      WorkerSlot& slot = workers[slot_of_pfd[p]];
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      const bool alive = slot.channel.read_lines(lines);
      for (const std::string& line : lines) {
        if (const auto msg = parse_message(line); msg.has_value()) {
          on_message(slot, *msg);
        }
      }
      if (!alive) on_death(slot);
    }
    // Keep everyone busy: queue drains first, then straggler stealing.
    for (WorkerSlot& slot : workers) {
      if (slot.channel.alive() && slot.ready && slot.lease < 0) grant(slot);
    }
  }

  // Batch done: dismiss the fleet and reap every child. A worker still
  // chewing a stolen duplicate finishes it, reads the SHUTDOWN, exits.
  for (WorkerSlot& slot : workers) {
    if (slot.channel.alive()) slot.channel.send_line(encode_shutdown());
  }
  for (WorkerSlot& slot : workers) {
    if (slot.channel.fd() >= 0) slot.channel.close_fd();
    if (!slot.reaped && slot.pid > 0) {
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      slot.reaped = true;
    }
  }

  if (!errors.empty()) {
    throw std::runtime_error(errors.front());
  }
}

}  // namespace rootstress::sweep::fabric
