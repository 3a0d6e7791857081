#include "sweep/fabric/worker.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "core/evaluation.h"
#include "sweep/fabric/protocol.h"
#include "sweep/summary.h"
#include "util/logging.h"

namespace rootstress::sweep::fabric {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

/// Executes one leased cell: cache probe, engine run on a miss, store.
WireResult run_cell(const CampaignCell& cell, const WorkerEnv& env,
                    RunCache* cache) {
  WireResult out;
  out.index = cell.index;
  out.key = cache != nullptr ? cache->key(cell.config)
                             : config_hash(cell.config, env.cache_salt);
  const auto begin = Clock::now();
  if (cache != nullptr) {
    // A stolen or re-leased cell may already have been stored by another
    // worker; the digest is identical either way, so serve it.
    if (auto hit = cache->load(out.key); hit.has_value()) {
      out.summary = std::move(*hit);
      out.summary.config_hash = out.key;
      out.cache_hit = true;
      out.wall_ms = ms_since(begin);
      return out;
    }
  }
  sim::ScenarioConfig config = cell.config;
  if (config.threads <= 0) config.threads = env.inner_lanes;
  const core::EvaluationReport report = core::evaluate_scenario(config);
  // Summarize against the resolved config (not the thread-adjusted
  // copy's identity — summaries must match standalone runs).
  out.summary = summarize(cell.config, report);
  out.summary.config_hash = out.key;
  out.wall_ms = ms_since(begin);
  const obs::TimelineData& timeline = report.result.telemetry.timeline;
  if (!timeline.empty()) {
    out.timeline_digest = timeline.digest();
    out.timeline_series = timeline.series.size();
    out.timeline_spans = timeline.spans.size();
  }
  if (cache != nullptr) cache->store(out.key, out.summary);
  return out;
}

}  // namespace

int worker_main(int fd, const WorkerEnv& env) {
  LineChannel channel(fd);
  std::mutex send_mutex;  // main loop and heartbeat thread share the fd
  const auto send = [&](const std::string& line) {
    const std::scoped_lock lock(send_mutex);
    return channel.send_line(line);
  };

  std::unique_ptr<RunCache> cache;
  if (!env.cache_dir.empty()) {
    cache = std::make_unique<RunCache>(env.cache_dir, env.cache_salt);
  }

  if (!send(encode_hello(static_cast<int>(::getpid())))) return 1;

  // Heartbeat thread: while a cell is in flight, announce it every
  // heartbeat period so the coordinator can distinguish slow from dead.
  std::atomic<long> busy_index{-1};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> busy_since_ns{0};
  std::thread heartbeat([&] {
    const auto period =
        std::chrono::duration<double, std::milli>(kHeartbeatMs);
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(period);
      const long index = busy_index.load(std::memory_order_acquire);
      if (index >= 0) {
        const double elapsed_ms =
            static_cast<double>(
                Clock::now().time_since_epoch().count() -
                busy_since_ns.load(std::memory_order_acquire)) /
            1e6;
        send(encode_heartbeat(static_cast<std::size_t>(index), elapsed_ms));
      }
    }
  });

  int leases_taken = 0;
  bool running = true;
  std::vector<std::string> lines;
  while (running) {
    lines.clear();
    const bool alive = channel.read_lines(lines);
    for (const std::string& line : lines) {
      const auto msg = parse_message(line);
      if (!msg.has_value()) continue;  // skip garbage, don't die on it
      if (msg->kind == MessageKind::kShutdown) {
        running = false;
        break;
      }
      if (msg->kind != MessageKind::kLease) continue;  // ACKs et al.
      ++leases_taken;
      if (env.fail_after_leases >= 0 && env.ordinal == 0 &&
          leases_taken > env.fail_after_leases) {
        // Fault injection: die mid-campaign without a goodbye, exactly
        // like a crashed or OOM-killed worker would.
        std::_Exit(9);
      }
      if (msg->index >= env.cells->size()) {
        send(encode_error(msg->index, "lease index out of range"));
        continue;
      }
      busy_since_ns.store(Clock::now().time_since_epoch().count(),
                          std::memory_order_release);
      busy_index.store(static_cast<long>(msg->index),
                       std::memory_order_release);
      try {
        const WireResult result =
            run_cell((*env.cells)[msg->index], env, cache.get());
        busy_index.store(-1, std::memory_order_release);
        if (!send(encode_result(result))) running = false;
      } catch (const std::exception& e) {
        busy_index.store(-1, std::memory_order_release);
        if (!send(encode_error(msg->index, e.what()))) running = false;
      }
    }
    if (!alive) break;  // coordinator gone: nothing left to serve
  }

  stop.store(true, std::memory_order_release);
  heartbeat.join();
  return 0;
}

}  // namespace rootstress::sweep::fabric
