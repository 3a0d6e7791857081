// Wire-speed I/O gate: the netio backend must (a) sustain the throughput
// bar on loopback with batched syscalls, (b) measure an answered
// fraction under overload that agrees with the fluid simulator's
// prediction (anycast::evaluate_queue saturation loss) within 10%, and
// (c) still function through the portable single-syscall fallback.
// Writes the measurements to BENCH_netio.json (path overridable as
// argv[1]).
//
// The throughput bar is 50000 q/s and the calibration tolerance 10%.
// Exit status is the contract: nonzero when any leg fails —
// scripts/check.sh runs this as the netio gate.
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "netio/calibration.h"
#include "netio/generator.h"
#include "netio/server.h"
#include "obs/json.h"

using namespace rootstress;

namespace {

struct LegResult {
  netio::GeneratorReport report;
  std::uint64_t server_received = 0;
  std::uint64_t server_answered = 0;
  std::uint64_t server_dropped_capacity = 0;
  bool ok = false;
};

/// One closed loop: loopback server with `capacity_qps`, generator
/// offering `offered_qps` for `duration_s`.
LegResult run_leg(double offered_qps, double capacity_qps, double duration_s,
                  netio::BatchMode mode, std::size_t batch) {
  LegResult leg;

  netio::WireServerConfig server_config;
  server_config.capacity_qps = capacity_qps;
  server_config.rrl.enabled = false;
  server_config.batch = batch;
  server_config.batch_mode = mode;
  netio::WireServer server(server_config);
  std::string error;
  if (!server.start(&error)) {
    std::printf("FAIL: server start: %s\n", error.c_str());
    return leg;
  }

  netio::GeneratorConfig gen_config;
  gen_config.targets = {server.endpoint()};
  gen_config.duration_s = duration_s;
  gen_config.envelope = netio::RateEnvelope::constant(offered_qps);
  gen_config.batch = batch;
  gen_config.batch_mode = mode;
  netio::LoadGenerator generator(gen_config);
  leg.report = generator.run(&error);
  server.stop();
  if (!error.empty()) {
    std::printf("FAIL: generator: %s\n", error.c_str());
    return leg;
  }

  const netio::WireServerStats& s = server.stats();
  leg.server_received = s.received.load();
  leg.server_answered = s.answered.load();
  leg.server_dropped_capacity = s.dropped_capacity.load();
  leg.ok = leg.report.sent > 0;
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_netio.json";
  const double qps_bar = 50e3;
  const double cal_tol = 0.10;

  // Leg A — throughput: offer 1.4x the bar with no capacity gate; both
  // the achieved send rate and the server's answer rate must clear it.
  std::printf("leg A: throughput (bar %.0f q/s)...\n", qps_bar);
  const LegResult a =
      run_leg(qps_bar * 1.4, /*capacity=*/0.0, /*duration_s=*/3.0,
              netio::BatchMode::kAuto, /*batch=*/64);
  const double answer_qps =
      a.report.duration_s > 0.0
          ? static_cast<double>(a.server_answered) / a.report.duration_s
          : 0.0;
  const bool a_pass = a.ok && a.report.achieved_qps >= qps_bar &&
                      answer_qps >= qps_bar &&
                      a.report.answered_fraction >= 0.99;
  std::printf(
      "  achieved %.0f q/s, answered %.0f q/s, answered fraction %.4f "
      "(p50 %.3f ms) -> %s\n",
      a.report.achieved_qps, answer_qps, a.report.answered_fraction,
      a.report.rtt_p50_ms, a_pass ? "pass" : "FAIL");

  // Leg B — calibration: overload a capacity-gated server at 2x and
  // compare the wire-measured answered fraction with the fluid model's
  // saturation-loss prediction.
  anycast::QueueConfig queue;
  queue.capacity_qps = 15e3;
  const double overload_qps = 30e3;
  const netio::WirePrediction predicted =
      netio::predict_wire_outcome(overload_qps, queue);
  std::printf("leg B: calibration (offered %.0f vs capacity %.0f, "
              "predicted answered %.3f)...\n",
              overload_qps, queue.capacity_qps, predicted.answered_fraction);
  const LegResult b = run_leg(overload_qps, queue.capacity_qps,
                              /*duration_s=*/3.0, netio::BatchMode::kAuto,
                              /*batch=*/64);
  const double cal_error = netio::calibration_error(
      b.report.answered_fraction, predicted.answered_fraction);
  const bool b_pass = b.ok && cal_error <= cal_tol;
  std::printf("  measured answered %.4f, error %.1f%% (tolerance %.0f%%) "
              "-> %s\n",
              b.report.answered_fraction, cal_error * 100.0, cal_tol * 100.0,
              b_pass ? "pass" : "FAIL");

  // Leg C — portable fallback: the single-syscall path must still close
  // the loop (no throughput bar; it exists for non-Linux hosts).
  std::printf("leg C: portable fallback smoke...\n");
  const LegResult c = run_leg(5e3, /*capacity=*/0.0, /*duration_s=*/1.0,
                              netio::BatchMode::kPortable, /*batch=*/16);
  const bool c_pass = c.ok && c.report.answered_fraction >= 0.99;
  std::printf("  achieved %.0f q/s, answered fraction %.4f -> %s\n",
              c.report.achieved_qps, c.report.answered_fraction,
              c_pass ? "pass" : "FAIL");

  const bool pass = a_pass && b_pass && c_pass;

  obs::JsonValue doc = obs::JsonValue::object();
  doc.set("bench", obs::JsonValue("netio"));
  doc.set("qps_bar", obs::JsonValue(qps_bar));
  doc.set("syscall_batching",
          obs::JsonValue(netio::UdpSocket::syscall_batch_supported()));
  obs::JsonValue leg_a = obs::JsonValue::object();
  leg_a.set("offered_qps", obs::JsonValue(qps_bar * 1.4));
  leg_a.set("achieved_qps", obs::JsonValue(a.report.achieved_qps));
  leg_a.set("answered_qps", obs::JsonValue(answer_qps));
  leg_a.set("answered_fraction", obs::JsonValue(a.report.answered_fraction));
  leg_a.set("rtt_p50_ms", obs::JsonValue(a.report.rtt_p50_ms));
  leg_a.set("rtt_p99_ms", obs::JsonValue(a.report.rtt_p99_ms));
  leg_a.set("pass", obs::JsonValue(a_pass));
  doc.set("throughput", std::move(leg_a));
  obs::JsonValue leg_b = obs::JsonValue::object();
  leg_b.set("offered_qps", obs::JsonValue(overload_qps));
  leg_b.set("capacity_qps", obs::JsonValue(queue.capacity_qps));
  leg_b.set("predicted_answered_fraction",
            obs::JsonValue(predicted.answered_fraction));
  leg_b.set("measured_answered_fraction",
            obs::JsonValue(b.report.answered_fraction));
  leg_b.set("calibration_error", obs::JsonValue(cal_error));
  leg_b.set("tolerance", obs::JsonValue(cal_tol));
  leg_b.set("pass", obs::JsonValue(b_pass));
  doc.set("calibration", std::move(leg_b));
  obs::JsonValue leg_c = obs::JsonValue::object();
  leg_c.set("achieved_qps", obs::JsonValue(c.report.achieved_qps));
  leg_c.set("answered_fraction", obs::JsonValue(c.report.answered_fraction));
  leg_c.set("pass", obs::JsonValue(c_pass));
  doc.set("portable", std::move(leg_c));
  doc.set("pass", obs::JsonValue(pass));
  bench::write_bench_json(out_path, std::move(doc));

  if (!pass) {
    std::puts("FAIL: netio gate");
    return 1;
  }
  std::puts("PASS");
  return 0;
}
