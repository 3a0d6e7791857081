// wirestress — drive and serve real DNS traffic over UDP sockets.
//
// Three modes:
//   --serve HOST:PORT   run the loopback server-under-test (RootServer +
//                       RRL behind a capacity gate) until --duration-s
//   --target HOST:PORT  generate load against an external server
//   --duel              self-contained closed loop: server + generator
//                       over loopback in one process
//
// Shared knobs: --qps N, --workers N, --duration-s S, --batch N,
// --capacity N (server service rate, 0 = unlimited), --rrl (enable RRL),
// --portable (single-syscall fallback instead of sendmmsg/recvmmsg),
// --pulse PERIOD_S,DUTY (square pulse-wave envelope instead of constant
// rate), --qname NAME, --quick (tiny smoke run used by scripts/check.sh).
//
// Numeric values parse strictly (the whole argument, in range: --qps
// [1, 1e7], --duration-s [0, 86400], --capacity [0, 1e9], --pulse period
// [0, 86400] and duty [0, 1], --workers [1, 256], --batch [1, 1024]); a
// bad value prints the usage text and exits 2.
//
// Exit status: nonzero when the run answers nothing (a dead loop), so CI
// smoke invocations fail loudly.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "fault/schedule.h"
#include "netio/calibration.h"
#include "netio/generator.h"
#include "netio/server.h"
#include "util/env.h"
#include "util/parallel.h"

using namespace rootstress;

namespace {

struct Options {
  enum class Mode { kDuel, kServe, kTarget } mode = Mode::kDuel;
  net::Endpoint endpoint{net::Ipv4Addr(127, 0, 0, 1), 0};
  double qps = 20e3;
  int workers = 1;
  double duration_s = 2.0;
  std::size_t batch = 32;
  double capacity_qps = 0.0;
  bool rrl = false;
  bool portable = false;
  bool quick = false;
  double pulse_period_s = 0.0;  ///< 0 = constant envelope
  double pulse_duty = 0.5;
  std::string qname = "www.336901.com";
};

void usage() {
  std::puts(
      "usage: wirestress [--duel | --serve HOST:PORT | --target HOST:PORT]\n"
      "  --qps N          aggregate offered rate (default 20000)\n"
      "  --workers N      sender threads (default 1)\n"
      "  --duration-s S   run length (default 2.0)\n"
      "  --batch N        packets per syscall batch (default 32)\n"
      "  --capacity N     server service rate, 0 = unlimited\n"
      "  --rrl            enable response rate limiting on the server\n"
      "  --portable       force the single-syscall socket fallback\n"
      "  --pulse P,D      square pulse wave: period P seconds, duty D\n"
      "  --qname NAME     query name (default www.336901.com)\n"
      "  --quick          300ms low-rate smoke run");
}

// sendmmsg/recvmmsg take at most this many messages per call (the
// kernel's UIO_MAXIOV).
constexpr std::int64_t kMaxBatch = 1024;

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The next argument as a number in [min, max]; prints the usage text
    // when it is missing or does not parse.
    auto value = [&](double* out, double min, double max) {
      const auto v =
          i + 1 < argc ? util::parse_number(argv[++i], min, max) : std::nullopt;
      if (!v) {
        usage();
        return false;
      }
      *out = *v;
      return true;
    };
    auto integer = [&](std::int64_t min, std::int64_t max)
        -> std::optional<std::int64_t> {
      const auto v = i + 1 < argc ? util::parse_integer(argv[++i], min, max)
                                  : std::nullopt;
      if (!v) usage();
      return v;
    };
    if (arg == "--duel") {
      opt.mode = Options::Mode::kDuel;
    } else if (arg == "--serve" || arg == "--target") {
      if (i + 1 >= argc) return false;
      const auto ep = net::Endpoint::parse(argv[++i]);
      if (!ep) {
        std::fprintf(stderr, "bad endpoint: %s\n", argv[i]);
        return false;
      }
      opt.endpoint = *ep;
      opt.mode = arg == "--serve" ? Options::Mode::kServe
                                  : Options::Mode::kTarget;
    } else if (arg == "--qps") {
      if (!value(&opt.qps, 1.0, 1e7)) return false;
    } else if (arg == "--workers") {
      const auto v = integer(1, util::kMaxThreads);
      if (!v) return false;
      opt.workers = static_cast<int>(*v);
    } else if (arg == "--duration-s") {
      if (!value(&opt.duration_s, 0.0, 86400.0)) return false;
    } else if (arg == "--batch") {
      const auto v = integer(1, kMaxBatch);
      if (!v) return false;
      opt.batch = static_cast<std::size_t>(*v);
    } else if (arg == "--capacity") {
      if (!value(&opt.capacity_qps, 0.0, 1e9)) return false;
    } else if (arg == "--rrl") {
      opt.rrl = true;
    } else if (arg == "--portable") {
      opt.portable = true;
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--qname") {
      if (i + 1 >= argc) return false;
      opt.qname = argv[++i];
    } else if (arg == "--pulse") {
      if (i + 1 >= argc) return false;
      const std::string_view spec = argv[++i];
      const auto comma = spec.find(',');
      const auto period =
          comma == std::string_view::npos
              ? std::nullopt
              : util::parse_number(spec.substr(0, comma), 0.0, 86400.0);
      const auto duty =
          period ? util::parse_number(spec.substr(comma + 1), 0.0, 1.0)
                 : std::nullopt;
      if (!duty) {
        usage();
        return false;
      }
      opt.pulse_period_s = *period;
      opt.pulse_duty = *duty;
    } else {
      usage();
      return false;
    }
  }
  if (opt.quick) {
    opt.duration_s = 0.3;
    opt.qps = std::min(opt.qps, 5e3);
  }
  return true;
}

netio::WireServerConfig server_config(const Options& opt) {
  netio::WireServerConfig config;
  config.listen = opt.endpoint;
  config.capacity_qps = opt.capacity_qps;
  config.rrl.enabled = opt.rrl;
  config.batch = opt.batch;
  config.batch_mode =
      opt.portable ? netio::BatchMode::kPortable : netio::BatchMode::kAuto;
  return config;
}

netio::GeneratorConfig generator_config(const Options& opt,
                                        net::Endpoint target) {
  netio::GeneratorConfig config;
  config.targets = {target};
  config.workers = opt.workers;
  config.duration_s = opt.duration_s;
  config.qname = opt.qname;
  config.batch = opt.batch;
  config.batch_mode =
      opt.portable ? netio::BatchMode::kPortable : netio::BatchMode::kAuto;
  if (opt.pulse_period_s > 0) {
    fault::PulseWave pulse;
    pulse.window = net::SimInterval{net::SimTime(0),
                                    net::SimTime::from_seconds(opt.duration_s)};
    pulse.period = net::SimTime::from_seconds(opt.pulse_period_s);
    pulse.duty = opt.pulse_duty;
    pulse.peak_qps = opt.qps;
    config.envelope = netio::RateEnvelope::from_pulse(pulse, 1.0, 1.0);
  } else {
    config.envelope = netio::RateEnvelope::constant(opt.qps);
  }
  return config;
}

void print_report(const netio::GeneratorReport& report,
                  netio::WireServer* server) {
  std::printf("generator:  requested %.0f q/s, achieved %.0f q/s\n",
              report.requested_qps, report.achieved_qps);
  std::printf(
      "            sent %llu, answered %llu (%.1f%%), truncated %llu, "
      "lost %llu\n",
      static_cast<unsigned long long>(report.sent),
      static_cast<unsigned long long>(report.answered),
      report.answered_fraction * 100.0,
      static_cast<unsigned long long>(report.truncated),
      static_cast<unsigned long long>(report.lost));
  std::printf("            rtt p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
              report.rtt_p50_ms, report.rtt_p90_ms, report.rtt_p99_ms);
  if (server != nullptr) {
    const netio::WireServerStats& s = server->stats();
    std::printf(
        "server:     received %llu, answered %llu, capacity-dropped %llu,\n"
        "            rrl-dropped %llu, slipped %llu, malformed %llu, "
        "cache %llu/%llu hit/miss\n",
        static_cast<unsigned long long>(s.received.load()),
        static_cast<unsigned long long>(s.answered.load()),
        static_cast<unsigned long long>(s.dropped_capacity.load()),
        static_cast<unsigned long long>(s.dropped_rrl.load()),
        static_cast<unsigned long long>(s.slipped.load()),
        static_cast<unsigned long long>(s.dropped_malformed.load()),
        static_cast<unsigned long long>(s.cache_hits.load()),
        static_cast<unsigned long long>(s.cache_misses.load()));
    const dns::ResponseRateLimiter& rrl = server->root_server().rrl();
    if (rrl.config().enabled || rrl.dropped() + rrl.slipped() > 0) {
      std::printf("            rrl suppression %.1f%%\n",
                  rrl.suppression_rate() * 100.0);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;
  std::string error;

  if (opt.mode == Options::Mode::kServe) {
    netio::WireServer server(server_config(opt));
    if (!server.start(&error)) {
      std::fprintf(stderr, "serve failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("serving on %s (capacity %s, rrl %s); ctrl-c to stop\n",
                server.endpoint().to_string().c_str(),
                opt.capacity_qps > 0 ? std::to_string(opt.capacity_qps).c_str()
                                     : "unlimited",
                opt.rrl ? "on" : "off");
    // --duration-s 0 means forever.
    if (opt.duration_s > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opt.duration_s));
      server.stop();
      std::printf("served %llu queries\n",
                  static_cast<unsigned long long>(
                      server.stats().received.load()));
    } else {
      thread_local bool forever = true;
      while (forever) std::this_thread::sleep_for(std::chrono::seconds(3600));
    }
    return 0;
  }

  netio::WireServer* server = nullptr;
  netio::WireServer duel_server(server_config(opt));
  net::Endpoint target = opt.endpoint;
  if (opt.mode == Options::Mode::kDuel) {
    if (!duel_server.start(&error)) {
      std::fprintf(stderr, "duel server failed: %s\n", error.c_str());
      return 1;
    }
    server = &duel_server;
    target = duel_server.endpoint();
    std::printf("duel: loopback server on %s\n",
                target.to_string().c_str());
  }

  netio::LoadGenerator generator(generator_config(opt, target));
  const netio::GeneratorReport report = generator.run(&error);
  if (server != nullptr) server->stop();
  if (!error.empty()) {
    std::fprintf(stderr, "generator error: %s\n", error.c_str());
  }
  print_report(report, server);

  if (report.sent == 0 || report.answered == 0) {
    std::puts("FAIL: no traffic answered");
    return 1;
  }
  std::puts("OK");
  return 0;
}
