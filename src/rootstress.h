// The RootStress facade: one include, two entry points.
//
//   #include "rootstress.h"
//
//   // One scenario, evaluated:
//   auto report = rootstress::run(
//       rootstress::sim::ScenarioBuilder::november_2015().vp_count(800));
//
//   // A whole parameter study, cached and parallel:
//   rootstress::sweep::Campaign campaign;
//   campaign.base = rootstress::sim::ScenarioBuilder::november_2015()
//                       .fluid_only().build();
//   campaign.add(rootstress::sweep::Axis::attack_qps({2.5e6, 5e6, 1e7}))
//           .add(rootstress::sweep::Axis::capacity_scale({0.5, 1.0, 2.0}));
//   auto grid = rootstress::run_campaign(campaign);
//
// Fine-grained consumers should include the specific module headers; this
// header re-exports everything and declares the facade functions.
#pragma once

// Foundations.
#include "util/hll.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time_series.h"

// Network vocabulary and protocol substrates.
#include "dns/chaos.h"
#include "dns/edns.h"
#include "dns/rrl.h"
#include "dns/server.h"
#include "dns/wire.h"
#include "net/clock.h"
#include "net/geo.h"
#include "net/ipv4.h"

// Routing and deployment.
#include "anycast/deployment.h"
#include "bgp/catchment.h"
#include "bgp/collector.h"
#include "bgp/simulator.h"

// Workloads and measurement.
#include "atlas/binning.h"
#include "atlas/cleaning.h"
#include "atlas/dnsmon.h"
#include "atlas/population.h"
#include "attack/events2015.h"
#include "attack/events2016.h"
#include "rssac/report.h"

// Simulation and analyses.
#include "analysis/behavior.h"
#include "analysis/collateral.h"
#include "analysis/correlation.h"
#include "analysis/distributions.h"
#include "analysis/event_size.h"
#include "analysis/flips.h"
#include "analysis/letter_flips.h"
#include "analysis/reachability.h"
#include "analysis/route_changes.h"
#include "analysis/rtt.h"
#include "analysis/servers.h"
#include "analysis/site_series.h"
#include "analysis/site_stability.h"
#include "resolver/dataset.h"
#include "resolver/population.h"
#include "sim/engine.h"
#include "sim/scenario.h"

// Simulation construction.
#include "sim/scenario_builder.h"

// Fault and chaos schedules.
#include "fault/runtime.h"
#include "fault/schedule.h"

// Reactive defense playbooks.
#include "playbook/actuator.h"
#include "playbook/controller.h"
#include "playbook/rules.h"
#include "playbook/signal.h"

// The contribution layer.
#include "anycast/defense.h"
#include "core/evaluation.h"
#include "core/policy_model.h"
#include "core/report_writer.h"
#include "core/whatif.h"

// Multi-scenario campaigns.
#include "sweep/cache.h"
#include "sweep/campaign.h"
#include "sweep/executor.h"
#include "sweep/progress.h"
#include "sweep/runner.h"
#include "sweep/summary.h"

namespace rootstress {

/// Runs one scenario end to end: simulate, bin, summarize per letter.
core::EvaluationReport run(const sim::ScenarioConfig& config);

/// Builder overload: validates (throwing std::invalid_argument on a
/// broken invariant) and runs.
core::EvaluationReport run(const sim::ScenarioBuilder& builder);

/// Expands and executes a campaign: cross-product run matrix, cached,
/// outer-parallel under a shared lane budget. See sweep/runner.h.
sweep::CampaignResult run_campaign(const sweep::Campaign& campaign,
                                   const sweep::CampaignOptions& options = {});

}  // namespace rootstress
