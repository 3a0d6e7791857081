#include "sim/fluid.h"

#include <gtest/gtest.h>

namespace rootstress::sim {
namespace {

anycast::RootDeployment::Config small_config() {
  anycast::RootDeployment::Config config;
  config.seed = 3;
  config.topology.stub_count = 250;
  return config;
}

TEST(Fluid, ServiceLoadConservesTraffic) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  const auto& svc = deployment.service('K');
  ServiceLoad load;
  compute_service_load_into(deployment, svc, botnet, legit, 5e6, 40e3, load);

  double attack_total = load.unrouted_attack;
  double legit_total = load.unrouted_legit;
  for (int id = 0; id < deployment.site_count(); ++id) {
    attack_total += load.attack_qps[static_cast<std::size_t>(id)];
    legit_total += load.legit_qps[static_cast<std::size_t>(id)];
    // Traffic only lands on K's own sites.
    if (load.attack_qps[static_cast<std::size_t>(id)] > 0 ||
        load.legit_qps[static_cast<std::size_t>(id)] > 0) {
      EXPECT_EQ(deployment.site(id).letter(), 'K');
    }
  }
  EXPECT_NEAR(attack_total, 5e6, 1.0);
  EXPECT_NEAR(legit_total, 40e3, 1.0);
}

TEST(Fluid, NoAttackNoAttackLoad) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  ServiceLoad load;
  compute_service_load_into(deployment, deployment.service('D'), botnet, legit,
                            0.0, 40e3, load);
  for (const double qps : load.attack_qps) EXPECT_DOUBLE_EQ(qps, 0.0);
  EXPECT_DOUBLE_EQ(load.unrouted_attack, 0.0);
}

TEST(Fluid, UplinkGbpsMath) {
  anycast::RootDeployment deployment(small_config());
  const auto& site = deployment.site(*deployment.find_site('K', "AMS"));
  // 1M q/s of 32B-payload queries: ingress = 1e6 * 60B * 8 = 0.48 Gb/s.
  // Served = min(1e6, capacity=1.3e6) = 1e6; egress with 40% suppression
  // = 1e6 * 0.6 * 518 * 8 = 2.49 Gb/s.
  const double gbps = site_uplink_gbps(site, 1e6, 32.0, 490.0, 0.4);
  EXPECT_NEAR(gbps, 0.48 + 2.486, 0.02);
}

TEST(Fluid, UplinkClampsAtCapacity) {
  anycast::RootDeployment deployment(small_config());
  const auto& site = deployment.site(*deployment.find_site('B', "LAX"));
  const double cap = site.spec().capacity_qps;
  const double at_5m = site_uplink_gbps(site, 5e6, 32.0, 490.0, 0.0);
  const double at_10m = site_uplink_gbps(site, 10e6, 32.0, 490.0, 0.0);
  // Ingress keeps growing, egress is clamped at capacity.
  const double ingress_delta = (10e6 - 5e6) * 60.0 * 8.0 / 1e9;
  EXPECT_NEAR(at_10m - at_5m, ingress_delta, 0.01);
  EXPECT_GT(at_5m, cap * 518.0 * 8.0 / 1e9);  // includes egress
}

TEST(Fluid, UplinkSuppressionClampsToUnitRange) {
  anycast::RootDeployment deployment(small_config());
  const auto& site = deployment.site(*deployment.find_site('K', "AMS"));
  // Suppression outside [0, 1] clamps: > 1 kills all egress (ingress
  // remains), < 0 behaves as no suppression.
  const double over = site_uplink_gbps(site, 1e6, 32.0, 490.0, 1.7);
  const double full = site_uplink_gbps(site, 1e6, 32.0, 490.0, 1.0);
  EXPECT_DOUBLE_EQ(over, full);
  EXPECT_NEAR(full, 1e6 * 60.0 * 8.0 / 1e9, 1e-9);  // ingress only
  const double under = site_uplink_gbps(site, 1e6, 32.0, 490.0, -0.5);
  const double none = site_uplink_gbps(site, 1e6, 32.0, 490.0, 0.0);
  EXPECT_DOUBLE_EQ(under, none);
  EXPECT_GT(none, full);
}

TEST(Fluid, UplinkZeroOfferedIsZero) {
  anycast::RootDeployment deployment(small_config());
  const auto& site = deployment.site(*deployment.find_site('K', "AMS"));
  EXPECT_DOUBLE_EQ(site_uplink_gbps(site, 0.0, 32.0, 490.0, 0.0), 0.0);
}

TEST(Fluid, IntoVariantMatchesAndReusesBuffers) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  const auto& svc = deployment.service('K');

  ServiceLoad reused;
  compute_service_load_into(deployment, svc, botnet, legit, 5e6, 40e3,
                            reused);

  // Rewriting the same buffer — including the attack→no-attack edge that
  // must zero stale per-site attack entries — matches a fresh compute.
  const double* before = reused.attack_qps.data();
  compute_service_load_into(deployment, svc, botnet, legit, 0.0, 40e3,
                            reused);
  EXPECT_EQ(reused.attack_qps.data(), before);  // no reallocation
  ServiceLoad fresh;
  compute_service_load_into(deployment, svc, botnet, legit, 0.0, 40e3, fresh);
  EXPECT_EQ(reused.attack_qps, fresh.attack_qps);
  EXPECT_EQ(reused.legit_qps, fresh.legit_qps);
  EXPECT_DOUBLE_EQ(reused.unrouted_legit, fresh.unrouted_legit);
  for (const double qps : reused.attack_qps) EXPECT_DOUBLE_EQ(qps, 0.0);
  EXPECT_DOUBLE_EQ(reused.unrouted_attack, 0.0);
}

}  // namespace
}  // namespace rootstress::sim
