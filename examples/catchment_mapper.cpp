// Catchment mapper: the paper's measurement methodology in miniature.
//
// Builds the deployment, then maps K-Root's catchments two ways:
//   1. ground truth from the routing simulator, and
//   2. the way the paper had to do it — CHAOS hostname.bind queries from
//      vantage points, parsed per letter-specific identity formats.
// The two must agree; the demo prints both and the agreement rate.
#include <cstdio>
#include <map>
#include <string>

#include "rootstress.h"

using namespace rootstress;

int main() {
  anycast::RootDeployment::Config config;
  config.seed = 2015;
  config.topology.stub_count = 600;
  anycast::RootDeployment deployment(config);

  atlas::PopulationConfig pop;
  pop.vp_count = 800;
  pop.seed = 7;
  const auto vps = atlas::make_population(deployment.topology(), pop);

  const auto& k = deployment.service('K');
  const auto& routes = deployment.routing().routes(k.prefix);

  // Quiet network: give every site a no-load step so probes all answer.
  for (int id : k.site_ids) {
    deployment.site(id).begin_step(0.0, 1000.0, 0.0, net::SimTime(0));
  }

  util::Rng rng(99);
  std::map<std::string, int> measured;
  int agree = 0, answered = 0;
  for (const auto& vp : vps) {
    const auto& route = routes[static_cast<std::size_t>(vp.as_index)];
    if (!route.reachable()) continue;

    // The measurement path: real CHAOS query, real wire format. The site
    // decides whether the probe gets through and which server answers;
    // that server decodes the query bytes and its reply travels back as
    // bytes too.
    const auto query = dns::encode(dns::make_chaos_query(
        static_cast<std::uint16_t>(vp.id)));
    auto& site = deployment.site(route.site_id);
    const auto reply = site.probe(site.pick_server(vp.address), rng);
    if (!reply.answered) continue;
    const auto answer = site.server(reply.server - 1)
                            .dns()
                            .answer(*dns::decode(query), vp.address,
                                    net::SimTime(0));
    if (!answer) continue;
    const auto response = dns::decode(dns::encode(*answer));
    const auto txt = response->answers.front().txt_value();
    const auto identity = dns::parse_identity('K', *txt);
    if (!identity) continue;
    ++answered;
    ++measured["K-" + identity->site];
    const auto truth = deployment.find_site('K', identity->site);
    if (truth && *truth == route.site_id) ++agree;
  }

  std::puts("K-Root catchments as seen by CHAOS probing:");
  std::puts("site      VPs   (ground-truth ASes)");
  const auto sizes =
      bgp::catchment_sizes(routes, deployment.site_count());
  for (const auto& [label, count] : measured) {
    const auto site_id = deployment.find_site('K', label.substr(2));
    std::printf("  %-7s %4d   %5d\n", label.c_str(), count,
                site_id ? sizes.per_site[static_cast<std::size_t>(*site_id)]
                        : 0);
  }
  std::printf("\nCHAOS-vs-routing agreement: %d/%d (%.1f%%)\n", agree,
              answered, 100.0 * agree / answered);
  std::puts("(prior work validated CHAOS catchment mapping the same way; "
            "see Fan et al. 2013, cited in §2.1)");
  return 0;
}
