#include "bgp/catchment.h"

#include <gtest/gtest.h>

namespace rootstress::bgp {
namespace {

std::vector<RouteChoice> sample_routes() {
  std::vector<RouteChoice> routes(6);
  routes[0] = {RouteClass::kOrigin, 0, 0, net::Asn(1)};
  routes[1] = {RouteClass::kProvider, 0, 2, net::Asn(1)};
  routes[2] = {RouteClass::kProvider, 1, 3, net::Asn(2)};
  routes[3] = {RouteClass::kPeer, 1, 1, net::Asn(2)};
  routes[4] = {RouteClass::kProvider, 1, 2, net::Asn(2)};
  routes[5] = {};  // unreachable
  return routes;
}

TEST(Catchment, SizesSumToAsCount) {
  const auto routes = sample_routes();
  const auto sizes = catchment_sizes(routes, 2);
  ASSERT_EQ(sizes.per_site.size(), 2u);
  EXPECT_EQ(sizes.per_site[0], 2);
  EXPECT_EQ(sizes.per_site[1], 3);
  EXPECT_EQ(sizes.unreachable, 1);
  EXPECT_EQ(sizes.per_site[0] + sizes.per_site[1] + sizes.unreachable, 6);
}

TEST(Catchment, HandlesOutOfRangeSiteIds) {
  std::vector<RouteChoice> routes(1);
  routes[0] = {RouteClass::kProvider, 99, 1, net::Asn(1)};
  const auto sizes = catchment_sizes(routes, 2);
  EXPECT_EQ(sizes.unreachable, 1);
}

}  // namespace
}  // namespace rootstress::bgp
