#include "bgp/catchment.h"

namespace rootstress::bgp {

CatchmentSizes catchment_sizes(const std::vector<RouteChoice>& routes,
                               int site_count) {
  CatchmentSizes out;
  out.per_site.assign(static_cast<std::size_t>(site_count), 0);
  for (const auto& route : routes) {
    if (route.site_id >= 0 && route.site_id < site_count) {
      ++out.per_site[static_cast<std::size_t>(route.site_id)];
    } else {
      ++out.unreachable;
    }
  }
  return out;
}

CatchmentSizes catchment_sizes(std::span<const std::int32_t> site_of,
                               int site_count) {
  CatchmentSizes out;
  out.per_site.assign(static_cast<std::size_t>(site_count), 0);
  for (const std::int32_t site : site_of) {
    if (site >= 0 && site < site_count) {
      ++out.per_site[static_cast<std::size_t>(site)];
    } else {
      ++out.unreachable;
    }
  }
  return out;
}

}  // namespace rootstress::bgp
