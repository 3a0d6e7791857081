#include "attack/schedule.h"

namespace rootstress::attack {

const AttackEvent* AttackSchedule::active(net::SimTime t) const noexcept {
  for (const auto& event : events_) {
    if (event.when.contains(t)) return &event;
  }
  return nullptr;
}

}  // namespace rootstress::attack
