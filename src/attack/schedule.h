// Attack event timeline.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/clock.h"

namespace rootstress::attack {

/// One sustained high-rate event.
struct AttackEvent {
  net::SimInterval when{};
  double per_letter_qps = 5e6;  ///< offered rate per targeted letter
  std::string qname;            ///< the fixed query name used
  /// DNS payload bytes of the attack query/response (wire adds IP/UDP).
  double query_payload_bytes = 32.0;
  double response_payload_bytes = 490.0;
  /// Fraction of the query stream that is duplicate (source, qname) pairs
  /// within RRL windows — drives response suppression (§3.1 saw ~60%).
  double duplicate_fraction = 0.60;
  /// Fraction of the per-letter rate that leaks to letters not under
  /// attack (attack tooling touching all root hints). Small in rate but —
  /// being spoofed — it explodes the unique-source counts at D/L/M, the
  /// paper's Table 3 "L saw 6-13x unique IPs without being attacked".
  double spillover_fraction = 0.003;
};

/// An ordered set of events.
class AttackSchedule {
 public:
  AttackSchedule() = default;
  explicit AttackSchedule(std::vector<AttackEvent> events)
      : events_(std::move(events)) {}

  void add(AttackEvent event) { events_.push_back(std::move(event)); }
  const std::vector<AttackEvent>& events() const noexcept { return events_; }

  /// The event active at `t`, if any (events are assumed disjoint).
  const AttackEvent* active(net::SimTime t) const noexcept;

 private:
  std::vector<AttackEvent> events_;
};

}  // namespace rootstress::attack
