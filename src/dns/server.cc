#include "dns/server.h"

#include "dns/chaos.h"
#include "dns/edns.h"
#include "dns/wire.h"

namespace rootstress::dns {

RootServer::RootServer(char letter, std::string site, int server_index,
                       RrlConfig rrl)
    : letter_(letter),
      site_(std::move(site)),
      server_index_(server_index),
      identity_(server_identity(letter, site_, server_index)),
      rrl_(rrl) {}

std::optional<Message> RootServer::answer(const Message& query,
                                          net::Ipv4Addr source,
                                          net::SimTime now) {
  ++stats_.queries;
  if (query.header.qr || query.questions.empty()) {
    ++stats_.refused;
    return Message::response_to(query, Rcode::kFormErr);
  }

  if (is_chaos_query(query)) {
    // Diagnostics are exempt from RRL in our model: operators keep them
    // answerable so monitoring works (and our Atlas probes rely on it;
    // loss for probes is modeled at the site ingress, not here).
    ++stats_.chaos_queries;
    ++stats_.responses;
    return chaos_response(query);
  }

  const Question& q = query.questions.front();
  if (q.qclass != RrClass::kIn) {
    ++stats_.refused;
    return Message::response_to(query, Rcode::kRefused);
  }

  switch (rrl_.decide(source, q.qname.hash(), now)) {
    case RrlAction::kDrop:
      ++stats_.rrl_dropped;
      return std::nullopt;
    case RrlAction::kSlip: {
      ++stats_.rrl_slipped;
      Message slip = Message::response_to(query, Rcode::kNoError);
      slip.header.tc = true;  // invite retry over TCP
      return slip;
    }
    case RrlAction::kRespond:
      break;
  }
  ++stats_.responses;
  return answer_root_referral(query);
}

Message RootServer::chaos_response(const Message& query) const {
  Message m = Message::response_to(query, Rcode::kNoError);
  m.header.aa = true;
  m.answers.push_back(
      ResourceRecord::txt(hostname_bind(), RrClass::kCh, 0, identity_));
  return m;
}

Message RootServer::answer_root_referral(const Message& query) const {
  // The root answers queries for names it is not authoritative for with a
  // referral to the TLD; for the attack names (www.<num>.com) that is the
  // .com delegation: 13 NS records plus glue, which is what makes real
  // root responses ~480-495 bytes (§3.1).
  Message m = Message::response_to(query, Rcode::kNoError);
  m.header.aa = false;
  const Question& q = query.questions.front();
  Name tld = q.qname;
  while (tld.label_count() > 1) tld = tld.parent();

  for (char gtld = 'a'; gtld <= 'm'; ++gtld) {
    const std::string host = std::string(1, gtld) + ".gtld-servers.net";
    const Name ns_name = *Name::parse(host);
    m.authority.push_back(ResourceRecord::ns(tld, 172800, ns_name));
    m.additional.push_back(ResourceRecord::a(
        ns_name, 172800,
        0xc02a0000u + static_cast<std::uint32_t>(gtld - 'a') * 0x100u + 30u));
  }

  // EDNS: echo an OPT record when the client sent one, and fit the
  // response into the client's advertised UDP buffer (512 without EDNS)
  // by shedding glue, then truncating.
  const std::size_t limit = max_udp_response_size(query);
  const bool client_edns = edns_info(query).has_value();
  if (client_edns) add_edns(m, 4096);
  while (encode(m).size() > limit && !m.additional.empty()) {
    // Keep the OPT record (last) if present; drop glue from the front.
    if (m.additional.size() == 1 && client_edns) break;
    m.additional.erase(m.additional.begin());
  }
  if (encode(m).size() > limit) {
    m.header.tc = true;
    m.authority.clear();
    m.additional.clear();
    if (client_edns) add_edns(m, 4096);
  }
  return m;
}

}  // namespace rootstress::dns
