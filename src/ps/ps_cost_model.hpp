// Analytic per-iteration communication cost of the Parameter-Server
// topology under the alpha-beta model, for comparison against the
// decentralized AllReduce costs of Table I.
//
// Modeling choice (matches the simulator): the P workers' pushes travel in
// parallel, so the inbound phase costs one transfer; the server's replies
// are serialized on its uplink, so the outbound phase costs P transfers.
// One PS round therefore costs (P + 1)(alpha + n beta) — linear in P, which
// is exactly why the paper's decentralized O(k logP) tree is preferable on
// flat networks once P grows.
#pragma once

#include <cstdint>

#include "comm/network_model.hpp"

namespace gtopk::ps {

/// gTop-k PS round: n = 2k elements ([V, I]) each way.
double ps_gtopk_time_s(const comm::NetworkModel& net, int workers, std::uint64_t k);

}  // namespace gtopk::ps
