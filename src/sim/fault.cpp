#include "sim/fault.hpp"

#include <algorithm>
#include <cstdio>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace rips::sim {

namespace {

/// Stateless mix of the plan seed with a message identity; the result is a
/// uniform u64 independent of evaluation order.
u64 mix(u64 seed, u64 op_id, NodeId from, NodeId to, i64 attempt) {
  u64 s = seed;
  s ^= 0x9E3779B97F4A7C15ULL + op_id;
  s = splitmix64(s);
  s ^= (static_cast<u64>(static_cast<u32>(from)) << 32) |
       static_cast<u64>(static_cast<u32>(to));
  s = splitmix64(s);
  s ^= static_cast<u64>(attempt);
  return splitmix64(s);
}

double to_unit(u64 x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

/// Crash order: by time, ties broken by node id.
void sort_by_time(std::vector<CrashFault>& crashes) {
  std::sort(crashes.begin(), crashes.end(),
            [](const CrashFault& a, const CrashFault& b) {
              return a.time_ns != b.time_ns ? a.time_ns < b.time_ns
                                            : a.node < b.node;
            });
}

}  // namespace

FaultPlan FaultPlan::generate(u64 seed, i32 num_nodes, const FaultSpec& spec) {
  RIPS_CHECK_MSG(num_nodes >= 1, "fault plan needs a machine");
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = spec.drop_prob;

  Rng rng(seed ^ 0xFA117ULL);
  if (spec.crash_mtbf_ns > 0.0 && spec.horizon_ns > 0) {
    const i32 cap = num_nodes - 1;
    std::vector<char> crashed(static_cast<size_t>(num_nodes), 0);
    double t = 0.0;
    while (static_cast<i32>(plan.crashes.size()) < cap) {
      t += rng.next_exponential(spec.crash_mtbf_ns);
      if (t >= static_cast<double>(spec.horizon_ns)) break;
      const NodeId victim =
          static_cast<NodeId>(rng.next_below(static_cast<u64>(num_nodes)));
      if (crashed[static_cast<size_t>(victim)]) continue;  // fail-stop: once
      crashed[static_cast<size_t>(victim)] = 1;
      plan.crashes.push_back({victim, static_cast<SimTime>(t)});
    }
  }
  sort_by_time(plan.crashes);
  return plan;
}

std::string FaultPlan::summary() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "faults[seed=%llu crashes=%zu drop=%.3f]",
                static_cast<unsigned long long>(seed), crashes.size(),
                drop_prob);
  return buf;
}

FaultInjector::FaultInjector(const FaultPlan& plan, i32 num_nodes)
    : plan_(plan) {
  RIPS_CHECK(num_nodes >= 1);
  RIPS_CHECK_MSG(plan_.drop_prob >= 0.0 && plan_.drop_prob < 1.0,
                 "drop probability must be in [0, 1)");
  for (const CrashFault& c : plan_.crashes) {
    RIPS_CHECK_MSG(c.node >= 0 && c.node < num_nodes,
                   "crash fault names a node outside the machine");
  }
  sort_by_time(plan_.crashes);
}

bool FaultInjector::drop_message(u64 op_id, NodeId from, NodeId to,
                                 i64 attempt) const {
  if (plan_.drop_prob <= 0.0) return false;
  return to_unit(mix(plan_.seed, op_id, from, to, attempt)) < plan_.drop_prob;
}

}  // namespace rips::sim
