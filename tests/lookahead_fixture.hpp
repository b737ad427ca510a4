// One full discrete run under the online "lookahead:horizon=N" policy,
// shared by the lookahead, exact-search and integration tests: the
// lifetime, the battery picked at every new_job event and the rollout
// count the policy reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "kibam/bank.hpp"
#include "load/trace.hpp"
#include "opt/policies.hpp"
#include "sched/simulator.hpp"

namespace bsched::opt::testutil {

struct lookahead_run {
  double lifetime_min = 0;
  std::vector<std::size_t> decisions;  ///< Battery per new_job event.
  std::uint64_t rollouts = 0;
};

inline lookahead_run run_lookahead(const kibam::bank& bank,
                                   const load::trace& load,
                                   std::size_t horizon_jobs) {
  const std::unique_ptr<sched::policy> pol = lookahead_policy(horizon_jobs);
  const sched::sim_result sim = sched::simulate_discrete(bank, load, *pol);
  lookahead_run out{sim.lifetime_min, {}, pol->stats().rollouts};
  for (const sched::decision& d : sim.decisions) {
    out.decisions.push_back(d.battery);
  }
  return out;
}

}  // namespace bsched::opt::testutil
