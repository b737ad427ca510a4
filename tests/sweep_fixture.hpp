// A sweep grid that reaches every branch of run_sweep's per-worker bank
// cache, shared by the Sweep* differential test and its Stress* twin:
// two bank shapes (2 and 3 x B1) on the default grid and on a coarser
// one, continuous-fidelity cells (which bypass the cache), duplicate
// cells (served as cache hits), and a cell whose bank cannot be built.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <vector>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "kibam/parameters.hpp"
#include "load/discretize.hpp"

namespace bsched::api::testutil {

inline sweep bank_cache_grid(std::size_t replications) {
  const auto cell = [](std::size_t batteries, const char* load,
                       const char* policy, fidelity model,
                       load::step_sizes steps) {
    return scenario{.label = {},
                    .batteries = bank(batteries, kibam::battery_b1()),
                    .load = load_spec::parse(load),
                    .policy = policy,
                    .model = model,
                    .steps = steps,
                    .sim = {}};
  };
  const load::step_sizes coarse{.time_step_min = 0.02,
                                .charge_unit_amin = 0.02};
  sweep sw;
  for (const std::size_t batteries : {2u, 3u}) {
    for (const load::step_sizes& steps : {load::step_sizes{}, coarse}) {
      for (const char* load : {"random:count=12,p=0.5,seed=3",
                               "markov:count=12,p=0.6,seed=4"}) {
        for (const char* policy : {"best_of_n", "lookahead:horizon=2"}) {
          sw.cells.push_back(
              cell(batteries, load, policy, fidelity::discrete, steps));
        }
      }
    }
    // Exact search on a deterministic load: non-zero search stats.
    sw.cells.push_back(cell(batteries, "CL alt", "opt", fidelity::discrete,
                            {}));
  }
  sw.cells.push_back(cell(2, "random:count=12,p=0.5,seed=3", "best_of_n",
                          fidelity::continuous, {}));
  // Exact search rejects continuous fidelity: an error from run().
  sw.cells.push_back(cell(3, "CL alt", "opt", fidelity::continuous, {}));
  // A grid with a zero time step: the bank build itself throws.
  sw.cells.push_back(cell(2, "CL alt", "round_robin", fidelity::discrete,
                          {.time_step_min = 0.0, .charge_unit_amin = 0.01}));
  sw.cells.push_back(sw.cells[8]);   // a search result, replayed
  sw.cells.push_back(sw.cells[19]);  // an error, replayed
  sw.replications = replications;
  sw.seed = 41;
  return sw;
}

/// Every item of `sw` from engine::run on its effective scenario, in grid
/// order; a run() that throws becomes a result carrying its message, as
/// run_sweep reports it.
inline std::vector<run_result> per_item_runs(const engine& eng,
                                             const sweep& sw) {
  std::vector<run_result> out;
  for (std::size_t c = 0; c < sw.cells.size(); ++c) {
    for (std::size_t r = 0; r < sw.replications; ++r) {
      run_result res;
      try {
        res = eng.run(replicate(sw, c, r));
      } catch (const std::exception& e) {
        res.error = e.what();
      }
      out.push_back(std::move(res));
    }
  }
  return out;
}

/// Checks run_sweep on `threads` workers against `want` (per_item_runs)
/// field for field: lifetime, decisions, search stats and error string.
inline void expect_sweep_equals(const engine& eng, const sweep& sw,
                                const std::vector<run_result>& want,
                                std::size_t threads) {
  std::vector<run_result> got(want.size());
  eng.run_sweep(
      sw,
      [&](const sweep_result& r) {
        got[r.cell * sw.replications + r.replication] = r.result;
      },
      threads);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i])
        << threads << " threads, item " << i << " (cell "
        << i / sw.replications << "): '" << got[i].error << "' vs '"
        << want[i].error << "'";
  }
}

}  // namespace bsched::api::testutil
