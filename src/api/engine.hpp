// The scenario engine: turns declarative scenarios into simulation runs,
// single or batched across worker threads.
//
// Every policy — blind and model-aware alike — resolves through the
// string registry (sched/registry.hpp); the engine's default registry is
// opt::model_registry(), so "opt", "worst" and "lookahead:horizon=N" are
// ordinary entries next to "best_of_n" or "random:seed=N". Model-aware
// policies receive the scenario's bank model and load forecast through
// the binding hook the simulator core invokes once per run
// (sched::policy::bind_model); the exact schedules plan there (and
// reject continuous fidelity), while "lookahead" plans online at each
// decision through the backend's model_view — so it runs under random
// loads and at either fidelity. Planning statistics are reported in
// run_result::search for all of them.
//
// `run_sweep` evaluates a replicated scenario grid (api/sweep.hpp) on
// `n_threads` workers — util::parallel_for, so the caller is one of them —
// streaming every completed run_result through a result_sink in
// deterministic grid order and caching duplicate cells by value; workers
// pull jobs one at a time, so long jobs run side by side.
// `run_batch` is a thin collecting sink over run_sweep. Scenarios are
// self-contained (per-scenario RNG seeding, no shared state), so sweep
// aggregates and batch results are byte-identical whatever the thread
// count — determinism is asserted in tests/test_api.cpp and
// tests/test_sweep.cpp.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "api/result.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "kibam/bank.hpp"
#include "opt/policies.hpp"
#include "sched/registry.hpp"
#include "sched/simulator.hpp"

namespace bsched::api {

struct engine_options {
  /// Policy name resolution; extend a copy to register custom policies.
  /// The default includes the model-aware "opt" / "worst" /
  /// "lookahead:horizon=N" next to the blind built-ins; pass
  /// opt::model_registry(custom_search_options) to change the exact
  /// search's defaults (spec parameters like "opt:max_nodes=N" override
  /// per scenario).
  sched::registry policies = opt::model_registry();
};

class engine {
 public:
  engine() : engine(engine_options{}) {}
  explicit engine(engine_options opts) : opts_(std::move(opts)) {}

  /// Evaluates one scenario. Throws bsched::error on invalid scenarios
  /// (empty bank, unknown policy or load, horizon exceeded, ...).
  [[nodiscard]] run_result run(const scenario& scn) const;

  /// Evaluates a replicated scenario grid on `n_threads` workers (0 =
  /// auto, util::auto_width: the hardware concurrency, or 1 when called
  /// from inside another multi-threaded region), pushing each completed
  /// result through `sink` as it finishes — in grid order (cells outer,
  /// replications inner), serialized, so sink aggregates are
  /// deterministic whatever the thread count. Distinct cells are
  /// evaluated once and replayed for duplicates (sweep_result::
  /// cache_hit); per-cell failures are captured in run_result::error,
  /// never thrown. Returns the run/evaluation/cache-hit/failure counts.
  sweep_stats run_sweep(const sweep& sw, result_sink& sink,
                        std::size_t n_threads = 0) const;

  /// Callable convenience overload of run_sweep.
  sweep_stats run_sweep(const sweep& sw,
                        std::function<void(const sweep_result&)> fn,
                        std::size_t n_threads = 0) const;

  /// Evaluates every scenario on `n_threads` workers (0 = auto, as for
  /// run_sweep). Results are positionally aligned with
  /// the input and identical to a sequential run; per-scenario failures
  /// are reported in run_result::error. Implemented as a collecting sink
  /// over run_sweep (one replication, no re-seeding), so scenarios run
  /// with exactly the seeds they declare.
  [[nodiscard]] std::vector<run_result> run_batch(
      std::span<const scenario> scenarios, std::size_t n_threads = 0) const;

  /// Builds a scenario's policy from the registry. The policy is not yet
  /// bound to a model — the simulator core invokes its binding hook when
  /// a run starts (so a model-aware policy built here plans only once it
  /// actually runs).
  [[nodiscard]] std::unique_ptr<sched::policy> resolve_policy(
      const scenario& scn) const;

  /// All registered policy names, sorted.
  [[nodiscard]] std::vector<std::string> policy_names() const;

 private:
  /// run(), but a discrete run steps `bank` — a caller-owned bank built
  /// from scn's (batteries, steps) — instead of building its own (null:
  /// as run()). run_sweep's workers reuse one bank per shape this way.
  [[nodiscard]] run_result run_in(const scenario& scn,
                                  const kibam::bank* bank) const;

  engine_options opts_;
};

}  // namespace bsched::api
