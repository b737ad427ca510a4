#include "api/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <memory>
#include <unordered_map>

#include "kibam/bank.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace bsched::api {

std::unique_ptr<sched::policy> engine::resolve_policy(
    const scenario& scn) const {
  return opts_.policies.make(scn.policy);
}

run_result engine::run(const scenario& scn) const {
  return run_in(scn, nullptr);
}

run_result engine::run_in(const scenario& scn,
                          const kibam::bank* bank) const {
  require(!scn.batteries.empty(), "engine: scenario needs >= 1 battery");
  const load::trace trace = scn.load.materialize();
  const std::unique_ptr<sched::policy> pol = resolve_policy(scn);
  run_result out;
  // The simulator core binds the policy to the run's model (bank +
  // forecast) before stepping, so a model-aware policy — exact search,
  // online lookahead, custom registrations — plans against exactly the
  // state representation the run advances.
  switch (scn.model) {
    case fidelity::discrete:
      out.sim = bank != nullptr
                    ? sched::simulate_discrete(*bank, trace, *pol, scn.sim)
                    : sched::simulate_discrete(scn.batteries, trace, *pol,
                                               scn.sim, scn.steps);
      break;
    case fidelity::continuous:
      out.sim = sched::simulate_continuous(scn.batteries, trace, *pol,
                                           scn.sim);
      break;
  }
  out.policy_name = pol->name();
  out.search = pol->stats();
  return out;
}

sweep_stats engine::run_sweep(const sweep& sw, result_sink& sink,
                              std::size_t n_threads) const {
  sweep_stats stats;
  const std::size_t total = sw.cells.size() * sw.replications;
  if (total == 0) return stats;
  stats.runs = total;

  BSCHED_TRACE_SPAN(sweep_span, "engine.run_sweep");
  // Worker threads open their spans against this id explicitly — the
  // per-thread parent stack does not cross threads. (Unread when the
  // BSCHED_OBS=OFF macros drop their arguments.)
  [[maybe_unused]] const std::uint64_t sweep_parent = sweep_span.id();

  // Dedup pass: one job per distinct effective scenario, in first-seen
  // grid order. Duplicate (cell, replication) items — repeated grid cells,
  // or replications of a deterministic cell, where re-seeding is a no-op —
  // share the job and are later delivered as cache hits. Deterministic
  // cells key (and copy) once per cell, not once per replication.
  constexpr std::size_t none = static_cast<std::size_t>(-1);
  std::vector<std::size_t> job_of(total);
  std::vector<std::size_t> first_item;  // grid item that evaluates the job
  std::vector<std::size_t> last_item;   // after it, the result is dropped
  std::vector<scenario> jobs;
  {
    // Load groups once for the whole grid, so pair_by_load replication
    // does not rescan the cells per (cell, replication).
    const std::vector<std::size_t> groups =
        sw.reseed && sw.pair_by_load ? load_groups(sw)
                                     : std::vector<std::size_t>{};
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t cell = 0; cell < sw.cells.size(); ++cell) {
      const bool varies = sw.reseed && stochastic(sw.cells[cell]);
      std::size_t repeated_job = none;
      for (std::size_t rep = 0; rep < sw.replications; ++rep) {
        const std::size_t item = cell * sw.replications + rep;
        std::size_t job;
        if (repeated_job != none) {
          job = repeated_job;
        } else if (varies) {
          scenario eff = groups.empty()
                             ? replicate(sw, cell, rep)
                             : replicate(sw, cell, rep, groups);
          const auto [it, inserted] =
              index.try_emplace(cell_key(eff), jobs.size());
          if (inserted) {
            jobs.push_back(std::move(eff));
            first_item.push_back(item);
            last_item.push_back(item);
          }
          job = it->second;
        } else {
          // Deterministic cell: key it in place, copy only on insertion.
          const auto [it, inserted] =
              index.try_emplace(cell_key(sw.cells[cell]), jobs.size());
          if (inserted) {
            jobs.push_back(sw.cells[cell]);
            first_item.push_back(item);
            last_item.push_back(item);
          }
          job = it->second;
          repeated_job = job;
        }
        job_of[item] = job;
        last_item[job] = item;
      }
    }
  }
  stats.evaluated = jobs.size();
  stats.cache_hits = total - jobs.size();

  if (n_threads == 0) n_threads = util::auto_width();
  n_threads = std::min(n_threads, jobs.size());

  std::vector<run_result> results(jobs.size());
  std::vector<std::atomic<bool>> done(jobs.size());

  // Ordered streaming delivery: after every evaluation, whichever worker
  // holds the mutex flushes the contiguous run of grid items whose jobs
  // have completed. The sink therefore sees results strictly in grid
  // order from one thread at a time, and the last evaluation to finish
  // drains the tail — no post-join sweep-up needed. A throwing sink
  // (contract violation) stops further deliveries; the first exception
  // is rethrown on the calling thread once every worker has finished.
  std::mutex deliver_mutex;
  std::size_t delivered = 0;                // guarded by deliver_mutex
  std::exception_ptr sink_error = nullptr;  // guarded by deliver_mutex
  const auto flush = [&]() {
    const std::scoped_lock lock(deliver_mutex);
    while (delivered < total &&
           done[job_of[delivered]].load(std::memory_order_acquire)) {
      const std::size_t item = delivered;
      const std::size_t j = job_of[item];
      BSCHED_COUNTER_ADD("engine.items_total", 1);
      if (item != first_item[j]) BSCHED_COUNTER_ADD("engine.cache_hits_total", 1);
      if (!results[j].ok()) {
        ++stats.failures;
        BSCHED_COUNTER_ADD("engine.failures_total", 1);
      }
      if (sink_error == nullptr) {
        try {
          sink.consume(sweep_result{item / sw.replications,
                                    item % sw.replications,
                                    item != first_item[j], results[j]});
        } catch (...) {
          sink_error = std::current_exception();
        }
      }
      // Nothing after a job's last grid item reads its result: drop it
      // so retained results track the delivery frontier. (Workers take
      // no backpressure from that frontier, so a slow early job can
      // still buffer later completions until it delivers.)
      if (item == last_item[j]) results[j] = run_result{};
      ++delivered;
    }
  };

  // Dynamic scheduling: each worker pulls the next job in grid order, so
  // long jobs (exact searches on heavy loads) never queue behind each
  // other on one thread while others idle. A discrete job runs on a bank
  // from its worker's cache of banks by (batteries, steps), so a worker
  // builds each bank shape once, not once per job. Continuous jobs, empty
  // banks and banks that fail to build run as run() does, which reports
  // the error.
  struct cached_bank {
    explicit cached_bank(const scenario& scn)
        : key(&scn), bank(scn.batteries, scn.steps) {}
    const scenario* key;  // a job with this (batteries, steps)
    kibam::bank bank;
  };
  constexpr std::size_t max_cached_banks = 8;  // bounds memory per worker
  std::vector<std::vector<std::unique_ptr<cached_bank>>> caches(n_threads);
  const auto bank_for = [&](std::size_t worker,
                            const scenario& scn) -> const kibam::bank* {
    if (scn.model != fidelity::discrete || scn.batteries.empty()) {
      return nullptr;
    }
    auto& cache = caches[worker];
    const auto hit = std::find_if(cache.begin(), cache.end(), [&](auto& m) {
      return m->key->batteries == scn.batteries && m->key->steps == scn.steps;
    });
    if (hit != cache.end()) return &(*hit)->bank;
    try {
      if (cache.size() == max_cached_banks) cache.erase(cache.begin());
      cache.push_back(std::make_unique<cached_bank>(scn));
    } catch (...) {
      return nullptr;  // run() reproduces the build error
    }
    BSCHED_COUNTER_ADD("engine.bank_builds_total", 1);
    return &cache.back()->bank;
  };

  util::parallel_for(jobs.size(), n_threads,
                     [&](std::size_t worker, std::size_t j) {
    try {
      BSCHED_TRACE_SPAN(job_span, "engine.job", sweep_parent);
      results[j] = run_in(jobs[j], bank_for(worker, jobs[j]));
    } catch (const std::exception& e) {
      results[j] = run_result{};
      results[j].error = e.what();
    } catch (...) {
      results[j] = run_result{};
      results[j].error = "unknown error";
    }
    done[j].store(true, std::memory_order_release);
    flush();
  });
  BSCHED_ASSERT(delivered == total);
  if (sink_error != nullptr) std::rethrow_exception(sink_error);
  return stats;
}

sweep_stats engine::run_sweep(const sweep& sw,
                              std::function<void(const sweep_result&)> fn,
                              std::size_t n_threads) const {
  callback_sink sink{std::move(fn)};
  return run_sweep(sw, sink, n_threads);
}

std::vector<run_result> engine::run_batch(std::span<const scenario> scenarios,
                                          std::size_t n_threads) const {
  // One replication of every cell, no re-seeding: the scenarios run with
  // exactly the seeds they declare, and results land positionally.
  // Duplicate scenarios are served from the sweep's cell cache, which is
  // observationally identical to evaluating them again (scenarios are
  // pure functions of their value).
  sweep sw;
  sw.cells.assign(scenarios.begin(), scenarios.end());
  sw.replications = 1;
  sw.reseed = false;
  std::vector<run_result> out(scenarios.size());
  run_sweep(
      sw, [&](const sweep_result& r) { out[r.cell] = r.result; }, n_threads);
  return out;
}

std::vector<std::string> engine::policy_names() const {
  std::vector<std::string> out = opts_.policies.names();
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace bsched::api
