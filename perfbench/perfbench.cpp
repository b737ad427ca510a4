// perfbench — the repository benchmark: three workloads that drive the
// library's three ways of computing results (exact search, in-process
// sweeps, the socket fleet), each pass checked against a reference.
//
//   perfbench --workload table5_exact|random_sweep|fleet_loopback
//             --seed N --seconds S --trace 0|1
//             [--tiny] [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs untraced and
// traced passes back to back and reports the per-layer breakdown. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
// Every layer is measured from outside: calls into public functions are
// timed here, and counters come from the library's public surfaces
// (obs::registry, sweep_stats, run_result::search, coordinator counters).
// See README.md next to this file.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "kibam/parameters.hpp"
#include "load/jobs.hpp"
#include "obs/metrics.hpp"
#include "svc/coordinator.hpp"
#include "svc/worker.hpp"
#include "timed_policy.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace api = bsched::api;
namespace dist = bsched::dist;
namespace svc = bsched::svc;
namespace load = bsched::load;

// --- command line ----------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< Self-test sizes.
  bool corrupt_reference = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "table5_exact|random_sweep|fleet_loopback --seed N "
               "--seconds S --trace 0|1 [--tiny] "
               "[--corrupt-reference]\n",
               why.c_str());
  std::exit(2);
}

options parse_args(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// --- measurement helpers ---------------------------------------------------

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

/// Process user+system CPU seconds, all threads.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// Returns freed heap pages to the system between passes, so peak RSS
/// tracks one pass's working set rather than how many per-thread malloc
/// arenas earlier passes happened to grow.
void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Resets the kernel's resident-memory high-water mark of this process to
/// its current resident size, so the next peak_rss_mb() covers only what
/// runs in between. False where the kernel does not offer the reset; the
/// peak then covers the whole process so far.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// Resident-memory high-water mark (VmHWM), or the process-wide
/// ru_maxrss where /proc is not readable.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The percentile every `_tail` metric reports. It is fixed, so a tail
/// means the same thing however many passes fit in a run.
constexpr double kTailQuantile = 0.95;

// --- work counters ---------------------------------------------------------

/// Machine-independent work of one pass. Two passes of one run (in the
/// same mode) must agree exactly; a later change's diff of these shows an
/// algorithmic change.
struct work_counters {
  std::uint64_t opt_nodes = 0;
  std::uint64_t opt_memo_hits = 0;
  std::uint64_t opt_pruned_by_bound = 0;
  std::uint64_t kibam_advance_calls = 0;
  std::uint64_t kibam_advance_steps = 0;
  std::uint64_t sched_decisions = 0;
  /// False in untraced fleet passes: the simulator's decisions are
  /// visible there only through the traced policy wrapper.
  bool decisions_known = true;
  std::uint64_t policy_rollouts = 0;
  std::uint64_t engine_evaluated = 0;
  std::uint64_t engine_cache_hits = 0;

  void add_search(const bsched::sched::search_stats& s) {
    opt_nodes += s.nodes;
    opt_memo_hits += s.memo_hits;
    opt_pruned_by_bound += s.pruned_by_bound;
    policy_rollouts += s.rollouts;
  }

  friend bool operator==(const work_counters&, const work_counters&) = default;
};

/// Kernel calls and steps from the library's kibam.* counters: the
/// bank-wide advance (search, rollouts, unbatched runs) plus the SoA lane
/// advance (batched sweep lanes).
struct kernel_counts {
  std::uint64_t calls = 0;
  std::uint64_t steps = 0;
  bsched::obs::snapshot snap;
};

kernel_counts scrape_registry() {
  kernel_counts k;
  k.snap = bsched::obs::registry::global().scrape();
  for (const auto& c : k.snap.counters) {
    if (c.name == "kibam.advance_calls_total" ||
        c.name == "kibam.soa.advance_calls_total") {
      k.calls += c.value;
    } else if (c.name == "kibam.advance_steps_total" ||
               c.name == "kibam.soa.advance_steps_total") {
      k.steps += c.value;
    }
  }
  return k;
}

const bsched::obs::histogram_sample* find_histogram(
    const bsched::obs::snapshot& s, const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// --- per-pass record -------------------------------------------------------

/// Fleet-only observations of one campaign.
struct fleet_obs {
  std::size_t leases_granted = 0;
  std::size_t steals = 0;
  std::size_t expired = 0;
  std::size_t results_rejected = 0;
  std::vector<double> fold_gaps_ms;  ///< Between folded_items advances.
  double first_lease_ms = 0;
  double drain_ms = 0;
  double chunk_busy_s = 0;  ///< Sum of svc.worker.chunk_seconds.
  std::vector<double> chunk_bounds;
  std::vector<std::uint64_t> chunk_buckets;
};

struct pass_record {
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;  ///< Untraced passes only.
  std::size_t items = 0;
  std::size_t failed = 0;
  std::size_t engine_threads = 1;
  work_counters work;
  policy_tally policy;  ///< Traced passes only.
  double sink_ms = 0;   ///< Traced in-process passes only.
  fleet_obs fleet;
};

std::vector<std::string> g_failures;  // first few failure reasons

void note_failure(const std::string& why) {
  if (g_failures.size() < 8) g_failures.push_back(why);
}

// --- grids -----------------------------------------------------------------

/// n seeded random workloads: alternating iid ("random:") and bursty
/// ("markov:") job generators, 40 jobs per cycle, p spread evenly over
/// [0.3, 0.8]. Only the load seeds depend on the benchmark seed.
std::vector<api::load_spec> random_loads(std::uint64_t seed, std::size_t n) {
  std::vector<api::load_spec> loads;
  for (std::size_t i = 0; i < n; ++i) {
    api::random_load_spec r;
    r.generator = i % 2 == 0 ? api::random_load_spec::kind::iid
                             : api::random_load_spec::kind::markov;
    r.count = 40;
    r.p = n == 1 ? 0.3
                 : 0.3 + 0.5 * static_cast<double>(i) /
                             static_cast<double>(n - 1);
    r.seed = bsched::rng::derive(seed, i);
    loads.emplace_back(r);
  }
  return loads;
}

std::vector<std::vector<bsched::kibam::battery_parameters>> two_banks() {
  return {api::bank(2, bsched::kibam::battery_b1()),
          api::bank(3, bsched::kibam::battery_b1())};
}

/// The sweep's whole result as the dist codec encodes it, so two runs of
/// one sweep can be compared byte for byte.
dist::shard_aggregate as_aggregate(const api::sweep& sw,
                                   const api::summarize& sum,
                                   const api::sweep_stats& stats) {
  dist::shard_aggregate a;
  a.last_item = sw.cells.size() * sw.replications;
  a.grid_cells = sw.cells.size();
  a.replications = sw.replications;
  a.seed = sw.seed;
  a.reseed = sw.reseed;
  a.pair_by_load = sw.pair_by_load;
  a.stats = stats;
  for (std::size_t i = 0; i < sum.cells().size(); ++i) {
    const api::cell_summary& c = sum.cells()[i];
    a.cells.push_back(dist::cell_record{i, c.label, c.load, c.policy,
                                        c.fidelity, sum.accumulators()[i]});
  }
  return a;
}

/// Cells where `got` breaks the documented dist equivalence contract
/// against `want`: n, failures, min, max and search effort exact,
/// quantiles exact while every sample fits the digest, moments to
/// ulp-scale rounding.
std::vector<std::size_t> contract_mismatches(
    const std::vector<api::cell_summary>& got,
    const std::vector<api::cell_summary>& want) {
  std::vector<std::size_t> bad;
  if (got.size() != want.size()) {
    for (std::size_t i = 0; i < want.size(); ++i) bad.push_back(i);
    return bad;
  }
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
  };
  for (std::size_t i = 0; i < want.size(); ++i) {
    const api::cell_summary& g = got[i];
    const api::cell_summary& w = want[i];
    bool ok = g.n == w.n && g.failures == w.failures &&
              g.min_min == w.min_min && g.max_min == w.max_min &&
              g.search == w.search && close(g.mean_min, w.mean_min) &&
              close(g.stddev_min, w.stddev_min);
    if (w.n <= api::summary_digest_centroids) {
      ok = ok && g.p10_min == w.p10_min && g.p50_min == w.p50_min &&
           g.p90_min == w.p90_min &&
           g.p50_residual_amin == w.p50_residual_amin;
    }
    if (!ok) bad.push_back(i);
  }
  return bad;
}

// --- workloads -------------------------------------------------------------

class workload {
 public:
  virtual ~workload() = default;
  /// Grids, registries, references and warm-up — timed as setup_s.
  virtual void setup(const options& opt) = 0;
  /// One pass; `rec` is the traced engine's recorder (null untraced).
  virtual pass_record run_pass(const api::engine& eng,
                               policy_recorder* rec) = 0;
  [[nodiscard]] virtual std::size_t busy_threads() const = 0;
  /// Engine threads that evaluate items (the busy_frac denominator).
  [[nodiscard]] virtual std::size_t engine_threads() const = 0;
  /// Fleet workers serving the grid; 0 for an in-process workload.
  [[nodiscard]] virtual std::size_t fleet_size() const { return 0; }
  [[nodiscard]] const api::sweep& grid() const { return sw_; }
  [[nodiscard]] const api::engine& engine() const { return engine_; }

 protected:
  api::sweep sw_;
  api::engine engine_;
};

/// Forwards to api::summarize, counting the simulator's decisions and, in
/// traced passes, timing the sink.
class counting_sink final : public api::result_sink {
 public:
  counting_sink(api::summarize& into, bool timed)
      : into_(into), timed_(timed) {}

  void consume(const api::sweep_result& r) override {
    if (!timed_) {
      decisions_ += r.result.sim.decisions.size();
      into_.consume(r);
      return;
    }
    const auto t0 = steady::now();
    decisions_ += r.result.sim.decisions.size();
    into_.consume(r);
    ns_ += ns_since(t0);
  }

  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  [[nodiscard]] double ms() const { return static_cast<double>(ns_) * 1e-6; }

 private:
  api::summarize& into_;
  bool timed_;
  std::uint64_t decisions_ = 0;
  std::int64_t ns_ = 0;
};

/// A workload run by one engine::run_sweep call per pass.
class in_process : public workload {
 public:
  explicit in_process(std::size_t threads) : threads_(threads) {}

  pass_record run_pass(const api::engine& eng,
                       policy_recorder* rec) override {
    api::summarize sum{sw_};
    counting_sink sink{sum, rec != nullptr};
    const kernel_counts k0 = scrape_registry();
    const double cpu0 = cpu_seconds();
    const auto t0 = steady::now();
    const api::sweep_stats stats = eng.run_sweep(sw_, sink, threads_);
    pass_record p;
    p.wall_s = seconds_since(t0);
    p.cpu_s = cpu_seconds() - cpu0;
    const kernel_counts k1 = scrape_registry();
    p.items = stats.runs;
    p.engine_threads = threads_;
    for (const api::cell_accumulator& a : sum.accumulators()) {
      p.work.add_search(a.search);
    }
    p.work.kibam_advance_calls = k1.calls - k0.calls;
    p.work.kibam_advance_steps = k1.steps - k0.steps;
    p.work.sched_decisions = sink.decisions();
    p.work.engine_evaluated = stats.evaluated;
    p.work.engine_cache_hits = stats.cache_hits;
    if (stats.failures > 0) {
      note_failure(std::to_string(stats.failures) + " item(s) failed to run");
    }
    p.failed = std::max(stats.failures, check(sum, stats));
    if (rec != nullptr) {
      p.policy = rec->take();
      p.sink_ms = sink.ms();
    }
    return p;
  }

  [[nodiscard]] std::size_t busy_threads() const override { return threads_; }
  [[nodiscard]] std::size_t engine_threads() const override {
    return threads_;
  }

 protected:
  /// Items of the pass whose output disagrees with the reference.
  virtual std::size_t check(const api::summarize& sum,
                            const api::sweep_stats& stats) = 0;

  std::size_t threads_;
};

/// Table 5: 2 x B1 under the paper's ten loads x five policies, one
/// replication each, run verbatim. The exact searches dominate.
class table5_exact final : public in_process {
 public:
  using in_process::in_process;

  void setup(const options& opt) override {
    std::vector<api::load_spec> loads;
    for (const load::test_load l : load::all_test_loads()) {
      if (opt.tiny && l != load::test_load::cl_500 &&
          l != load::test_load::ils_500 && l != load::test_load::ill_500) {
        continue;
      }
      loads.emplace_back(l);
    }
    sw_.cells = api::cross({api::bank(2, bsched::kibam::battery_b1())},
                           loads,
                           {"sequential", "round_robin", "best_of_n", "opt",
                            "worst"},
                           {api::fidelity::discrete});
    sw_.replications = 1;
    sw_.reseed = false;
    sw_.seed = opt.seed;  // no effect on a verbatim grid
    engine_ = api::engine{};

    // The warm-up pass is the reference for the blind policies; the
    // exact policies must hit the pinned Table 5 goldens.
    api::summarize warm{sw_};
    (void)engine_.run_sweep(sw_, warm, threads_);
    expected_.clear();
    bool corrupt = opt.corrupt_reference;
    for (std::size_t c = 0; c < sw_.cells.size(); ++c) {
      const api::scenario& scn = sw_.cells[c];
      double want = warm.cells()[c].mean_min;
      if (scn.policy == "opt" || scn.policy == "worst") {
        want = golden(scn, scn.policy == "opt");
        if (corrupt) want += 0.01;
        corrupt = false;
      }
      expected_.push_back(want);
    }
  }

 private:
  /// Optimal and worst 2 x B1 lifetimes (minutes) of the ten Table 5
  /// loads — this benchmark's own copy of the values the repository pins
  /// for Table 5.
  static double golden(const api::scenario& scn, bool optimal) {
    static const std::map<load::test_load, std::pair<double, double>> k{
        {load::test_load::cl_250, {12.00, 9.04}},
        {load::test_load::cl_500, {4.54, 4.08}},
        {load::test_load::cl_alt, {6.46, 5.40}},
        {load::test_load::ils_250, {40.76, 22.72}},
        {load::test_load::ils_500, {10.48, 8.58}},
        {load::test_load::ils_alt, {16.88, 12.36}},
        {load::test_load::ils_r1, {20.48, 12.80}},
        {load::test_load::ils_r2, {14.52, 12.22}},
        {load::test_load::ill_250, {78.92, 45.84}},
        {load::test_load::ill_500, {18.68, 12.92}},
    };
    const auto& pair = k.at(std::get<load::test_load>(scn.load.source()));
    return optimal ? pair.first : pair.second;
  }

  std::size_t check(const api::summarize& sum,
                    const api::sweep_stats& /*stats*/) override {
    std::size_t bad = 0;
    for (std::size_t c = 0; c < expected_.size(); ++c) {
      const api::cell_summary& got = sum.cells()[c];
      if (got.n != 1 || std::abs(got.mean_min - expected_[c]) > 1e-9) {
        ++bad;
        note_failure("table5_exact: " + got.label + " lifetime " +
                     std::to_string(got.mean_min) + " != reference " +
                     std::to_string(expected_[c]));
      }
    }
    return bad;
  }

  std::vector<double> expected_;
};

/// Random loads: 8 seeded specs x {2, 3} x B1 x three policies, hundreds
/// of paired replications. Kernel, simulator and lookahead rollouts work.
class random_sweep final : public in_process {
 public:
  using in_process::in_process;

  void setup(const options& opt) override {
    sw_.cells = api::cross(two_banks(), random_loads(opt.seed, 8),
                           {"round_robin", "best_of_n",
                            "lookahead:horizon=4"},
                           {api::fidelity::discrete});
    sw_.replications = opt.tiny ? 20 : kReplications;
    sw_.seed = opt.seed;
    sw_.pair_by_load = true;
    engine_ = api::engine{};
    // Single-threaded reference: aggregates are documented byte-identical
    // for any thread count.
    api::summarize ref{sw_};
    const api::sweep_stats stats = engine_.run_sweep(sw_, ref, 1);
    reference_ = dist::encode_str(as_aggregate(sw_, ref, stats));
    if (opt.corrupt_reference) reference_[reference_.size() / 2] ^= 1;
  }

 private:
  static constexpr std::size_t kReplications = 400;

  std::size_t check(const api::summarize& sum,
                    const api::sweep_stats& stats) override {
    if (dist::encode_str(as_aggregate(sw_, sum, stats)) == reference_) {
      return 0;
    }
    note_failure("random_sweep: aggregate differs from the single-threaded "
                 "reference");
    return stats.runs;
  }

  std::string reference_;
};

/// A loopback fleet: one coordinator on this thread, workers on threads of
/// their own, each running run_shard chunks on one engine thread.
class fleet_loopback final : public workload {
 public:
  /// `threads` busy threads: the coordinator takes one, workers the rest.
  explicit fleet_loopback(std::size_t threads)
      : workers_(std::max<std::size_t>(1, threads - 1)),
        ref_threads_(threads) {}

  void setup(const options& opt) override {
    sw_.cells = api::cross(two_banks(),
                           random_loads(opt.seed, opt.tiny ? 8 : 32),
                           {"round_robin", "best_of_n",
                            "lookahead:horizon=2"},
                           {api::fidelity::discrete});
    sw_.replications = opt.tiny ? 10 : 50;
    sw_.seed = opt.seed;
    engine_ = api::engine{};
    api::summarize ref{sw_};
    (void)engine_.run_sweep(sw_, ref, ref_threads_);
    reference_ = ref.cells();
    if (opt.corrupt_reference) reference_.front().max_min += 1.0;
  }

  pass_record run_pass(const api::engine& eng,
                       policy_recorder* rec) override {
    pass_record p;
    p.items = sw_.cells.size() * sw_.replications;
    p.engine_threads = workers_;

    svc::coordinator_options o;
    o.workers_expected = workers_;
    o.deadline_s = kDeadlineSeconds;
    std::size_t folded = 0;
    bool granted = false;
    double last_fold_ms = 0;
    double last_pending_ms = 0;
    const auto t0 = steady::now();
    o.on_progress = [&](const svc::progress& pr) {
      const double t = seconds_since(t0) * 1e3;
      if (!granted && pr.active_leases > 0) {
        granted = true;
        p.fleet.first_lease_ms = t;
      }
      if (pr.pending_leases > 0) last_pending_ms = t;
      if (pr.folded_items > folded) {
        if (folded > 0) p.fleet.fold_gaps_ms.push_back(t - last_fold_ms);
        folded = pr.folded_items;
        last_fold_ms = t;
      }
    };

    const kernel_counts k0 = scrape_registry();
    const double cpu0 = cpu_seconds();
    std::vector<std::exception_ptr> worker_errors(workers_);
    std::optional<dist::shard_aggregate> merged;
    std::string run_error;
    svc::coordinator_counters counters;
    double run_end_ms = 0;
    {
      // Declared before the coordinator so that, unwinding or not, the
      // coordinator (and its sockets) goes first and the threads join.
      std::vector<std::jthread> workers;
      auto coord = std::make_unique<svc::coordinator>(sw_, o);
      const std::uint16_t port = coord->port();
      for (std::size_t i = 0; i < workers_; ++i) {
        workers.emplace_back([&eng, &worker_errors, port, i] {
          try {
            svc::worker_options wo;
            wo.port = port;
            wo.name = "w" + std::to_string(i);
            wo.n_threads = 1;
            wo.io_timeout_ms = kWorkerIoTimeoutMs;
            (void)svc::run_worker(eng, wo);
          } catch (...) {
            worker_errors[i] = std::current_exception();
          }
        });
      }
      try {
        merged = coord->run();
      } catch (const std::exception& e) {
        run_error = e.what();
      }
      run_end_ms = seconds_since(t0) * 1e3;
      counters = coord->counters();
      // Closing the listener now makes a worker that is still dialling
      // fail at once rather than wait out its I/O timeout.
      coord.reset();
    }
    p.wall_s = seconds_since(t0);
    p.cpu_s = cpu_seconds() - cpu0;
    const kernel_counts k1 = scrape_registry();

    p.fleet.leases_granted = counters.leases_granted;
    p.fleet.steals = counters.steals;
    p.fleet.expired = counters.expired;
    p.fleet.results_rejected = counters.results_rejected;
    p.fleet.drain_ms = run_end_ms - last_pending_ms;
    const auto* h1 = find_histogram(k1.snap, "svc.worker.chunk_seconds");
    if (h1 != nullptr) {
      const auto* h0 = find_histogram(k0.snap, "svc.worker.chunk_seconds");
      p.fleet.chunk_bounds = h1->bounds;
      p.fleet.chunk_buckets = h1->buckets;
      p.fleet.chunk_busy_s = h1->sum;
      if (h0 != nullptr) {
        for (std::size_t b = 0; b < h0->buckets.size(); ++b) {
          p.fleet.chunk_buckets[b] -= h0->buckets[b];
        }
        p.fleet.chunk_busy_s -= h0->sum;
      }
    }

    p.work.kibam_advance_calls = k1.calls - k0.calls;
    p.work.kibam_advance_steps = k1.steps - k0.steps;
    p.work.decisions_known = rec != nullptr;
    if (rec != nullptr) {
      p.policy = rec->take();
      p.work.sched_decisions = p.policy.choose_calls;
    }

    bool healthy = true;
    for (std::size_t i = 0; i < worker_errors.size(); ++i) {
      if (worker_errors[i] == nullptr) continue;
      healthy = false;
      try {
        std::rethrow_exception(worker_errors[i]);
      } catch (const std::exception& e) {
        note_failure("fleet_loopback: worker w" + std::to_string(i) +
                     " threw: " + e.what());
      } catch (...) {
        note_failure("fleet_loopback: worker w" + std::to_string(i) +
                     " threw a non-std exception");
      }
    }
    if (!run_error.empty()) {
      healthy = false;
      note_failure("fleet_loopback: coordinator: " + run_error);
    }
    if (counters.expired > 0 || counters.results_rejected > 0) {
      healthy = false;
      note_failure("fleet_loopback: " + std::to_string(counters.expired) +
                   " lease(s) expired, " +
                   std::to_string(counters.results_rejected) +
                   " result(s) rejected");
    }
    if (!healthy || !merged) {
      p.failed = p.items;
      return p;
    }
    for (const dist::cell_record& c : merged->cells) {
      p.work.add_search(c.agg.search);
    }
    p.work.engine_evaluated = merged->stats.evaluated;
    p.work.engine_cache_hits = merged->stats.cache_hits;
    const std::vector<std::size_t> bad =
        contract_mismatches(dist::summaries(*merged), reference_);
    for (const std::size_t c : bad) {
      note_failure("fleet_loopback: merged cell " + std::to_string(c) +
                   " differs from the in-process reference");
    }
    p.failed = bad.size() * sw_.replications;
    return p;
  }

  [[nodiscard]] std::size_t busy_threads() const override {
    return workers_ + 1;  // the coordinator runs on the calling thread
  }
  [[nodiscard]] std::size_t engine_threads() const override {
    return workers_;
  }
  [[nodiscard]] std::size_t fleet_size() const override { return workers_; }

 private:
  // Well above one campaign (about a second), so a hang fails the pass
  // instead of stalling the run.
  static constexpr double kDeadlineSeconds = 30.0;
  static constexpr int kWorkerIoTimeoutMs = 20000;

  std::size_t workers_;
  std::size_t ref_threads_;
  std::vector<api::cell_summary> reference_;
};

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::size_t threads) {
  if (name == "table5_exact") return std::make_unique<table5_exact>(threads);
  if (name == "random_sweep") return std::make_unique<random_sweep>(threads);
  if (name == "fleet_loopback") {
    return std::make_unique<fleet_loopback>(threads);
  }
  usage("unknown workload '" + name + "'");
}

// --- standalone layer probes (traced run) ----------------------------------

/// Public calls of the load, dist and codec layers timed on the workload's
/// own items. Every workload times the load layer; only the fleet replays
/// its grid the way the fleet runs it: default lease sizing, chunk-sized
/// run_shard calls folded per lease, each lease result encoded and
/// decoded, and every lease folded in stream order. Elsewhere dist and
/// codec are bypassed and their metrics read 0.
struct probe_result {
  double replicate_ms = 0;
  std::size_t chunks = 0;
  double run_shard_ms = 0;
  double one_shot_ms = 0;
  double merge_ms = 0;
  std::size_t lease_bytes = 0;
  std::size_t sweep_bytes = 0;
  double encode_ms = 0;
  double decode_ms = 0;
  std::size_t failed = 0;
};

double ms_since(steady::time_point t) {
  return static_cast<double>(ns_since(t)) * 1e-6;
}

/// api::replicate + load_spec::materialize of every item of the grid.
void probe_load(const api::sweep& sw, probe_result& pr) {
  const std::vector<std::size_t> groups =
      sw.reseed && sw.pair_by_load ? api::load_groups(sw)
                                   : std::vector<std::size_t>{};
  std::size_t epochs = 0;
  const auto t = steady::now();
  for (std::size_t cell = 0; cell < sw.cells.size(); ++cell) {
    for (std::size_t rep = 0; rep < sw.replications; ++rep) {
      const api::scenario scn = groups.empty()
                                    ? api::replicate(sw, cell, rep)
                                    : api::replicate(sw, cell, rep, groups);
      epochs += scn.load.materialize().cycle().size();
    }
  }
  pr.replicate_ms = ms_since(t);
  if (epochs == 0) {
    ++pr.failed;
    note_failure("probe: the grid's loads materialize to no epochs");
  }
}

/// The fleet's dist and codec work, replayed in this thread for
/// `fleet_workers` workers.
void probe_fleet(const api::sweep& sw, const api::engine& eng,
                 std::size_t fleet_workers, probe_result& pr) {
  const std::size_t total = sw.cells.size() * sw.replications;
  auto t = steady::now();
  const dist::shard_aggregate whole =
      dist::run_shard(eng, dist::plan_shard(sw, 0, 1), 1);
  pr.one_shot_ms = ms_since(t);

  const svc::coordinator_options defaults;
  const std::size_t per = fleet_workers * defaults.leases_per_worker;
  const std::size_t lease_items =
      std::max<std::size_t>(1, (total + per - 1) / per);
  dist::shard sh;
  sh.sweep = sw;
  dist::stream_merger fold(0);
  for (std::size_t a = 0; a < total; a += lease_items) {
    const std::size_t b = std::min(total, a + lease_items);
    dist::stream_merger lease(a);
    for (std::size_t c = a; c < b; c += defaults.chunk_items) {
      sh.first = c;
      sh.last = std::min(b, c + defaults.chunk_items);
      t = steady::now();
      dist::shard_aggregate part = dist::run_shard(eng, sh, 1);
      pr.run_shard_ms += ms_since(t);
      ++pr.chunks;
      t = steady::now();
      lease.add(std::move(part));
      pr.merge_ms += ms_since(t);
    }
    t = steady::now();
    const dist::shard_aggregate lease_agg = lease.take(b);
    pr.merge_ms += ms_since(t);
    t = steady::now();
    const std::string text = dist::encode_str(lease_agg);
    pr.encode_ms += ms_since(t);
    pr.lease_bytes += text.size();
    t = steady::now();
    dist::shard_aggregate back = dist::decode_str(text);
    pr.decode_ms += ms_since(t);
    if (!(back == lease_agg)) {
      ++pr.failed;
      note_failure("probe: lease aggregate does not round-trip the codec");
    }
    t = steady::now();
    fold.add(std::move(back));
    pr.merge_ms += ms_since(t);
  }
  t = steady::now();
  const dist::shard_aggregate merged = fold.take(total);
  pr.merge_ms += ms_since(t);
  const std::size_t bad =
      contract_mismatches(dist::summaries(merged), dist::summaries(whole))
          .size();
  if (bad > 0) {
    pr.failed += bad;
    note_failure("probe: chunked replay differs from one run_shard call");
  }

  // The coordinator encodes the sweep once; every worker decodes it.
  t = steady::now();
  const std::string def = dist::encode_sweep_str(sw);
  pr.encode_ms += ms_since(t);
  pr.sweep_bytes = def.size();
  for (std::size_t w = 0; w < fleet_workers; ++w) {
    t = steady::now();
    const api::sweep got = dist::decode_sweep_str(def);
    pr.decode_ms += ms_since(t);
    if (got.cells != sw.cells || got.replications != sw.replications ||
        got.seed != sw.seed || got.reseed != sw.reseed ||
        got.pair_by_load != sw.pair_by_load) {
      ++pr.failed;
      note_failure("probe: sweep definition does not round-trip the codec");
    }
  }
}

// --- driver ----------------------------------------------------------------

constexpr std::size_t kSetups = 5;
constexpr std::size_t kMinPasses = 3;

/// Untraced passes until the budget is spent (at least kMinPasses). With
/// a traced engine, traced passes alternate with them, so both kinds see
/// the same host conditions and their ratio is the cost of tracing.
void run_passes(workload& w, const api::engine* traced_engine,
                policy_recorder& rec, double budget_s,
                std::vector<pass_record>& plain,
                std::vector<pass_record>& traced) {
  const auto t0 = steady::now();
  while (plain.size() < kMinPasses || seconds_since(t0) < budget_s) {
    (void)reset_peak_rss();
    plain.push_back(w.run_pass(w.engine(), nullptr));
    plain.back().peak_rss_mb = peak_rss_mb();
    release_free_memory();
    if (traced_engine != nullptr) {
      traced.push_back(w.run_pass(*traced_engine, &rec));
      release_free_memory();
    }
  }
}

/// Failed items from work counters that differ from the first pass.
std::size_t check_repeats(std::vector<pass_record>& passes,
                          const std::string& mode) {
  std::size_t failed = 0;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    if (passes[i].work == passes.front().work) continue;
    note_failure("work counters of " + mode + " pass " + std::to_string(i) +
                 " differ from pass 0");
    failed += passes[i].items - passes[i].failed;
    passes[i].failed = passes[i].items;
  }
  return failed;
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

template <class F>
std::vector<double> each(const std::vector<pass_record>& passes, F f) {
  std::vector<double> v;
  for (const pass_record& p : passes) v.push_back(f(p));
  return v;
}

void print_metrics(const std::vector<metric>& ms) {
  for (const metric& m : ms) {
    std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_work(const work_counters& w, const char* mode) {
  const std::string decisions =
      w.decisions_known ? std::to_string(w.sched_decisions)
                        : std::string("n/a (counted by the traced run)");
  std::printf(
      "work counters per %s pass: opt.nodes=%llu opt.memo_hits=%llu "
      "opt.pruned_by_bound=%llu kibam.advance_calls=%llu "
      "kibam.advance_steps=%llu sched.decisions=%s policy.rollouts=%llu "
      "engine.evaluated=%llu engine.cache_hits=%llu\n",
      mode,
      static_cast<unsigned long long>(w.opt_nodes),
      static_cast<unsigned long long>(w.opt_memo_hits),
      static_cast<unsigned long long>(w.opt_pruned_by_bound),
      static_cast<unsigned long long>(w.kibam_advance_calls),
      static_cast<unsigned long long>(w.kibam_advance_steps),
      decisions.c_str(),
      static_cast<unsigned long long>(w.policy_rollouts),
      static_cast<unsigned long long>(w.engine_evaluated),
      static_cast<unsigned long long>(w.engine_cache_hits));
}

std::vector<metric> end_to_end(const std::vector<pass_record>& passes,
                               double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"items_per_s",
       median(each(passes,
                   [](const pass_record& p) {
                     return static_cast<double>(p.items) / p.wall_s;
                   })),
       "1/s"},
      {"cpu_ms_per_item",
       median(each(passes,
                   [](const pass_record& p) {
                     return p.cpu_s * 1e3 / static_cast<double>(p.items);
                   })),
       "ms"},
      {"peak_rss_mb",
       median(each(passes,
                   [](const pass_record& p) { return p.peak_rss_mb; })),
       "MB"},
  };
}

/// The per-layer breakdown: counts from the first traced pass (they repeat
/// exactly), times as per-pass means over traced passes (means add up, so
/// the item-time breakdown sums exactly), distributions pooled.
std::vector<metric> per_layer(const std::vector<pass_record>& traced,
                              const std::vector<pass_record>& plain,
                              const probe_result& pr) {
  const pass_record& first = traced.front();
  const work_counters& w = first.work;
  const auto per_pass = [&](auto f) {
    double sum = 0;
    for (const pass_record& p : traced) sum += f(p);
    return sum / static_cast<double>(traced.size());
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  const double solve_ms = per_pass([](const pass_record& p) {
    return p.policy.exact_bind_ms;
  });
  const double item_ms = per_pass([](const pass_record& p) {
    return p.policy.item_ms;
  });
  std::vector<double> items_pooled;
  std::vector<double> gaps_pooled;
  for (const pass_record& p : traced) {
    items_pooled.insert(items_pooled.end(), p.policy.item_times_ms.begin(),
                        p.policy.item_times_ms.end());
    gaps_pooled.insert(gaps_pooled.end(), p.fleet.fold_gaps_ms.begin(),
                       p.fleet.fold_gaps_ms.end());
  }
  std::printf("tails (p%g): %zu item time(s), %zu fold gap(s)\n",
              kTailQuantile * 100, items_pooled.size(), gaps_pooled.size());

  // Chunk-time median from the histogram's decade buckets, interpolated
  // linearly inside the bucket that holds it — coarse; the mean beside it
  // is exact (histogram sum over count).
  const auto chunk_p50 = [](const pass_record& p) {
    const fleet_obs& f = p.fleet;
    std::uint64_t n = 0;
    for (const std::uint64_t b : f.chunk_buckets) n += b;
    if (n == 0) return 0.0;
    const double half = static_cast<double>(n) / 2.0;
    double seen = 0;
    for (std::size_t b = 0; b < f.chunk_buckets.size(); ++b) {
      const double here = static_cast<double>(f.chunk_buckets[b]);
      if (seen + here >= half && here > 0) {
        const double lo = b == 0 ? 0.0 : f.chunk_bounds[b - 1];
        const double hi =
            b < f.chunk_bounds.size() ? f.chunk_bounds[b] : lo * 10.0;
        return (lo + (hi - lo) * (half - seen) / here) * 1e3;
      }
      seen += here;
    }
    return 0.0;
  };

  const double traced_wall = median(each(traced, [](const pass_record& p) {
    return p.wall_s;
  }));
  const double plain_wall = median(each(plain, [](const pass_record& p) {
    return p.wall_s;
  }));

  return {
      {"opt.nodes", d(w.opt_nodes), "count"},
      {"opt.memo_hits", d(w.opt_memo_hits), "count"},
      {"opt.pruned_by_bound", d(w.opt_pruned_by_bound), "count"},
      {"opt.solve_ms", solve_ms, "ms"},
      {"opt.critical_ms",
       per_pass([](const pass_record& p) {
         return p.policy.exact_bind_max_ms;
       }),
       "ms"},
      {"opt.nodes_per_s", ratio(d(w.opt_nodes), solve_ms * 1e-3), "1/s"},
      {"opt.prune_ratio",
       ratio(d(w.opt_pruned_by_bound), d(w.opt_nodes + w.opt_pruned_by_bound)),
       "frac"},
      {"opt.memo_hit_rate",
       ratio(d(w.opt_memo_hits), d(w.opt_nodes + w.opt_memo_hits)), "frac"},
      {"kibam.advance_calls", d(w.kibam_advance_calls), "count"},
      {"kibam.advance_steps", d(w.kibam_advance_steps), "count"},
      {"kibam.steps_per_call",
       ratio(d(w.kibam_advance_steps), d(w.kibam_advance_calls)),
       "steps/call"},
      {"kibam.steps_per_s", ratio(d(w.kibam_advance_steps), item_ms * 1e-3),
       "1/s"},
      {"sched.decisions", d(w.sched_decisions), "count"},
      {"sched.sim_self_ms", per_pass([](const pass_record& p) {
         return p.policy.item_ms - p.policy.bind_ms -
                p.policy.choose_self_ms - p.policy.rollout_ms;
       }),
       "ms"},
      {"sched.item_ms_p50", quantile(items_pooled, 0.5), "ms"},
      {"sched.item_ms_tail", quantile(items_pooled, kTailQuantile), "ms"},
      {"policy.choose_calls", d(first.policy.choose_calls), "count"},
      {"policy.rollouts", d(w.policy_rollouts), "count"},
      {"policy.choose_ms",
       per_pass([](const pass_record& p) { return p.policy.choose_self_ms; }),
       "ms"},
      {"policy.rollout_ms",
       per_pass([](const pass_record& p) { return p.policy.rollout_ms; }),
       "ms"},
      {"policy.bind_ms",
       per_pass([](const pass_record& p) { return p.policy.bind_ms; }), "ms"},
      {"engine.evaluated", d(w.engine_evaluated), "count"},
      {"engine.cache_hits", d(w.engine_cache_hits), "count"},
      {"engine.item_ms", item_ms, "ms"},
      {"engine.busy_frac", per_pass([](const pass_record& p) {
         return p.policy.item_ms /
                (static_cast<double>(p.engine_threads) * p.wall_s * 1e3);
       }),
       "frac"},
      {"engine.overhead_ms", per_pass([](const pass_record& p) {
         return static_cast<double>(p.engine_threads) * p.wall_s * 1e3 -
                p.policy.item_ms - p.sink_ms;
       }),
       "ms"},
      {"engine.sink_ms",
       per_pass([](const pass_record& p) { return p.sink_ms; }), "ms"},
      {"load.replicate_ms", pr.replicate_ms, "ms"},
      {"dist.chunks", static_cast<double>(pr.chunks), "count"},
      {"dist.run_shard_ms", pr.run_shard_ms, "ms"},
      {"dist.chunk_overhead_frac",
       pr.chunks == 0 ? 0.0 : ratio(pr.run_shard_ms, pr.one_shot_ms) - 1,
       "frac"},
      {"dist.merge_ms", pr.merge_ms, "ms"},
      {"codec.lease_bytes", static_cast<double>(pr.lease_bytes), "bytes"},
      {"codec.sweep_bytes", static_cast<double>(pr.sweep_bytes), "bytes"},
      {"codec.encode_ms", pr.encode_ms, "ms"},
      {"codec.decode_ms", pr.decode_ms, "ms"},
      {"svc.leases_granted", static_cast<double>(first.fleet.leases_granted),
       "count"},
      {"svc.steals", static_cast<double>(first.fleet.steals), "count"},
      {"svc.expired", static_cast<double>(first.fleet.expired), "count"},
      {"svc.results_rejected",
       static_cast<double>(first.fleet.results_rejected), "count"},
      {"svc.fold_gap_ms_p50", quantile(gaps_pooled, 0.5), "ms"},
      {"svc.fold_gap_ms_tail", quantile(gaps_pooled, kTailQuantile), "ms"},
      {"svc.first_lease_ms",
       per_pass([](const pass_record& p) { return p.fleet.first_lease_ms; }),
       "ms"},
      {"svc.drain_ms",
       per_pass([](const pass_record& p) { return p.fleet.drain_ms; }), "ms"},
      {"svc.worker_busy_frac", per_pass([](const pass_record& p) {
         return p.fleet.chunk_busy_s /
                (static_cast<double>(p.engine_threads) * p.wall_s);
       }),
       "frac"},
      {"svc.chunk_ms_p50", per_pass(chunk_p50), "ms"},
      {"svc.chunk_ms_mean", per_pass([](const pass_record& p) {
         std::uint64_t n = 0;
         for (const std::uint64_t b : p.fleet.chunk_buckets) n += b;
         return n == 0 ? 0.0
                      : p.fleet.chunk_busy_s * 1e3 / static_cast<double>(n);
       }),
       "ms"},
      {"obs.trace_overhead_frac", traced_wall / plain_wall - 1, "frac"},
  };
}

int run(const options& opt) {
  const std::size_t nproc = online_cpus();
  const std::size_t threads = std::min<std::size_t>(4, nproc);
  std::unique_ptr<workload> w = make_workload(opt.workload, threads);
  if (w->busy_threads() > nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing %s with %zu busy threads on %zu "
                 "CPU(s)\n",
                 opt.workload.c_str(), w->busy_threads(), nproc);
    return 2;
  }
  std::printf(
      "context {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"tiny\":%d,\"nproc\":%zu,\"busy_threads\":%zu,"
      "\"engine_threads\":%zu,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"bsched_obs\":\"%s\",\"peak_rss_scope\":\"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, opt.tiny ? 1 : 0, nproc,
      w->busy_threads(), w->engine_threads(),
      json_escape(compiler_name()).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_BSCHED_OBS, reset_peak_rss() ? "pass" : "process");

  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetups; ++i) {
    w = make_workload(opt.workload, threads);
    const auto t0 = steady::now();
    w->setup(opt);
    setups.push_back(seconds_since(t0));
    release_free_memory();
  }
  const double setup_s = median(setups);

  policy_recorder rec;
  std::optional<api::engine> traced_engine;
  if (opt.trace) {
    traced_engine.emplace(api::engine_options{timed_registry(rec)});
  }
  std::vector<pass_record> plain;
  std::vector<pass_record> traced;
  run_passes(*w, traced_engine ? &*traced_engine : nullptr, rec, opt.seconds,
             plain, traced);
  std::size_t attempted = 0;
  std::size_t failed = check_repeats(plain, "untraced");
  for (const pass_record& p : plain) {
    attempted += p.items;
    failed += p.failed;
  }

  std::vector<metric> layers;
  if (opt.trace) {
    std::size_t traced_failed = check_repeats(traced, "traced");
    // The wrapper only observes: traced work must equal untraced work.
    work_counters same = traced.front().work;
    if (!plain.front().work.decisions_known) {
      same.sched_decisions = 0;
      same.decisions_known = false;
    }
    if (!(same == plain.front().work)) {
      note_failure("traced work counters differ from untraced ones");
      traced_failed += traced.front().items;
    }
    for (const pass_record& p : traced) {
      attempted += p.items;
      traced_failed += p.failed;
    }
    probe_result pr;
    probe_load(w->grid(), pr);
    if (w->fleet_size() > 0) {
      probe_fleet(w->grid(), w->engine(), w->fleet_size(), pr);
    }
    attempted += w->grid().cells.size() * w->grid().replications;
    failed += traced_failed + std::min(pr.failed, w->grid().cells.size() *
                                                      w->grid().replications);
    print_work(traced.front().work, "traced");
    layers = per_layer(traced, plain, pr);
    if (rec.lost() > 0) {
      std::printf("warning: %llu item time(s) lost to allocation failure\n",
                  static_cast<unsigned long long>(rec.lost()));
    }
  }

  failed = std::min(failed, attempted);
  const std::vector<metric> e2e = end_to_end(plain, setup_s);
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("%s: %zu untraced pass(es), %zu item(s) each\n",
              opt.workload.c_str(), plain.size(), plain.front().items);
  print_work(plain.front().work, "untraced");
  const auto spread = [](const char* name, const std::vector<double>& v) {
    std::printf("%s over %zu passes: p25 %.6g, p50 %.6g, p75 %.6g\n", name,
                v.size(), quantile(v, 0.25), quantile(v, 0.5),
                quantile(v, 0.75));
  };
  spread("items_per_s", each(plain, [](const pass_record& p) {
           return static_cast<double>(p.items) / p.wall_s;
         }));
  spread("peak_rss_mb", each(plain, [](const pass_record& p) {
           return p.peak_rss_mb;
         }));
  std::printf("end-to-end (untraced):\n");
  print_metrics(e2e);
  print_metrics({{"failed_frac", failed_frac, "frac"}});
  if (opt.trace) {
    std::printf("per-layer (traced):\n");
    print_metrics(layers);
  }
  for (const std::string& f : g_failures) std::printf("FAIL %s\n", f.c_str());

  const std::vector<metric>& out = opt.trace ? layers : e2e;
  std::string json = "{\"correct\": " +
                     std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[i].value);
    json += (i == 0 ? "\"" : ", \"") + out[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::options opt = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
