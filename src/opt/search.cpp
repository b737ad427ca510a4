#include "opt/search.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <utility>

#include "kibam/scratch.hpp"
#include "obs/obs.hpp"
#include "opt/lookahead.hpp"
#include "opt/memo.hpp"
#include "util/error.hpp"
#include "util/task_pool.hpp"

namespace bsched::opt {

namespace {

constexpr std::int64_t k_inf = std::numeric_limits<std::int64_t>::max() / 4;

/// Packs a battery state into one word for hashing/sorting. Nodes always
/// have discharge_elapsed == 0, so three counters and the empty bit suffice.
/// The word does not encode the battery type: memo keys keep same-type
/// batteries in contiguous groups, and candidate signatures carry the type
/// alongside.
std::uint64_t pack(const kibam::discrete_state& b) {
  BSCHED_ASSERT(b.n >= 0 && b.n < (1 << 21));
  BSCHED_ASSERT(b.m >= 0 && b.m < (1 << 21));
  BSCHED_ASSERT(b.recovery_elapsed >= 0 && b.recovery_elapsed < (1 << 21));
  return (static_cast<std::uint64_t>(b.n) << 43) |
         (static_cast<std::uint64_t>(b.m) << 22) |
         (static_cast<std::uint64_t>(b.recovery_elapsed) << 1) |
         static_cast<std::uint64_t>(b.empty);
}

/// Steps in an epoch at the grid's granularity.
std::int64_t epoch_steps(const load::epoch& e, const load::step_sizes& s) {
  return std::llround(e.duration_min / s.time_step_min);
}

/// The load's distinct epochs (prefix, then one cycle) priced once on the
/// bank's grid, so a visit indexes a table instead of re-deriving the
/// draw rate (an 8-way search) and rounding the length every time.
class epoch_table {
 public:
  struct plan {
    std::int64_t len;      ///< Steps in the epoch.
    load::draw_rate rate;  ///< {0, 0} for an idle epoch.
    [[nodiscard]] bool idle() const noexcept { return rate.units == 0; }
  };

  epoch_table(const load::trace& load, const load::step_sizes& steps)
      : prefix_(load.prefix().size()), cycle_(load.cycle().size()) {
    plans_.reserve(prefix_ + cycle_);
    for (const auto* epochs : {&load.prefix(), &load.cycle()}) {
      for (const load::epoch& e : *epochs) {
        plans_.push_back({epoch_steps(e, steps),
                          e.current_a > 0 ? load::rate_for(e.current_a, steps)
                                          : load::draw_rate{0, 0}});
        max_draw_units_ = std::max(max_draw_units_, plans_.back().rate.units);
      }
    }
  }

  /// Canonical epoch index within the cyclic structure (for memo keys).
  [[nodiscard]] std::size_t canonical(std::size_t epoch) const noexcept {
    if (epoch < prefix_) return epoch;
    return prefix_ + (epoch - prefix_) % cycle_;
  }

  [[nodiscard]] const plan& at(std::size_t epoch) const noexcept {
    return plans_[canonical(epoch)];
  }

  /// Largest single draw in the load, in units (at least 1).
  [[nodiscard]] std::int64_t max_draw_units() const noexcept {
    return max_draw_units_;
  }

 private:
  std::size_t prefix_;
  std::size_t cycle_;
  std::vector<plan> plans_;
  std::int64_t max_draw_units_ = 1;
};

/// One battery's supply curve for the trajectory bound: by wall-clock step
/// t it can have delivered at most
///   min(cap, (avail0 + g * ticks(t) - 1) / 1000 + max_draw)
/// charge units, where ticks(t) = (re + t) / mr is an upper bound on the
/// recovery ticks fired by t (each fired tick consumes at least mr
/// accumulated recovery steps, and the counter starts at re).
struct supply_term {
  std::int64_t cap;        ///< deliverable_units cap, in units.
  std::int64_t avail0;     ///< Available charge now, permille (>= 1).
  std::int64_t g;          ///< Permille returned per recovery tick.
  std::int64_t mr;         ///< Min steps between ticks; 0 = never fires.
  std::int64_t re;         ///< Recovery steps already accumulated.
  std::int64_t max_draw;   ///< Largest single draw, units.
  std::int64_t sat_ticks;  ///< Ticks after which the cap takes over.
};

/// Walk-local incremental view of one term's supply curve. The walk
/// probes at nondecreasing times, so the curve can be advanced tick by
/// tick — a couple of compares and adds per probe — instead of evaluating
/// the closed form (two integer divisions per term) at every draw.
/// Produces exactly min(cap, (avail0 + g * ticks(t) - 1) / 1000 +
/// max_draw) with ticks(t) = min((re + t) / mr, sat_ticks).
struct supply_cursor {
  std::int64_t cap, g, mr, max_draw, sat;
  std::int64_t ticks;      ///< Ticks fired by the last probe time.
  std::int64_t next_tick;  ///< Time the next tick fires; k_inf = never.
  std::int64_t avail;      ///< avail0 + g * ticks, permille.
  std::int64_t thr;        ///< avail must exceed this to free a unit.
  std::int64_t units;      ///< (avail - 1) / 1000, maintained.

  explicit supply_cursor(const supply_term& u)
      : cap(u.cap), g(u.g), mr(u.mr), max_draw(u.max_draw),
        sat(u.sat_ticks) {
    ticks = mr > 0 ? std::min(u.re / mr, sat) : 0;
    avail = u.avail0 + g * ticks;
    units = (avail - 1) / 1000;
    thr = (units + 1) * 1000;
    next_tick = (mr > 0 && ticks < sat) ? (ticks + 1) * mr - u.re : k_inf;
  }

  /// Supply in units by time `t`; `t` must not decrease across calls.
  std::int64_t at(std::int64_t t) {
    while (next_tick <= t) {
      ++ticks;
      avail += g;  // g < 1000, so at most one unit frees per tick.
      if (avail > thr) {
        ++units;
        thr += 1000;
      }
      if (ticks >= sat) {
        next_tick = k_inf;
        break;
      }
      next_tick += mr;
    }
    return std::min(cap, units + max_draw);
  }
};

std::int64_t supply_at(std::vector<supply_cursor>& cursors, std::int64_t t) {
  std::int64_t s = 0;
  for (supply_cursor& u : cursors) s += u.at(t);
  return s;
}

/// The trajectory-bound walk with an early-out threshold: returns the
/// first wall-clock step (from the start of epoch `epoch_index`) at which
/// the system provably cannot have served the load, or `limit + 1` as soon
/// as the walk passes `limit` without a violation (callers only compare
/// the result against `limit`, so the walk never costs more than the
/// incumbent's remaining-lifetime scale). `limit = k_inf` is the exact
/// public bound. `cursors` is the caller's reusable buffer.
std::int64_t trajectory_walk(const kibam::bank& bank,
                             const epoch_table& epochs,
                             const std::vector<kibam::discrete_state>& bats,
                             std::size_t epoch_index,
                             std::int64_t max_draw_units, std::int64_t limit,
                             std::vector<supply_cursor>& cursors) {
  cursors.clear();
  std::int64_t cap_total = 0;
  for (std::size_t b = 0; b < bats.size(); ++b) {
    if (bats[b].empty) continue;
    const kibam::discretization& d = bank.disc(b);
    const std::int64_t c = d.c_permille();
    const std::int64_t g = 1000 - c;
    const std::int64_t n = bats[b].n;
    const std::int64_t m = bats[b].m;
    // Alive states always have avail >= 1; clamping keeps the bound
    // admissible (supply only grows) for arbitrary caller states.
    const std::int64_t avail0 = std::max<std::int64_t>(
        1, d.available_permille(n, m));
    const std::int64_t cap = deliverable_units(d, n, max_draw_units);
    std::int64_t mr = 0;
    std::int64_t re = 0;
    std::int64_t sat = 0;
    if (g > 0) {
      // Height stays below the empty criterion while alive, and rises
      // only by drawing down n, so m_reach caps every future alive
      // height; the recovery table is decreasing in m, so ticks are
      // spaced at least recovery_steps(m_reach) apart.
      const std::int64_t m_cap = (c * n - 1) / g;
      const std::int64_t m_reach = std::min(m_cap, m + n);
      if (m_reach >= 2) {
        mr = d.recovery_steps(m_reach);
        re = bats[b].recovery_elapsed;
        const std::int64_t want = (cap - max_draw_units) * 1000 + 1 - avail0;
        sat = want > 0 ? (want + g - 1) / g : 0;
      }
    }
    cursors.emplace_back(
        supply_term{cap, avail0, g, mr, re, max_draw_units, sat});
    cap_total += cap;
  }
  if (cursors.empty()) return 0;

  // Walk the load, tracking wall-clock steps t0 and cumulative demand in
  // units: the system dies no later than the first draw whose demand
  // exceeds the summed supply, or reaches the total deliverable cap (the
  // cap counts each battery's death draw, so meeting it kills the bank).
  std::int64_t t0 = 0;
  std::int64_t demand = 0;
  std::size_t idx = epoch_index;
  for (std::size_t guard = 0; guard < 100'000'000; ++guard, ++idx) {
    const epoch_table::plan& p = epochs.at(idx);
    const std::int64_t len = p.len;
    if (p.idle()) {
      t0 += len;
      if (t0 > limit) return limit + 1;
      continue;
    }
    const load::draw_rate rate = p.rate;
    const std::int64_t draws = len / rate.steps;
    // Supply is nondecreasing in t: when the epoch's whole demand fits
    // under the supply at its first draw, no draw inside can violate.
    const std::int64_t epoch_demand = demand + draws * rate.units;
    if (epoch_demand < cap_total &&
        epoch_demand <= supply_at(cursors, t0 + rate.steps)) {
      demand = epoch_demand;
      t0 += len;
      if (t0 > limit) return limit + 1;
      continue;
    }
    for (std::int64_t j = 1; j <= draws; ++j) {
      const std::int64_t t = t0 + j * rate.steps;
      if (t > limit) return limit + 1;
      demand += rate.units;
      if (demand >= cap_total) return t;
      const std::int64_t s = supply_at(cursors, t);
      if (demand > s) return t;
      // Demand grows by rate.units per draw while supply never shrinks,
      // so every later draw whose cumulative demand stays within today's
      // slack is provably safe — jump straight past them. This turns the
      // draw-by-draw walk into one iteration per supply step.
      const std::int64_t slack = std::min(s, cap_total - 1) - demand;
      const std::int64_t skip = std::min(slack / rate.units, draws - j);
      j += skip;
      demand += skip * rate.units;
    }
    t0 += len;
    if (t0 > limit) return limit + 1;
  }
  throw error("trajectory_bound_steps: load drains too slowly to bound");
}

/// Immutable per-search context shared by the sequential evaluator, every
/// parallel worker and the skeleton expansion.
struct search_ctx {
  const kibam::bank& bank;
  const load::trace& load;
  const search_options& opts;
  bool minimize;
  epoch_table epochs;
  std::vector<std::size_t> group_order;  ///< Battery indices, type-grouped.
  std::vector<std::size_t> group_begin;  ///< Group offsets in group_order.

  /// Advances through idle epochs (all batteries recovering), accumulating
  /// the consumed steps, until `epoch` refers to a job epoch.
  void skip_idle(std::vector<kibam::discrete_state>& bats, std::size_t& epoch,
                 std::int64_t& consumed) const {
    while (epochs.at(epoch).idle()) {
      const std::int64_t steps = epochs.at(epoch).len;
      if (steps > 0) {
        bank.advance_all(bats, kibam::bank::idle, {0, 0}, steps);
      }
      consumed += steps;
      ++epoch;
    }
  }

  /// Whether battery `i` is a branch candidate at a decision or hand-over
  /// point: alive, and the lowest-index representative of its (type,
  /// state) class.
  bool representative(const std::vector<kibam::discrete_state>& bats,
                      std::size_t i) const {
    if (bats[i].empty) return false;
    const std::uint64_t sig = pack(bats[i]);
    for (std::size_t j = 0; j < i; ++j) {
      if (!bats[j].empty && bank.type_of(j) == bank.type_of(i) &&
          pack(bats[j]) == sig) {
        return false;
      }
    }
    return true;
  }
};

/// The recursive branch-and-bound machinery over one scratch pool and one
/// (possibly shared) memo table. One evaluator serves the sequential
/// search; the parallel phase runs one per subtree task and merges stats.
///
/// Value contract, held inductively by node_value and run_from: a returned
/// value is always an admissible upper bound on the true optimum, and it
/// *is* the true optimum whenever it exceeds the pruning floor passed in.
/// Minimisation disables pruning entirely, so every value is exact there.
class evaluator {
 public:
  evaluator(const search_ctx& cx, memo_table& memo,
            std::atomic<std::uint64_t>& nodes_total)
      : cx_(cx), memo_(memo), nodes_total_(nodes_total) {}

  /// Best additional steps from the start of job epoch `epoch`; exact when
  /// the result exceeds `floor`, otherwise an upper bound at most `floor`.
  std::int64_t node_value(const std::vector<kibam::discrete_state>& bats,
                          std::size_t epoch, std::int64_t floor) {
    const memo_table::key_view key = key_of(bats, epoch);
    const std::uint64_t hash = memo_table::hash_key(key);
    memo_table::entry hit;
    if (memo_.lookup(key, hash, floor, hit)) {
      ++stats.memo_hits;
      if (!hit.exact) ++stats.pruned;  // bounded reuse: a cut, not a value
      return hit.value;
    }
    return expand(bats, epoch, floor, hash);
  }

  /// The expansion half of node_value, for callers that already looked the
  /// state up (and missed) under `hash`: branches over the distinct
  /// candidates and stores the result under the state's key.
  std::int64_t expand(const std::vector<kibam::discrete_state>& bats,
                      std::size_t epoch, std::int64_t floor,
                      std::uint64_t hash) {
    count_node();

    std::int64_t best = cx_.minimize ? k_inf : -1;
    for (std::size_t i = 0; i < bats.size(); ++i) {
      if (!cx_.representative(bats, i)) continue;
      auto copy = scratch_.copy_of(bats);
      const std::int64_t v = run_from(*copy, epoch, 0, i,
                                      cx_.minimize ? 0 : std::max(best, floor));
      best = cx_.minimize ? std::min(best, v) : std::max(best, v);
    }
    BSCHED_ASSERT(best >= 0 && best < k_inf);
    // The children reused the key buffer; the key is a pure function of
    // the (unchanged) node state, so refilling it is exact.
    std::uint64_t evicted = 0;
    memo_.store(key_of(bats, epoch), hash,
                {best, cx_.minimize || best > floor}, evicted);
    stats.memo_evictions += evicted;
    return best;
  }

  /// Simulates job epoch `epoch` from step `offset` with `active` serving.
  /// Returns the best additional steps measured from the entry point,
  /// under the node_value contract with `prune_below` as the floor.
  std::int64_t run_from(std::vector<kibam::discrete_state>& bats,
                        std::size_t epoch, std::int64_t offset,
                        std::size_t active, std::int64_t prune_below) {
    const epoch_table::plan& p = cx_.epochs.at(epoch);
    const load::draw_rate rate = p.rate;
    const std::int64_t total = p.len;
    bats[active].discharge_elapsed = 0;

    std::int64_t local = 0;
    for (std::int64_t i = offset; i < total;) {
      // Event-horizon advance: the search only branches at deaths, so
      // jumping straight to the next death leaves the tree untouched.
      const kibam::advance_result adv =
          cx_.bank.advance_all(bats, active, rate, total - i);
      local += adv.steps;
      i += adv.steps;
      if (adv.event != kibam::step_event::died) break;
      const bool all_empty = std::ranges::all_of(
          bats, [](const auto& b) { return b.empty; });
      if (all_empty) return local;
      // Forced hand-over: branch over the distinct alive batteries.
      std::int64_t best = cx_.minimize ? k_inf : -1;
      for (std::size_t b = 0; b < bats.size(); ++b) {
        if (!cx_.representative(bats, b)) continue;
        auto copy = scratch_.copy_of(bats);
        const std::int64_t v = run_from(
            *copy, epoch, i, b,
            cx_.minimize ? 0 : std::max(best, prune_below - local));
        best = cx_.minimize ? std::min(best, v) : std::max(best, v);
      }
      return local + best;
    }

    // Epoch completed; cross idle epochs to the next decision point. The
    // memo is consulted before the bound: siblings funnel into shared
    // follow-on states, so a hit (exact value or a reusable cut, both
    // admissible) saves the trajectory walk entirely, and the walk runs
    // only on states the search has genuinely never priced. Expansion
    // happens in exactly the same cases as bound-then-memo — node counts
    // and results are bit-identical, only the hit/pruned_by_bound split
    // in the stats shifts.
    std::size_t next = epoch + 1;
    std::int64_t consumed = local;
    cx_.skip_idle(bats, next, consumed);
    for (auto& b : bats) b.discharge_elapsed = 0;

    const std::int64_t floor = prune_below - consumed;
    const memo_table::key_view key = key_of(bats, next);
    const std::uint64_t hash = memo_table::hash_key(key);
    memo_table::entry hit;
    if (memo_.lookup(key, hash, floor, hit)) {
      ++stats.memo_hits;
      if (!hit.exact) ++stats.pruned;  // bounded reuse: a cut, not a value
      return consumed + hit.value;
    }
    if (!cx_.minimize && cx_.opts.prune) {
      const std::int64_t w = bound_steps(bats, next, floor);
      if (w <= floor) {
        ++stats.pruned;
        ++stats.pruned_by_bound;
        return consumed + w;  // <= prune_below: an admissible upper bound.
      }
    }
    return consumed + expand(bats, next, floor, hash);
  }

  /// Rebuilds the decision list of a finished run by re-walking the warmed
  /// memo with the known optimum threaded as a target: at every branch the
  /// first candidate whose subtree *meets* the target is committed. The
  /// trial walk is the committed walk (try_probe) — a failed candidate
  /// rewinds its decisions, a successful one keeps them — so the chosen
  /// branch is simulated once, not once to test and once to record.
  /// Sub-target candidates can never spuriously match: the threaded
  /// target is always the exact parent value, so every candidate's value
  /// is at most the remainder it is probed against, and a chain that
  /// passes each exactness check achieves it exactly. The list is
  /// deterministic whatever bounds the memo holds.
  void reconstruct(std::vector<kibam::discrete_state> bats, std::size_t epoch,
                   std::int64_t target, std::vector<std::size_t>& decisions) {
    while (true) {
      walk_result wr{};
      std::size_t chosen = bats.size();
      const std::size_t mark = decisions.size();
      for (std::size_t i = 0; i < bats.size() && chosen == bats.size(); ++i) {
        if (bats[i].empty) continue;
        decisions.push_back(i);
        auto copy = scratch_.copy_of(bats);
        if (try_probe(*copy, epoch, 0, i, target, decisions, wr)) {
          chosen = i;
          bats = *copy;
        } else {
          decisions.resize(mark);
        }
      }
      BSCHED_ASSERT(chosen < bats.size());
      if (wr.died) return;
      epoch = wr.next_epoch;
      target = wr.remaining;
    }
  }

  /// The memo key of (`bats`, `epoch`): the canonical epoch, then the
  /// packed states sorted within each type group. Filled into this
  /// evaluator's buffer, so valid until the next key_of call. Public,
  /// like the two below, for the parallel skeleton, which expands nodes
  /// outside run_from.
  memo_table::key_view key_of(const std::vector<kibam::discrete_state>& bats,
                              std::size_t epoch) {
    key_.resize(bats.size() + 1);
    key_[0] = cx_.epochs.canonical(epoch);
    auto out = key_.begin() + 1;
    for (std::size_t t = 0; t + 1 < cx_.group_begin.size(); ++t) {
      const auto start = out;
      for (std::size_t i = cx_.group_begin[t]; i < cx_.group_begin[t + 1];
           ++i) {
        *out++ = pack(bats[cx_.group_order[i]]);
      }
      std::sort(start, out);
    }
    return key_;
  }

  /// Admissible bound on the steps from the start of epoch `epoch`, early-
  /// outing past `limit` (trajectory bound) or exact (flat fallback).
  std::int64_t bound_steps(const std::vector<kibam::discrete_state>& bats,
                           std::size_t epoch, std::int64_t limit) {
    const std::int64_t max_draw = cx_.epochs.max_draw_units();
    if (cx_.opts.per_battery_bound) {
      return trajectory_walk(cx_.bank, cx_.epochs, bats, epoch, max_draw,
                             limit, cursors_);
    }
    std::int64_t alive = 0;
    for (std::size_t b = 0; b < bats.size(); ++b) {
      if (bats[b].empty) {
        continue;
      }
      alive += deliverable_units(cx_.bank.disc(b), bats[b].n, max_draw);
    }
    return drain_bound_steps(cx_.bank.steps(), cx_.load, epoch, alive);
  }

  /// Registers one expanded decision node against the shared budget.
  void count_node() {
    ++stats.nodes;
    require(nodes_total_.fetch_add(1, std::memory_order_relaxed) <
                cx_.opts.max_nodes,
            "optimal_schedule: node budget exhausted; relax the load or "
            "coarsen the grid");
  }

  search_stats stats;

 private:
  struct walk_result {
    bool died;
    std::size_t next_epoch;
    std::int64_t remaining;  ///< Expected value of the follow-on node.
  };

  /// Deterministic twin of run_from that simulates the branch (`epoch`,
  /// `offset`, `active`) checking that it achieves exactly `target`
  /// additional steps: hand-over choices are committed to `decisions` as
  /// the walk goes, and the first mismatch (a death off target, or a
  /// completed epoch whose follow-on value misses the remainder) rewinds
  /// them and returns false. Acceptance is equivalent to "this branch's
  /// exact value equals target": the threaded target is always the exact
  /// parent maximum (minimum when minimising), so no candidate's value
  /// can exceed it, and the per-step exactness checks reject any chain
  /// that would undershoot.
  bool try_probe(std::vector<kibam::discrete_state>& bats, std::size_t epoch,
                 std::int64_t offset, std::size_t active, std::int64_t target,
                 std::vector<std::size_t>& decisions, walk_result& out) {
    const epoch_table::plan& p = cx_.epochs.at(epoch);
    const load::draw_rate rate = p.rate;
    const std::int64_t total = p.len;
    bats[active].discharge_elapsed = 0;

    std::int64_t local = 0;
    for (std::int64_t i = offset; i < total;) {
      const kibam::advance_result adv =
          cx_.bank.advance_all(bats, active, rate, total - i);
      local += adv.steps;
      i += adv.steps;
      if (adv.event != kibam::step_event::died) break;
      if (std::ranges::all_of(bats, [](const auto& b) { return b.empty; })) {
        if (local != target) return false;
        out = {true, epoch, 0};
        return true;
      }
      // Commit the first hand-over branch achieving the rest of the target.
      const std::int64_t rest = target - local;
      if (rest <= 0) return false;  // already outlived the target
      const std::size_t mark = decisions.size();
      for (std::size_t b = 0; b < bats.size(); ++b) {
        if (bats[b].empty) continue;
        decisions.push_back(b);
        auto copy = scratch_.copy_of(bats);
        if (try_probe(*copy, epoch, i, b, rest, decisions, out)) {
          bats = *copy;
          return true;
        }
        decisions.resize(mark);
      }
      return false;
    }

    // Epoch completed: the follow-on decision point must be worth the
    // remainder exactly. Values above the floor are exact, so the memo
    // lookup (or evaluation) below can never spuriously match.
    std::size_t next = epoch + 1;
    std::int64_t consumed = local;
    cx_.skip_idle(bats, next, consumed);
    for (auto& b : bats) b.discharge_elapsed = 0;
    const std::int64_t rest = target - consumed;
    if (rest <= 0) return false;
    if (node_value(bats, next, cx_.minimize ? 0 : rest - 1) != rest) {
      return false;
    }
    out = {false, next, rest};
    return true;
  }

  const search_ctx& cx_;
  memo_table& memo_;
  std::atomic<std::uint64_t>& nodes_total_;
  kibam::scratch_pool scratch_;
  std::vector<std::uint64_t> key_;        ///< key_of's buffer.
  std::vector<supply_cursor> cursors_;    ///< bound_steps' buffer.
};

class searcher {
 public:
  searcher(const kibam::bank& bank, const load::trace& load,
           const search_options& opts, bool minimize)
      : opts_(opts),
        cx_{bank, load, opts_, minimize, epoch_table{load, bank.steps()}, {},
            {}} {
    // Battery indices ordered by type: the memo key sorts states within
    // each contiguous same-type group, so permutations of interchangeable
    // batteries collapse while distinct types never mix.
    cx_.group_order.reserve(bank.size());
    for (std::size_t t = 0; t < bank.type_count(); ++t) {
      cx_.group_begin.push_back(cx_.group_order.size());
      for (std::size_t b = 0; b < bank.size(); ++b) {
        if (bank.type_of(b) == t) cx_.group_order.push_back(b);
      }
    }
    cx_.group_begin.push_back(cx_.group_order.size());
  }

  optimal_result run() {
    BSCHED_TRACE_SPAN(solve_span, "opt.search.solve");
    const bool cycle_has_job = std::ranges::any_of(
        cx_.load.cycle(), [](const load::epoch& e) { return e.current_a > 0; });
    require(cycle_has_job,
            "optimal_schedule: the load cycle must contain a job");

    std::vector<kibam::discrete_state> bats = cx_.bank.full_states();
    std::size_t epoch = 0;
    std::int64_t lead_in = 0;
    cx_.skip_idle(bats, epoch, lead_in);

    const std::size_t workers = worker_count();
    std::shared_ptr<memo_table> memo = opts_.shared_memo;
    if (memo == nullptr) {
      memo = std::make_shared<memo_table>(opts_.max_memo_entries,
                                          workers > 1 ? 16 : 1);
    }
    memo->attach(fingerprint());

    std::atomic<std::uint64_t> nodes_total{0};
    evaluator eval{cx_, *memo, nodes_total};

    // Warm start: seed the incumbent from lookahead rollouts at
    // geometrically deepening horizons. Any realized schedule's lifetime
    // is a lower bound on the optimum, so the root floor stays below the
    // true value and the root result stays exact.
    std::int64_t floor = -1;
    if (!cx_.minimize && opts_.prune && opts_.warm_start > 0) {
      std::uint64_t incumbent = 0;
      for (std::uint64_t h = 1;; h *= 2) {
        const std::uint64_t horizon = std::min(h, opts_.warm_start);
        const lookahead_result la =
            lookahead_schedule(cx_.bank, cx_.load, horizon);
        eval.stats.rollouts += la.stats.rollouts;
        incumbent = std::max(
            incumbent,
            static_cast<std::uint64_t>(std::llround(
                la.lifetime_min / cx_.bank.steps().time_step_min)));
        if (horizon == opts_.warm_start) break;
      }
      eval.stats.incumbent_from_lookahead = incumbent;
      floor = std::max(floor,
                       static_cast<std::int64_t>(incumbent) - lead_in - 1);
    }

    const std::int64_t best =
        workers > 1 ? parallel_root(eval, bats, epoch, floor, workers,
                                    *memo, nodes_total)
                    : eval.node_value(bats, epoch, floor);

    optimal_result out;
    out.lifetime_min = static_cast<double>(lead_in + best) *
                       cx_.bank.steps().time_step_min;
    eval.reconstruct(std::move(bats), epoch, best, out.decisions);
    out.stats = eval.stats;
    out.stats.memo_entries = memo->size();
    out.stats.memo_shards = memo->shard_count();
    // Live export: a sweep runs many solves, so these accumulate in the
    // registry as leases progress — visible in heartbeat telemetry long
    // before the end-of-run search_stats fold.
    BSCHED_COUNTER_ADD("opt.search.nodes_total", out.stats.nodes);
    BSCHED_COUNTER_ADD("opt.search.memo_hits_total", out.stats.memo_hits);
    BSCHED_COUNTER_ADD("opt.search.pruned_total", out.stats.pruned);
    BSCHED_COUNTER_ADD("opt.search.pruned_by_bound_total",
                       out.stats.pruned_by_bound);
    BSCHED_COUNTER_ADD("opt.search.rollouts_total", out.stats.rollouts);
    BSCHED_COUNTER_ADD("opt.search.stolen_subtrees_total",
                       out.stats.stolen_subtrees);
    BSCHED_GAUGE_SET("opt.search.memo_entries",
                     static_cast<double>(out.stats.memo_entries));
    return out;
  }

 private:
  std::size_t worker_count() const {
    if (opts_.threads == 1) return 1;
    if (opts_.threads == 0) {  // auto: whatever the budget has left
      return util::thread_budget::grant(
          std::numeric_limits<std::size_t>::max());
    }
    return static_cast<std::size_t>(opts_.threads);
  }

  /// Identity of (bank, load, direction) for shared-memo validation.
  std::uint64_t fingerprint() const {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t w) {
      h ^= w;
      h *= 1099511628211ULL;
    };
    mix(cx_.minimize ? 1 : 2);
    mix(cx_.bank.size());
    mix(cx_.bank.type_count());
    for (std::size_t b = 0; b < cx_.bank.size(); ++b) {
      const kibam::discretization& d = cx_.bank.disc(b);
      mix(cx_.bank.type_of(b));
      mix(static_cast<std::uint64_t>(d.total_units()));
      mix(static_cast<std::uint64_t>(d.c_permille()));
      if (d.total_units() >= 1) {
        mix(static_cast<std::uint64_t>(d.recovery_steps(2)));
      }
    }
    mix(std::bit_cast<std::uint64_t>(cx_.bank.steps().time_step_min));
    const auto mix_epochs = [&](const std::vector<load::epoch>& epochs) {
      mix(epochs.size());
      for (const load::epoch& e : epochs) {
        mix(std::bit_cast<std::uint64_t>(e.duration_min));
        mix(std::bit_cast<std::uint64_t>(e.current_a));
      }
    };
    mix_epochs(cx_.load.prefix());
    mix_epochs(cx_.load.cycle());
    if (h == 0) h = 1;  // 0 is the not-yet-attached sentinel
    return h;
  }

  /// Parallel evaluation of the root: a BFS skeleton expands the top of
  /// the tree into subtree tasks whose pruning floors are all fixed up
  /// front (never a racing sibling's incumbent), the tasks run on the
  /// work-stealing pool over the shared sharded memo, and the skeleton is
  /// folded sequentially afterwards — so the root value is bit-identical
  /// to the sequential search for any worker count.
  std::int64_t parallel_root(evaluator& eval,
                             const std::vector<kibam::discrete_state>& bats,
                             std::size_t epoch, std::int64_t root_floor,
                             std::size_t workers, memo_table& memo,
                             std::atomic<std::uint64_t>& nodes_total) {
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    struct fold_rec {
      std::size_t parent;
      std::int64_t consumed;  ///< Steps from the fold's entry to the branch.
      std::int64_t floor;     ///< Children's fixed pruning floor.
      bool decision;          ///< Memoise on finalisation.
      std::vector<std::uint64_t> key;
      std::uint64_t hash;
      std::int64_t best;
    };
    struct pending {
      std::vector<kibam::discrete_state> bats;
      std::size_t epoch;
      std::int64_t offset;
      std::size_t active;
      std::int64_t prune_below;
      std::size_t fold;
      std::int64_t value = 0;
    };
    const std::int64_t init = cx_.minimize ? k_inf : -1;

    std::vector<fold_rec> folds;
    const auto contribute = [&](std::size_t f, std::int64_t v) {
      folds[f].best =
          cx_.minimize ? std::min(folds[f].best, v) : std::max(folds[f].best, v);
    };

    std::deque<pending> frontier;
    {  // Root decision fold and its candidate branches.
      const memo_table::key_view key = eval.key_of(bats, epoch);
      folds.push_back({npos, 0, root_floor, true, {key.begin(), key.end()},
                       memo_table::hash_key(key), init});
      eval.count_node();
      for (std::size_t i = 0; i < bats.size(); ++i) {
        if (!cx_.representative(bats, i)) continue;
        frontier.push_back({bats, epoch, 0, i, root_floor, 0});
      }
    }

    // Grow the frontier breadth-first until it feeds the pool; expansion
    // replays run_from's simulation and splits at its branch points.
    const std::size_t target = 4 * workers;
    for (std::size_t expanded = 0;
         frontier.size() < target && !frontier.empty() && expanded < 512;
         ++expanded) {
      pending t = std::move(frontier.front());
      frontier.pop_front();
      const epoch_table::plan& p = cx_.epochs.at(t.epoch);
      const load::draw_rate rate = p.rate;
      const std::int64_t total = p.len;
      t.bats[t.active].discharge_elapsed = 0;

      std::int64_t local = 0;
      bool branched = false;
      for (std::int64_t i = t.offset; i < total;) {
        const kibam::advance_result adv =
            cx_.bank.advance_all(t.bats, t.active, rate, total - i);
        local += adv.steps;
        i += adv.steps;
        if (adv.event != kibam::step_event::died) break;
        if (std::ranges::all_of(t.bats,
                                [](const auto& b) { return b.empty; })) {
          contribute(t.fold, local);
          branched = true;
          break;
        }
        const std::int64_t pb = t.prune_below - local;
        folds.push_back({t.fold, local, pb, false, {}, 0, init});
        const std::size_t f = folds.size() - 1;
        for (std::size_t b = 0; b < t.bats.size(); ++b) {
          if (!cx_.representative(t.bats, b)) continue;
          frontier.push_back({t.bats, t.epoch, i, b, pb, f});
        }
        branched = true;
        break;
      }
      if (branched) continue;

      std::size_t next = t.epoch + 1;
      std::int64_t consumed = local;
      cx_.skip_idle(t.bats, next, consumed);
      for (auto& b : t.bats) b.discharge_elapsed = 0;

      const std::int64_t floor = t.prune_below - consumed;
      if (!cx_.minimize && cx_.opts.prune) {
        const std::int64_t w = eval.bound_steps(t.bats, next, floor);
        if (w <= floor) {
          ++eval.stats.pruned;
          ++eval.stats.pruned_by_bound;
          contribute(t.fold, consumed + w);
          continue;
        }
      }
      const memo_table::key_view key = eval.key_of(t.bats, next);
      const std::uint64_t hash = memo_table::hash_key(key);
      memo_table::entry hit;
      if (memo.lookup(key, hash, floor, hit)) {
        ++eval.stats.memo_hits;
        if (!hit.exact) ++eval.stats.pruned;
        contribute(t.fold, consumed + hit.value);
        continue;
      }
      eval.count_node();
      folds.push_back({t.fold, consumed, floor, true, {key.begin(), key.end()},
                       hash, init});
      const std::size_t f = folds.size() - 1;
      for (std::size_t i = 0; i < t.bats.size(); ++i) {
        if (!cx_.representative(t.bats, i)) continue;
        frontier.push_back({t.bats, next, 0, i, floor, f});
      }
    }

    // Evaluate the remaining frontier on the pool, one evaluator (own
    // scratch, own stats) per task over the shared memo.
    std::vector<pending> tasks(std::make_move_iterator(frontier.begin()),
                               std::make_move_iterator(frontier.end()));
    if (!tasks.empty()) {
      std::vector<evaluator> evals;
      evals.reserve(tasks.size());
      for (std::size_t k = 0; k < tasks.size(); ++k) {
        evals.emplace_back(cx_, memo, nodes_total);
      }
      std::mutex fail_mutex;
      std::exception_ptr failure;
      std::vector<std::function<void()>> jobs;
      jobs.reserve(tasks.size());
      for (std::size_t k = 0; k < tasks.size(); ++k) {
        jobs.push_back([&, k] {
          try {
            tasks[k].value = evals[k].run_from(
                tasks[k].bats, tasks[k].epoch, tasks[k].offset,
                tasks[k].active, tasks[k].prune_below);
          } catch (...) {
            const std::scoped_lock lock(fail_mutex);
            if (failure == nullptr) failure = std::current_exception();
          }
        });
      }
      const util::thread_budget::lease lease{workers - 1};
      eval.stats.stolen_subtrees = util::task_pool::run(std::move(jobs),
                                                        workers);
      if (failure != nullptr) std::rethrow_exception(failure);
      for (const evaluator& ev : evals) merge_stats(eval.stats, ev.stats);
      for (const pending& t : tasks) contribute(t.fold, t.value);
    }

    // Fold bottom-up (children were appended after their parents) and
    // memoise the skeleton's decision nodes.
    for (std::size_t f = folds.size(); f-- > 1;) {
      fold_rec& r = folds[f];
      BSCHED_ASSERT(r.best != init);
      if (r.decision) {
        std::uint64_t evicted = 0;
        memo.store(r.key, r.hash,
                   {r.best, cx_.minimize || r.best > r.floor}, evicted);
        eval.stats.memo_evictions += evicted;
      }
      contribute(r.parent, r.consumed + r.best);
    }
    fold_rec& root = folds.front();
    BSCHED_ASSERT(root.best != init);
    std::uint64_t evicted = 0;
    memo.store(root.key, root.hash,
               {root.best, cx_.minimize || root.best > root.floor}, evicted);
    eval.stats.memo_evictions += evicted;
    return root.best;
  }

  static void merge_stats(search_stats& into, const search_stats& from) {
    into.nodes += from.nodes;
    into.memo_hits += from.memo_hits;
    into.pruned += from.pruned;
    into.memo_evictions += from.memo_evictions;
    into.rollouts += from.rollouts;
    into.pruned_by_bound += from.pruned_by_bound;
  }

  search_options opts_;
  search_ctx cx_;
};

}  // namespace

std::int64_t drain_bound_steps(const load::step_sizes& steps,
                               const load::trace& load,
                               std::size_t epoch_index,
                               std::int64_t alive_units) {
  require(alive_units >= 0, "drain_bound_steps: negative charge");
  if (alive_units == 0) return 0;
  std::int64_t total_steps = 0;
  std::int64_t remaining = alive_units;
  std::size_t idx = epoch_index;
  // The cycle always drains charge, so this loop terminates; the guard is a
  // hard cap against degenerate almost-idle loads.
  for (std::size_t guard = 0; guard < 100'000'000; ++guard, ++idx) {
    const load::epoch& e = load.at(idx);
    const std::int64_t len = epoch_steps(e, steps);
    if (e.current_a <= 0) {
      total_steps += len;
      continue;
    }
    const load::draw_rate rate = load::rate_for(e.current_a, steps);
    const std::int64_t draws = len / rate.steps;
    const std::int64_t drawable = draws * rate.units;
    if (drawable < remaining) {
      remaining -= drawable;
      total_steps += len;
      continue;
    }
    const std::int64_t needed_draws =
        (remaining + rate.units - 1) / rate.units;
    return total_steps + needed_draws * rate.steps;
  }
  throw error("drain_bound_steps: load drains too slowly to bound");
}

std::int64_t deliverable_units(const kibam::discretization& d, std::int64_t n,
                               std::int64_t max_draw_units) {
  require(n >= 0, "deliverable_units: negative charge");
  require(max_draw_units >= 1, "deliverable_units: draws deliver >= 1 unit");
  const std::int64_t c = d.c_permille();
  // Every draw of u units lowers the available charge by 1000 u permille
  // (c u directly, (1000 - c) u through the height difference) while a
  // recovery tick returns only (1000 - c); since recovered height was
  // first raised by a draw already counted, the battery is still alive
  // before its final draw only while c * delivered < c * n - (1000 - c).
  // That strands ceil((1000 - c + 1) / c) units minus the final draw,
  // whatever the recovery schedule — an admissible per-battery cap.
  const std::int64_t before_final = c * n - (1000 - c) - 1;
  if (before_final < 0) return std::min(n, max_draw_units);
  return std::min(n, before_final / c + max_draw_units);
}

std::int64_t trajectory_bound_steps(const kibam::bank& bank,
                                    const std::vector<kibam::discrete_state>&
                                        bats,
                                    const load::trace& load,
                                    std::size_t epoch_index,
                                    std::int64_t max_draw_units) {
  require(bats.size() == bank.size(),
          "trajectory_bound_steps: one state per bank battery");
  require(max_draw_units >= 1,
          "trajectory_bound_steps: draws deliver >= 1 unit");
  std::vector<supply_cursor> cursors;
  return trajectory_walk(bank, epoch_table{load, bank.steps()}, bats,
                         epoch_index, max_draw_units, k_inf, cursors);
}

std::shared_ptr<memo_table> make_shared_memo(std::uint64_t max_entries,
                                             std::size_t shards) {
  return std::make_shared<memo_table>(max_entries, shards);
}

optimal_result optimal_schedule(const kibam::bank& bank,
                                const load::trace& load,
                                const search_options& opts) {
  searcher s{bank, load, opts, /*minimize=*/false};
  return s.run();
}

optimal_result optimal_schedule(const kibam::discretization& disc,
                                std::size_t battery_count,
                                const load::trace& load,
                                const search_options& opts) {
  return optimal_schedule(kibam::bank{disc, battery_count}, load, opts);
}

optimal_result worst_schedule(const kibam::bank& bank,
                              const load::trace& load,
                              const search_options& opts) {
  searcher s{bank, load, opts, /*minimize=*/true};
  return s.run();
}

optimal_result worst_schedule(const kibam::discretization& disc,
                              std::size_t battery_count,
                              const load::trace& load,
                              const search_options& opts) {
  return worst_schedule(kibam::bank{disc, battery_count}, load, opts);
}

}  // namespace bsched::opt
