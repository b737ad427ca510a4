// Structure-of-arrays dKiBaM state: independent lanes of one bank.
//
// soa_bank stores `lanes x batteries` states as parallel arrays (one
// contiguous block per counter, lane-major) instead of per-lane vectors
// of discrete_state, so the hot counters of a lane sit together and all
// lanes share the bank's per-type discretizations (and their precomputed
// recovery tables) through one pointer.
//
// Lanes are fully independent: each is the exact state a per-lane
// std::vector<discrete_state> would hold, and both stepping entry points
// are bit-identical to bank::step_all on that vector — step_lane is the
// per-tick reference, advance_lane the event-horizon kernel (see
// kibam/advance.hpp). The simulator's discrete backend runs every run in
// a lane; engine::run_sweep keeps one one-lane soa_bank per bank shape
// and worker and reuses it across that worker's jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "kibam/bank.hpp"
#include "kibam/discrete.hpp"
#include "load/discretize.hpp"

namespace bsched::kibam {

class soa_bank {
 public:
  /// `lanes` independent copies of `bk`, each starting fully charged.
  /// The bank must outlive the soa_bank (it is referenced, not copied).
  soa_bank(const bank& bk, std::size_t lanes);

  [[nodiscard]] const bank& source() const noexcept { return *bank_; }
  [[nodiscard]] std::size_t batteries() const noexcept { return batteries_; }
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  [[nodiscard]] std::int64_t n(std::size_t lane, std::size_t b) const {
    return n_[at(lane, b)];
  }
  [[nodiscard]] std::int64_t m(std::size_t lane, std::size_t b) const {
    return m_[at(lane, b)];
  }
  [[nodiscard]] std::int64_t recovery_elapsed(std::size_t lane,
                                              std::size_t b) const {
    return rec_[at(lane, b)];
  }
  [[nodiscard]] std::int64_t discharge_elapsed(std::size_t lane,
                                               std::size_t b) const {
    return dis_[at(lane, b)];
  }
  [[nodiscard]] bool empty(std::size_t lane, std::size_t b) const {
    return empty_[at(lane, b)] != 0;
  }

  /// Recharges every battery of `lane` to full (n = N, m = 0).
  void reset_lane(std::size_t lane);

  /// go_on edge: zero battery `b`'s discharge clock (job start/hand-over).
  void reset_discharge(std::size_t lane, std::size_t b) {
    dis_[at(lane, b)] = 0;
  }

  [[nodiscard]] bool lane_all_empty(std::size_t lane) const;

  /// The lane as the AoS vector bank::step_all/advance_all consume — the
  /// cheap snapshot format for rollouts.
  [[nodiscard]] std::vector<discrete_state> lane_states(
      std::size_t lane) const;

  /// lane_states into a caller-owned vector, reusing its capacity: the
  /// allocation-free snapshot path for pooled rollout scratch states.
  void copy_lane_states(std::size_t lane,
                        std::vector<discrete_state>& out) const;

  /// One time step of every battery in `lane`; bit-identical to
  /// bank::step_all on lane_states(lane). The per-tick reference path
  /// (trace recording samples every step through here).
  step_event step_lane(std::size_t lane, std::size_t active,
                       const load::draw_rate& rate);

  /// Event-horizon advance of `lane` by up to `max_steps` steps;
  /// bit-identical to that many step_lane calls, stopping early only when
  /// the active battery dies. Mirrors bank::advance_all.
  advance_result advance_lane(std::size_t lane, std::size_t active,
                              const load::draw_rate& rate,
                              std::int64_t max_steps);

 private:
  [[nodiscard]] std::size_t at(std::size_t lane, std::size_t b) const {
    return lane * batteries_ + b;
  }

  const bank* bank_;
  std::size_t batteries_;
  std::size_t lanes_;
  /// Per-battery recovery-table base pointers (into the bank's shared
  /// discretizations), cached so step_lane's vectorized recovery sweep
  /// needs no virtual-free but call-laden accessor in its inner loop.
  std::vector<const std::int64_t*> tables_;
  // Parallel per-state counters, lane-major: index = lane * batteries + b.
  std::vector<std::int64_t> n_;
  std::vector<std::int64_t> m_;
  std::vector<std::int64_t> rec_;
  std::vector<std::int64_t> dis_;
  std::vector<std::uint8_t> empty_;  // uint8 (not bool): referenceable.
};

}  // namespace bsched::kibam
