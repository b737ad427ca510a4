// Timing decorator over the engine's policy registry — how the traced
// benchmark run attributes item time to the policy layer without any span
// inside the library.
//
// Every registry entry is wrapped: the wrapper is built by the engine once
// per evaluated item (engine::resolve_policy) and destroyed when the item's
// run ends, so its lifetime is the item's simulation time. Inside it the
// wrapper times bind_model (where "opt"/"worst" run the exact search),
// choose, and every model_view::rollout the wrapped policy makes through
// the decision context. Totals are folded into a shared recorder once per
// item, never per decision.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "opt/policies.hpp"
#include "sched/policy.hpp"
#include "sched/registry.hpp"
#include "util/spec.hpp"

namespace perfbench {

using steady = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_since(steady::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(steady::now() -
                                                              t0)
      .count();
}

/// What one item's policy did, in nanoseconds and calls.
struct item_record {
  std::int64_t item_ns = 0;     ///< Policy construction to destruction.
  std::int64_t bind_ns = 0;     ///< bind_model.
  std::int64_t choose_ns = 0;   ///< choose, rollouts inside it included.
  std::int64_t rollout_ns = 0;  ///< model_view::rollout calls.
  std::uint64_t choose_calls = 0;
  bool exact = false;  ///< An exact-search policy ("opt"/"worst").
};

/// Policy-layer totals of one benchmark pass (milliseconds and counts).
struct policy_tally {
  std::uint64_t items = 0;
  std::uint64_t choose_calls = 0;
  double item_ms = 0;
  double bind_ms = 0;
  double choose_self_ms = 0;  ///< choose minus the rollouts inside it.
  double rollout_ms = 0;
  double exact_bind_ms = 0;      ///< bind of "opt"/"worst": the searches.
  double exact_bind_max_ms = 0;  ///< Longest single search.
  std::vector<double> item_times_ms;
};

/// Thread-safe sink of item records; `take` returns and clears the totals.
class policy_recorder {
 public:
  void record(const item_record& r) noexcept {
    const double ms = 1e-6;
    const std::scoped_lock lock(mu_);
    ++tally_.items;
    tally_.choose_calls += r.choose_calls;
    tally_.item_ms += static_cast<double>(r.item_ns) * ms;
    tally_.bind_ms += static_cast<double>(r.bind_ns) * ms;
    tally_.choose_self_ms +=
        static_cast<double>(r.choose_ns - r.rollout_ns) * ms;
    tally_.rollout_ms += static_cast<double>(r.rollout_ns) * ms;
    if (r.exact) {
      const double bind = static_cast<double>(r.bind_ns) * ms;
      tally_.exact_bind_ms += bind;
      if (bind > tally_.exact_bind_max_ms) tally_.exact_bind_max_ms = bind;
    }
    try {
      tally_.item_times_ms.push_back(static_cast<double>(r.item_ns) * ms);
    } catch (...) {
      ++lost_;
    }
  }

  [[nodiscard]] policy_tally take() {
    const std::scoped_lock lock(mu_);
    return std::exchange(tally_, policy_tally{});
  }

  /// Item times that could not be stored (allocation failure).
  [[nodiscard]] std::uint64_t lost() const {
    const std::scoped_lock lock(mu_);
    return lost_;
  }

 private:
  mutable std::mutex mu_;
  policy_tally tally_;     // guarded by mu_
  std::uint64_t lost_ = 0;  // guarded by mu_
};

/// Forwards a model_view and times its rollouts into the item record.
class timed_view final : public bsched::sched::model_view {
 public:
  timed_view(const bsched::sched::model_view& inner, item_record& rec)
      : inner_(inner), rec_(rec) {}

  [[nodiscard]] bsched::sched::rollout_outcome rollout(
      std::size_t candidate, std::size_t horizon_jobs) const override {
    const auto t0 = steady::now();
    const bsched::sched::rollout_outcome out =
        inner_.rollout(candidate, horizon_jobs);
    rec_.rollout_ns += ns_since(t0);
    return out;
  }

  [[nodiscard]] bool interchangeable(std::size_t a,
                                     std::size_t b) const override {
    return inner_.interchangeable(a, b);
  }

 private:
  const bsched::sched::model_view& inner_;
  item_record& rec_;
};

/// The decorator itself: behaves exactly like the wrapped policy.
class timed_policy final : public bsched::sched::policy {
 public:
  timed_policy(std::unique_ptr<bsched::sched::policy> inner, bool exact,
               policy_recorder& out, steady::time_point born)
      : inner_(std::move(inner)), out_(out), born_(born) {
    rec_.exact = exact;
  }
  timed_policy(const timed_policy&) = delete;
  timed_policy& operator=(const timed_policy&) = delete;
  ~timed_policy() override {
    rec_.item_ns = ns_since(born_);
    out_.record(rec_);
  }

  [[nodiscard]] std::size_t choose(
      const bsched::sched::decision_context& ctx) override {
    const auto t0 = steady::now();
    std::size_t pick = 0;
    if (ctx.model != nullptr) {
      const timed_view view{*ctx.model, rec_};
      bsched::sched::decision_context timed = ctx;
      timed.model = &view;
      pick = inner_->choose(timed);
    } else {
      pick = inner_->choose(ctx);
    }
    rec_.choose_ns += ns_since(t0);
    ++rec_.choose_calls;
    return pick;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void reset() override { inner_->reset(); }

  void bind_model(const bsched::sched::model_info& model) override {
    const auto t0 = steady::now();
    inner_->bind_model(model);
    rec_.bind_ns += ns_since(t0);
  }

  [[nodiscard]] bsched::sched::search_stats stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<bsched::sched::policy> inner_;
  policy_recorder& out_;
  steady::time_point born_;
  item_record rec_;
};

/// opt::model_registry() with every entry wrapped in a timed_policy that
/// reports to `out` (which must outlive every policy the registry makes).
[[nodiscard]] inline bsched::sched::registry timed_registry(
    policy_recorder& out) {
  auto base = std::make_shared<const bsched::sched::registry>(
      bsched::opt::model_registry());
  bsched::sched::registry timed = *base;
  for (const std::string& name : base->names()) {
    const bool exact = name == "opt" || name == "worst";
    timed.add(name, [base, exact, &out](const bsched::spec& s)
                        -> std::unique_ptr<bsched::sched::policy> {
      const auto born = steady::now();
      return std::make_unique<timed_policy>(base->make(s), exact, out, born);
    });
  }
  return timed;
}

}  // namespace perfbench
