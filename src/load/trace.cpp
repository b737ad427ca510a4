#include "load/trace.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace bsched::load {

namespace {

void validate(const std::vector<epoch>& epochs, const char* what) {
  for (const epoch& e : epochs) {
    if (!(e.duration_min > 0)) {
      throw error(std::string(what) + ": epoch durations must be positive");
    }
    if (!(e.current_a >= 0)) {
      throw error(std::string(what) + ": currents must be non-negative");
    }
  }
}

double total_minutes(const std::vector<epoch>& epochs) {
  double sum = 0;
  for (const epoch& e : epochs) sum += e.duration_min;
  return sum;
}

}  // namespace

trace::trace(std::vector<epoch> prefix, std::vector<epoch> cycle)
    : prefix_(std::move(prefix)), cycle_(std::move(cycle)) {
  require(!cycle_.empty(), "trace: cycle must be non-empty");
  validate(prefix_, "trace prefix");
  validate(cycle_, "trace cycle");
  prefix_minutes_ = total_minutes(prefix_);
  cycle_minutes_ = total_minutes(cycle_);
  for (const epoch& e : prefix_) peak_ = std::max(peak_, e.current_a);
  for (const epoch& e : cycle_) peak_ = std::max(peak_, e.current_a);
}

const epoch& trace::at(std::size_t index) const noexcept {
  if (index < prefix_.size()) return prefix_[index];
  return cycle_[(index - prefix_.size()) % cycle_.size()];
}

double trace::current_at(double t_min) const {
  return at(position_at(t_min).index).current_a;
}

trace::position trace::position_at(double t_min) const {
  require(t_min >= 0, "trace: time must be non-negative");
  double start = 0;
  std::size_t index = 0;
  if (t_min >= prefix_minutes_) {
    // Skip the prefix, then whole cycles, then walk the remainder.
    start = prefix_minutes_;
    index = prefix_.size();
    const double into_cycles = t_min - prefix_minutes_;
    const double whole = std::floor(into_cycles / cycle_minutes_);
    start += whole * cycle_minutes_;
    index += static_cast<std::size_t>(whole) * cycle_.size();
    for (const epoch& e : cycle_) {
      if (t_min < start + e.duration_min) break;
      start += e.duration_min;
      ++index;
    }
    return {index, start};
  }
  for (const epoch& e : prefix_) {
    if (t_min < start + e.duration_min) break;
    start += e.duration_min;
    ++index;
  }
  return {index, start};
}

}  // namespace bsched::load
