#include "api/scenario.hpp"

#include <algorithm>
#include <cstdio>

#include "load/random.hpp"
#include "util/error.hpp"
#include "util/spec.hpp"
#include "util/text.hpp"

namespace bsched::api {

std::string name(fidelity f) {
  switch (f) {
    case fidelity::discrete: return "discrete";
    case fidelity::continuous: return "continuous";
  }
  throw error("fidelity: invalid value");
}

load_spec load_spec::parse(const std::string& text) {
  for (const load::test_load l : load::all_test_loads()) {
    if (load::name(l) == text) return load_spec{l};
  }
  const spec s = parse_spec(text);
  if (s.name == "random" || s.name == "markov") {
    s.require_only({"count", "p", "idle", "seed"});
    random_load_spec r;
    r.generator = s.name == "markov" ? random_load_spec::kind::markov
                                     : random_load_spec::kind::iid;
    r.count = s.get_u64("count", r.count);
    r.p = s.get_double("p", r.p);
    r.idle_min = s.get_double("idle", r.idle_min);
    r.seed = s.get_u64("seed", r.seed);
    return load_spec{r};
  }
  throw error("load_spec: unknown load '" + clip(text) +
              "' (expected a paper test-load name, 'random:...' or "
              "'markov:...')");
}

load::trace load_spec::materialize() const {
  struct visitor {
    load::trace operator()(load::test_load l) const {
      return load::paper_trace(l);
    }
    load::trace operator()(const load::trace& t) const { return t; }
    load::trace operator()(const random_load_spec& r) const {
      const load::job_sequence jobs =
          r.generator == random_load_spec::kind::markov
              ? load::markov_jobs(r.count, r.p, r.idle_min, r.seed)
              : load::random_jobs(r.count, r.p, r.idle_min, r.seed);
      return jobs.to_trace();
    }
  };
  return std::visit(visitor{}, source_);
}

std::string load_spec::describe() const {
  struct visitor {
    std::string operator()(load::test_load l) const {
      return load::name(l);
    }
    std::string operator()(const load::trace& t) const {
      return "trace(" + std::to_string(t.cycle().size()) + " epochs)";
    }
    std::string operator()(const random_load_spec& r) const {
      // Rendered through spec::str() so the description round-trips
      // through load_spec::parse (tested in tests/test_api.cpp).
      spec s;
      s.name =
          r.generator == random_load_spec::kind::markov ? "markov" : "random";
      s.params["count"] = std::to_string(r.count);
      s.params["p"] = shortest_double(r.p);
      s.params["idle"] = shortest_double(r.idle_min);
      s.params["seed"] = std::to_string(r.seed);
      return s.str();
    }
  };
  return std::visit(visitor{}, source_);
}

std::string scenario::describe() const {
  if (!label.empty()) return label;
  const bool identical =
      !batteries.empty() &&
      std::all_of(batteries.begin(), batteries.end(),
                  [&](const kibam::battery_parameters& p) {
                    return p == batteries.front();
                  });
  std::string bank_desc = std::to_string(batteries.size()) + "x";
  const auto cap_of = [](const kibam::battery_parameters& p) {
    char cap[32];
    std::snprintf(cap, sizeof cap, "C=%g", p.capacity_amin);
    return std::string{cap};
  };
  if (identical) {
    bank_desc += cap_of(batteries.front());
  } else if (!batteries.empty()) {
    bank_desc += '(';
    for (std::size_t i = 0; i < batteries.size(); ++i) {
      if (i > 0) bank_desc += ',';
      bank_desc += cap_of(batteries[i]);
    }
    bank_desc += ')';
  }
  return bank_desc + " | " + load.describe() + " | " + policy + " | " +
         name(model);
}

std::vector<kibam::battery_parameters> bank(
    std::size_t count, const kibam::battery_parameters& battery) {
  require(count >= 1, "bank: need at least one battery");
  return std::vector<kibam::battery_parameters>(count, battery);
}

std::vector<scenario> cross(
    const std::vector<std::vector<kibam::battery_parameters>>& banks,
    const std::vector<load_spec>& loads,
    const std::vector<std::string>& policies,
    const std::vector<fidelity>& fidelities) {
  std::vector<scenario> out;
  out.reserve(banks.size() * loads.size() * policies.size() *
              fidelities.size());
  for (const auto& bats : banks) {
    for (const load_spec& l : loads) {
      for (const std::string& pol : policies) {
        for (const fidelity f : fidelities) {
          out.push_back({.label = {},
                         .batteries = bats,
                         .load = l,
                         .policy = pol,
                         .model = f,
                         .steps = {},
                         .sim = {}});
        }
      }
    }
  }
  return out;
}

}  // namespace bsched::api
