#include "obs/telemetry.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/text.hpp"

namespace bsched::obs {

namespace {

/// Pointers to `samples` in the encoder's canonical order: by name.
template <class Sample>
std::vector<const Sample*> by_name(const std::vector<Sample>& samples) {
  std::vector<const Sample*> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const Sample* a, const Sample* b) { return a->name < b->name; });
  return out;
}

}  // namespace

void encode_telemetry(const snapshot& snap, std::ostream& out) {
  out << "bsched-telemetry v" << telemetry_version << '\n';
  for (const counter_sample* c : by_name(snap.counters)) {
    out << "counter " << c->name << ' ' << c->value << '\n';
  }
  for (const gauge_sample* g : by_name(snap.gauges)) {
    out << "gauge " << g->name << ' ' << shortest_double(g->value) << '\n';
  }
  for (const histogram_sample* h : by_name(snap.histograms)) {
    out << "hist " << h->name << " bounds=" << h->bounds.size();
    for (const double b : h->bounds) out << ' ' << shortest_double(b);
    for (const std::uint64_t c : h->buckets) out << ' ' << c;
    out << " sum=" << shortest_double(h->sum) << '\n';
  }
  out << "end\n";
  require(out.good(), "obs: telemetry sink write failed");
}

std::string encode_telemetry_str(const snapshot& snap) {
  std::ostringstream out;
  encode_telemetry(snap, out);
  return out.str();
}

snapshot decode_telemetry_str(const std::string& text) {
  line_reader r{text, "bsched-telemetry"};
  r.expect_magic("bsched-telemetry v" + std::to_string(telemetry_version));

  snapshot snap;
  while (true) {
    r.advance("a record or 'end'");
    const std::string_view tag = r.tag();
    if (tag == "end") break;
    if ((tag == "counter" || tag == "gauge") && r.size() != 3) {
      r.fail(std::string{tag} + " wants '<name> <value>'");
    }
    if (tag == "counter") {
      snap.counters.push_back(
          {std::string{r.token(1)}, r.to_u64(r.token(2), "counter value")});
    } else if (tag == "gauge") {
      snap.gauges.push_back(
          {std::string{r.token(1)}, r.to_f64(r.token(2), "gauge value")});
    } else if (tag == "hist") {
      histogram_sample h;
      h.name = std::string{r.token(1)};
      const auto [bounds_key, bounds] = r.field(2);
      const std::uint64_t k = r.to_u64(bounds, "hist bound count");
      // tag + name + bounds=k + k bounds + (k+1) buckets + sum=.
      if (bounds_key != "bounds" || k == 0 || k > r.size() ||
          r.size() != 2 * k + 5) {
        r.fail("hist field count does not match bounds=" + clip(bounds));
      }
      for (std::size_t i = 0; i < k; ++i) {
        h.bounds.push_back(r.to_f64(r.token(3 + i), "hist bound"));
      }
      for (std::size_t i = 0; i <= k; ++i) {
        h.buckets.push_back(r.to_u64(r.token(3 + k + i), "hist bucket"));
      }
      const auto [sum_key, sum] = r.field(r.size() - 1);
      if (sum_key != "sum") r.fail("hist wants 'sum=' last");
      h.sum = r.to_f64(sum, "hist sum");
      snap.histograms.push_back(std::move(h));
    } else {
      r.fail("unknown record tag '" + clip(tag) + "'");
    }
  }
  r.expect_end();
  return snap;
}

snapshot decode_telemetry(std::istream& in) {
  return decode_telemetry_str(read_all(in));
}

}  // namespace bsched::obs
