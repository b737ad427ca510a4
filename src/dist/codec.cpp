#include "dist/codec.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/error.hpp"
#include "util/text.hpp"

namespace bsched::dist {

namespace {

void encode_digest(const char* tag, const tdigest& d, std::ostream& out) {
  out << tag << " budget=" << d.max_centroids()
      << " centroids=" << d.centroids().size();
  for (const centroid& c : d.centroids()) {
    out << ' ' << shortest_double(c.mean) << ':' << shortest_double(c.weight);
  }
  out << '\n';
}

void encode_epochs(const char* tag, const std::vector<load::epoch>& es,
                   std::ostream& out) {
  out << tag << " epochs=" << es.size();
  for (const load::epoch& e : es) {
    out << ' ' << shortest_double(e.duration_min) << ':'
        << shortest_double(e.current_a);
  }
  out << '\n';
}

tdigest decode_digest(line_reader& r) {
  const std::size_t budget = r.u64("budget");
  std::vector<centroid> cs;
  for (const auto& [mean, weight] : r.pairs("centroids")) {
    cs.push_back({mean, weight});
  }
  return r.guard(
      [&] { return tdigest::from_centroids(budget, std::move(cs)); });
}

/// Reads the next record of a cell list: true at "cell index=<i>" (the
/// section then names cell i), false at the closing "end", once the
/// `declared` cell count is checked.
bool next_cell(line_reader& r, std::size_t i, std::size_t declared) {
  r.section("cell list");
  r.advance("cell/end");
  if (r.tag() == "end") {
    r.expect_end();
    if (i != declared) {
      r.fail("cell count mismatch: sweep header says " +
             std::to_string(declared) + ", stream carries " +
             std::to_string(i));
    }
    return false;
  }
  if (r.tag() != "cell") {
    r.fail("expected 'cell' or 'end' record, got '" + clip(r.line()) +
           "' (a duplicated or out-of-place section?)");
  }
  r.section("cell " + std::to_string(i));
  if (r.u64("index") != i) {
    r.fail("cell records out of order: expected index " + std::to_string(i));
  }
  return true;
}

}  // namespace

void encode(const shard_aggregate& agg, std::ostream& out) {
  out << "bsched-shard v" << codec_version << '\n';
  out << "shard index=" << agg.shard_index << " count=" << agg.shard_count
      << " first=" << agg.first_item << " last=" << agg.last_item << '\n';
  out << "sweep cells=" << agg.grid_cells
      << " replications=" << agg.replications << " seed=" << agg.seed
      << " reseed=" << (agg.reseed ? 1 : 0)
      << " pair_by_load=" << (agg.pair_by_load ? 1 : 0) << '\n';
  out << "stats runs=" << agg.stats.runs
      << " evaluated=" << agg.stats.evaluated
      << " cache_hits=" << agg.stats.cache_hits
      << " failures=" << agg.stats.failures << '\n';
  for (const cell_record& c : agg.cells) {
    out << "cell index=" << c.cell << '\n';
    out << "label=" << c.label << '\n';
    out << "load=" << c.load << '\n';
    out << "policy=" << c.policy << '\n';
    out << "fidelity=" << c.fidelity << '\n';
    out << "agg n=" << c.agg.n << " failures=" << c.agg.failures
        << " cache_hits=" << c.agg.cache_hits << " mean="
        << shortest_double(c.agg.mean) << " m2=" << shortest_double(c.agg.m2)
        << " min=" << shortest_double(c.agg.min)
        << " max=" << shortest_double(c.agg.max) << '\n';
    const sched::search_stats& s = c.agg.search;
    out << "search nodes=" << s.nodes << " memo_hits=" << s.memo_hits
        << " pruned=" << s.pruned << " memo_entries=" << s.memo_entries
        << " memo_evictions=" << s.memo_evictions
        << " rollouts=" << s.rollouts
        << " pruned_by_bound=" << s.pruned_by_bound
        << " incumbent_from_lookahead=" << s.incumbent_from_lookahead
        << " stolen_subtrees=" << s.stolen_subtrees
        << " memo_shards=" << s.memo_shards << '\n';
    encode_digest("lifetime", c.agg.lifetime, out);
    encode_digest("residual", c.agg.residual, out);
  }
  out << "end\n";
  require(out.good(), "dist::codec: stream write failed");
}

shard_aggregate decode_str(const std::string& text) {
  line_reader r{text, "bsched-shard"};
  r.expect_magic("bsched-shard v" + std::to_string(codec_version));

  shard_aggregate agg;
  r.section("shard header");
  r.expect("shard");
  agg.shard_index = r.u64("index");
  agg.shard_count = r.u64("count");
  agg.first_item = r.u64("first");
  agg.last_item = r.u64("last");

  r.section("sweep header");
  r.expect("sweep");
  agg.grid_cells = r.u64("cells");
  agg.replications = r.u64("replications");
  agg.seed = r.u64("seed");
  agg.reseed = r.u64("reseed") != 0;
  agg.pair_by_load = r.u64("pair_by_load") != 0;

  r.section("stats");
  r.expect("stats");
  agg.stats.runs = r.u64("runs");
  agg.stats.evaluated = r.u64("evaluated");
  agg.stats.cache_hits = r.u64("cache_hits");
  agg.stats.failures = r.u64("failures");

  while (next_cell(r, agg.cells.size(), agg.grid_cells)) {
    cell_record c;
    c.cell = agg.cells.size();
    c.label = r.text_record("label");
    c.load = r.text_record("load");
    c.policy = r.text_record("policy");
    c.fidelity = r.text_record("fidelity");
    r.expect("agg");
    c.agg.n = r.u64("n");
    c.agg.failures = r.u64("failures");
    c.agg.cache_hits = r.u64("cache_hits");
    c.agg.mean = r.f64("mean");
    c.agg.m2 = r.f64("m2");
    c.agg.min = r.f64("min");
    c.agg.max = r.f64("max");
    r.expect("search");
    c.agg.search.nodes = r.u64("nodes");
    c.agg.search.memo_hits = r.u64("memo_hits");
    c.agg.search.pruned = r.u64("pruned");
    c.agg.search.memo_entries = r.u64("memo_entries");
    c.agg.search.memo_evictions = r.u64("memo_evictions");
    c.agg.search.rollouts = r.u64("rollouts");
    c.agg.search.pruned_by_bound = r.u64("pruned_by_bound");
    c.agg.search.incumbent_from_lookahead = r.u64("incumbent_from_lookahead");
    c.agg.search.stolen_subtrees = r.u64("stolen_subtrees");
    c.agg.search.memo_shards = r.u64("memo_shards");
    r.expect("lifetime");
    c.agg.lifetime = decode_digest(r);
    r.expect("residual");
    c.agg.residual = decode_digest(r);
    agg.cells.push_back(std::move(c));
  }
  return agg;
}

shard_aggregate decode(std::istream& in) { return decode_str(read_all(in)); }

void encode_sweep(const api::sweep& sw, std::ostream& out) {
  out << "bsched-sweep v" << codec_version << '\n';
  out << "sweep cells=" << sw.cells.size()
      << " replications=" << sw.replications << " seed=" << sw.seed
      << " reseed=" << (sw.reseed ? 1 : 0)
      << " pair_by_load=" << (sw.pair_by_load ? 1 : 0) << '\n';
  for (std::size_t i = 0; i < sw.cells.size(); ++i) {
    const api::scenario& scn = sw.cells[i];
    out << "cell index=" << i << " batteries=" << scn.batteries.size()
        << " model=" << api::name(scn.model) << '\n';
    out << "label=" << scn.label << '\n';
    for (const kibam::battery_parameters& b : scn.batteries) {
      out << "battery capacity=" << shortest_double(b.capacity_amin)
          << " c=" << shortest_double(b.c)
          << " k_prime=" << shortest_double(b.k_prime) << '\n';
    }
    // Paper/random loads serialize as their describe() round-trip form;
    // explicit traces (which describe() cannot round-trip) carry their
    // epochs verbatim behind the reserved "trace" marker.
    if (const auto* t = std::get_if<load::trace>(&scn.load.source())) {
      out << "load=trace\n";
      encode_epochs("prefix", t->prefix(), out);
      encode_epochs("cycle", t->cycle(), out);
    } else {
      out << "load=" << scn.load.describe() << '\n';
    }
    out << "policy=" << scn.policy << '\n';
    out << "steps time_step=" << shortest_double(scn.steps.time_step_min)
        << " charge_unit=" << shortest_double(scn.steps.charge_unit_amin)
        << '\n';
    out << "sim horizon=" << shortest_double(scn.sim.horizon_min)
        << " record_trace=" << (scn.sim.record_trace ? 1 : 0)
        << " sample=" << shortest_double(scn.sim.sample_min) << '\n';
  }
  out << "end\n";
  require(out.good(), "dist::codec: stream write failed");
}

api::sweep decode_sweep_str(const std::string& text) {
  line_reader r{text, "bsched-sweep"};
  r.section("sweep definition");
  r.expect_magic("bsched-sweep v" + std::to_string(codec_version));

  api::sweep sw;
  r.expect("sweep");
  const std::size_t cell_count = r.u64("cells");
  sw.replications = r.u64("replications");
  sw.seed = r.u64("seed");
  sw.reseed = r.u64("reseed") != 0;
  sw.pair_by_load = r.u64("pair_by_load") != 0;

  while (next_cell(r, sw.cells.size(), cell_count)) {
    const std::size_t batteries = r.u64("batteries");
    const std::string_view model = r.value("model");

    api::scenario scn;
    if (model == api::name(api::fidelity::discrete)) {
      scn.model = api::fidelity::discrete;
    } else if (model == api::name(api::fidelity::continuous)) {
      scn.model = api::fidelity::continuous;
    } else {
      r.fail("unknown fidelity '" + clip(model) + "'");
    }
    scn.label = r.text_record("label");
    for (std::size_t b = 0; b < batteries; ++b) {
      r.expect("battery");
      kibam::battery_parameters p{};
      p.capacity_amin = r.f64("capacity");
      p.c = r.f64("c");
      p.k_prime = r.f64("k_prime");
      scn.batteries.push_back(p);
    }
    const std::string load_text = r.text_record("load");
    if (load_text == "trace") {
      std::vector<load::epoch> prefix;
      std::vector<load::epoch> cycle;
      r.expect("prefix");
      for (const auto& [d, a] : r.pairs("epochs")) prefix.push_back({d, a});
      r.expect("cycle");
      for (const auto& [d, a] : r.pairs("epochs")) cycle.push_back({d, a});
      scn.load = r.guard([&] {
        return api::load_spec{load::trace{std::move(prefix), std::move(cycle)}};
      });
    } else {
      scn.load = r.guard([&] { return api::load_spec::parse(load_text); });
    }
    scn.policy = r.text_record("policy");
    r.expect("steps");
    scn.steps.time_step_min = r.f64("time_step");
    scn.steps.charge_unit_amin = r.f64("charge_unit");
    r.expect("sim");
    scn.sim.horizon_min = r.f64("horizon");
    scn.sim.record_trace = r.u64("record_trace") != 0;
    scn.sim.sample_min = r.f64("sample");
    sw.cells.push_back(std::move(scn));
  }
  return sw;
}

api::sweep decode_sweep(std::istream& in) {
  return decode_sweep_str(read_all(in));
}

std::string encode_sweep_str(const api::sweep& sw) {
  std::ostringstream out;
  encode_sweep(sw, out);
  return std::move(out).str();
}

std::string encode_str(const shard_aggregate& agg) {
  std::ostringstream out;
  encode(agg, out);
  return std::move(out).str();
}

void write_file(const shard_aggregate& agg, const std::string& path) {
  std::ofstream out{path};
  require(out.good(), "dist::codec: cannot open " + path + " for writing");
  encode(agg, out);
  require(out.good(), "dist::codec: writing " + path + " failed");
}

shard_aggregate read_file(const std::string& path) {
  std::ifstream in{path};
  require(in.good(), "dist::codec: cannot open " + path);
  return decode(in);
}

}  // namespace bsched::dist
