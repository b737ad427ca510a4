// The four versioned text formats ("bsched-shard", "bsched-sweep",
// "bsched-msg", "bsched-telemetry") pinned byte for byte, and a seeded
// mutation fuzzer over the same corpus: whatever bytes a peer or a file
// hands a decoder, it either decodes them or throws bsched::error.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "dist/codec.hpp"
#include "dist/shard.hpp"
#include "load/trace.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bsched {
namespace {

/// A two-cell shard aggregate: one cell with results and a two-centroid
/// lifetime digest, one untouched by the shard's range.
dist::shard_aggregate small_aggregate() {
  dist::shard_aggregate agg;
  agg.shard_index = 1;
  agg.shard_count = 3;
  agg.first_item = 4;
  agg.last_item = 6;
  agg.grid_cells = 2;
  agg.replications = 3;
  agg.seed = 2009;
  agg.stats = {.runs = 2, .evaluated = 1, .cache_hits = 1, .failures = 0};
  for (std::size_t i = 0; i < 2; ++i) {
    dist::cell_record c;
    c.cell = i;
    c.label = "2xC=5.5 | cell " + std::to_string(i);
    c.load = "random:count=4,idle=1,p=0.5,seed=3";
    c.policy = "round_robin";
    c.fidelity = "discrete";
    agg.cells.push_back(std::move(c));
  }
  api::cell_accumulator& a = agg.cells[1].agg;
  a.n = 2;
  a.cache_hits = 1;
  a.mean = 12.25;
  a.m2 = 0.125;
  a.min = 12;
  a.max = 12.5;
  a.lifetime.add(12);
  a.lifetime.add(12.5);
  a.residual.add(0.1);
  a.search.nodes = 7;
  a.search.memo_shards = 1;
  return agg;
}

/// A two-cell sweep: a random load (describe() form) and an explicit
/// trace, whose epochs travel behind the "load=trace" marker.
api::sweep small_sweep() {
  api::sweep sw;
  api::scenario a;
  a.label = "random cell";
  a.batteries = api::bank(2, kibam::battery_b1());
  a.load = api::load_spec::parse("random:count=4,p=0.5,seed=3");
  a.policy = "round_robin";
  sw.cells.push_back(a);
  api::scenario b = a;
  b.label = "trace cell";
  b.batteries = api::bank(1, kibam::battery_b1());
  b.load = api::load_spec{load::trace{{{1.5, 0.1}}, {{2.25, 0.0}, {10, 0.25}}}};
  b.model = api::fidelity::continuous;
  sw.cells.push_back(b);
  sw.replications = 3;
  sw.seed = 7;
  return sw;
}

net::message small_lease() {
  net::message m = net::make("lease");
  m.fields["lease"] = "3";
  m.fields["epoch"] = "1";
  m.fields["first"] = "10";
  m.fields["last"] = "20";
  m.body = "opaque body\nwith two lines\n";
  return m;
}

obs::snapshot small_snapshot() {
  obs::snapshot s;
  s.counters.push_back({"codec.bytes_total", 4096});
  s.counters.push_back({"svc.leases_total", 12});
  s.gauges.push_back({"engine.busy_frac", 0.75});
  s.histograms.push_back(
      {"svc.chunk_ms", {0.5, 2, 8}, {1, 4, 2, 0}, 21.5});
  return s;
}

constexpr std::string_view shard_golden =
    R"(bsched-shard v1
shard index=1 count=3 first=4 last=6
sweep cells=2 replications=3 seed=2009 reseed=1 pair_by_load=0
stats runs=2 evaluated=1 cache_hits=1 failures=0
cell index=0
label=2xC=5.5 | cell 0
load=random:count=4,idle=1,p=0.5,seed=3
policy=round_robin
fidelity=discrete
agg n=0 failures=0 cache_hits=0 mean=0 m2=0 min=0 max=0
search nodes=0 memo_hits=0 pruned=0 memo_entries=0 memo_evictions=0 rollouts=0 pruned_by_bound=0 incumbent_from_lookahead=0 stolen_subtrees=0 memo_shards=0
lifetime budget=64 centroids=0
residual budget=64 centroids=0
cell index=1
label=2xC=5.5 | cell 1
load=random:count=4,idle=1,p=0.5,seed=3
policy=round_robin
fidelity=discrete
agg n=2 failures=0 cache_hits=1 mean=12.25 m2=0.125 min=12 max=12.5
search nodes=7 memo_hits=0 pruned=0 memo_entries=0 memo_evictions=0 rollouts=0 pruned_by_bound=0 incumbent_from_lookahead=0 stolen_subtrees=0 memo_shards=1
lifetime budget=64 centroids=2 12:1 12.5:1
residual budget=64 centroids=1 0.1:1
end
)";

constexpr std::string_view sweep_golden =
    R"(bsched-sweep v1
sweep cells=2 replications=3 seed=7 reseed=1 pair_by_load=0
cell index=0 batteries=2 model=discrete
label=random cell
battery capacity=5.5 c=0.166 k_prime=0.122
battery capacity=5.5 c=0.166 k_prime=0.122
load=random:count=4,idle=1,p=0.5,seed=3
policy=round_robin
steps time_step=0.01 charge_unit=0.01
sim horizon=1e+06 record_trace=0 sample=0.05
cell index=1 batteries=1 model=continuous
label=trace cell
battery capacity=5.5 c=0.166 k_prime=0.122
load=trace
prefix epochs=1 1.5:0.1
cycle epochs=2 2.25:0 10:0.25
policy=round_robin
steps time_step=0.01 charge_unit=0.01
sim horizon=1e+06 record_trace=0 sample=0.05
end
)";

constexpr std::string_view lease_golden =
    "bsched-msg v1 lease epoch=1 first=10 last=20 lease=3\n"
    "opaque body\nwith two lines\n";

constexpr std::string_view telemetry_golden =
    R"(bsched-telemetry v1
counter codec.bytes_total 4096
counter svc.leases_total 12
gauge engine.busy_frac 0.75
hist svc.chunk_ms bounds=3 0.5 2 8 1 4 2 0 sum=21.5
end
)";

TEST(Codec, EncodingsMatchCommittedBytes) {
  EXPECT_EQ(dist::encode_str(small_aggregate()), shard_golden);
  EXPECT_EQ(dist::encode_sweep_str(small_sweep()), sweep_golden);
  EXPECT_EQ(net::encode(small_lease()), lease_golden);
  EXPECT_EQ(obs::encode_telemetry_str(small_snapshot()), telemetry_golden);

  // And each golden decodes back to the value it was encoded from.
  EXPECT_EQ(dist::decode_str(std::string{shard_golden}), small_aggregate());
  const api::sweep sw = dist::decode_sweep_str(std::string{sweep_golden});
  EXPECT_EQ(sw.cells, small_sweep().cells);
  EXPECT_EQ(sw.replications, 3u);
  EXPECT_EQ(sw.seed, 7u);
  const net::message m = net::decode(lease_golden);
  EXPECT_EQ(m.type, "lease");
  EXPECT_EQ(m.fields, small_lease().fields);
  EXPECT_EQ(m.body, small_lease().body);
  EXPECT_EQ(obs::decode_telemetry_str(std::string{telemetry_golden}),
            small_snapshot());
}

/// `doc` with every "\n" turned into "\r\n".
std::string crlf(std::string_view doc) {
  std::string out;
  for (const char c : doc) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST(Codec, ErrorsClipEchoedInputAndCrlfDecodesLikeLf) {
  // A 100 kB single-line document is refused without echoing itself:
  // every decoder quotes at most a clipped prefix of hostile input.
  const std::string hostile(100 * 1024, 'x');
  const std::vector<std::function<void(const std::string&)>> decoders = {
      [](const std::string& s) { (void)dist::decode_str(s); },
      [](const std::string& s) { (void)dist::decode_sweep_str(s); },
      [](const std::string& s) { (void)obs::decode_telemetry_str(s); },
  };
  for (std::size_t i = 0; i < decoders.size(); ++i) {
    try {
      decoders[i](hostile);
      ADD_FAILURE() << "decoder " << i << " accepted a 100 kB line";
    } catch (const error& e) {
      EXPECT_LT(std::string{e.what()}.size(), 512u) << "decoder " << i;
    }
  }

  // One CR policy: a CRLF document decodes exactly like its LF form.
  EXPECT_EQ(dist::decode_str(crlf(shard_golden)), small_aggregate());
  EXPECT_EQ(dist::decode_sweep_str(crlf(sweep_golden)).cells,
            small_sweep().cells);
  EXPECT_EQ(obs::decode_telemetry_str(crlf(telemetry_golden)),
            small_snapshot());
}

/// `doc` with its first occurrence of `from` replaced by `to`.
std::string replaced(std::string_view doc, std::string_view from,
                     std::string_view to) {
  std::string out{doc};
  const std::size_t at = out.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? out : out.replace(at, from.size(), to);
}

TEST(Codec, HostileCountsThrowTypedErrors) {
  // A count is outside input: a decoder may not size a buffer by it
  // before the document backs it up (std::length_error or bad_alloc
  // would escape, or a sanitizer would abort on the request).
  const std::string many = "999999999999999999";
  EXPECT_THROW((void)dist::decode_str(
                   replaced(shard_golden, "cells=2", "cells=" + many)),
               error);
  EXPECT_THROW((void)dist::decode_str(replaced(
                   shard_golden, "centroids=2", "centroids=" + many)),
               error);
  EXPECT_THROW((void)dist::decode_sweep_str(
                   replaced(sweep_golden, "cells=2", "cells=" + many)),
               error);
  EXPECT_THROW((void)dist::decode_sweep_str(replaced(
                   sweep_golden, "batteries=1", "batteries=" + many)),
               error);
  EXPECT_THROW((void)dist::decode_sweep_str(
                   replaced(sweep_golden, "epochs=2", "epochs=" + many)),
               error);
  EXPECT_THROW((void)obs::decode_telemetry_str(
                   replaced(telemetry_golden, "bounds=3", "bounds=" + many)),
               error);
  // 2^63 + 1 bounds on a 7-token line: 2k + 5 wraps around to 7, so the
  // field-count check must not be done in wrapping arithmetic.
  EXPECT_THROW((void)obs::decode_telemetry_str(
                   "bsched-telemetry v1\n"
                   "hist h bounds=9223372036854775809 1 0 0 sum=0\nend\n"),
               error);
}

/// One random mutation of `doc`: up to three byte flips, a truncation,
/// or a splice of one line's head onto another line's tail (which
/// duplicates, drops and crosses sections and keys).
std::string mutate(std::string_view doc, rng& r) {
  std::string out{doc};
  switch (r.below(3)) {
    case 0: {
      const std::size_t flips = 1 + r.below(3);
      for (std::size_t i = 0; i < flips; ++i) {
        out[r.below(out.size())] = static_cast<char>(r.below(256));
      }
      break;
    }
    case 1:
      out.resize(r.below(out.size()));
      break;
    default: {
      std::vector<std::size_t> starts{0};  // line starts, plus doc.size()
      for (std::size_t i = 0; i < doc.size(); ++i) {
        if (doc[i] == '\n') starts.push_back(i + 1);
      }
      if (starts.back() != doc.size()) starts.push_back(doc.size());
      const auto cut = [&] {
        const std::size_t line = r.below(starts.size() - 1);
        return starts[line] + r.below(starts[line + 1] - starts[line] + 1);
      };
      const std::size_t head = cut();
      const std::size_t tail = cut();
      out = std::string{doc.substr(0, head)} + std::string{doc.substr(tail)};
      break;
    }
  }
  return out;
}

TEST(Codec, MutatedEncodingsDecodeOrThrowTypedError) {
  constexpr std::size_t mutations_per_format = 2000;
  struct target {
    const char* name;
    std::string_view golden;
    std::function<void(const std::string&)> decode;
  };
  const std::vector<target> targets = {
      {"shard", shard_golden,
       [](const std::string& s) { (void)dist::decode_str(s); }},
      {"sweep", sweep_golden,
       [](const std::string& s) { (void)dist::decode_sweep_str(s); }},
      {"message", lease_golden,
       [](const std::string& s) {
         const net::message m = net::decode(s);
         for (const auto& [key, value] : m.fields) (void)m.u64(key);
       }},
      {"telemetry", telemetry_golden,
       [](const std::string& s) { (void)obs::decode_telemetry_str(s); }},
  };
  for (std::size_t t = 0; t < targets.size(); ++t) {
    rng r{rng::derive(15, t)};
    std::size_t decoded = 0;
    for (std::size_t i = 0; i < mutations_per_format; ++i) {
      const std::string input = mutate(targets[t].golden, r);
      try {
        targets[t].decode(input);
        ++decoded;
      } catch (const error&) {
        // The typed rejection every malformed input must get.
      } catch (const std::exception& e) {
        ADD_FAILURE() << targets[t].name << " mutation " << i << " threw "
                      << e.what() << " instead of bsched::error for:\n"
                      << input.substr(0, 200);
      } catch (...) {
        ADD_FAILURE() << targets[t].name << " mutation " << i
                      << " threw a non-std exception";
      }
    }
    // The corpus is not so fragile that every mutation is rejected:
    // a flipped digit or label byte still decodes.
    EXPECT_GT(decoded, 0u) << targets[t].name;
    EXPECT_LT(decoded, mutations_per_format) << targets[t].name;
  }
}

}  // namespace
}  // namespace bsched
