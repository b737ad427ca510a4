// Direct tests of the search's transposition table (opt/memo.hpp): FIFO
// eviction under a cap, the exact/bound entry rules, lookup floors,
// sharding, and a seeded differential against a reference map + FIFO
// queue model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "opt/memo.hpp"
#include "util/rng.hpp"

namespace bsched::opt {
namespace {

using key = std::vector<std::uint64_t>;

void put(memo_table& m, const key& k, std::int64_t value, bool exact,
         std::uint64_t& evicted) {
  m.store(k, memo_table::hash_key(k), {value, exact}, evicted);
}

bool has(memo_table& m, const key& k) {
  memo_table::entry out;
  return m.lookup(k, memo_table::hash_key(k), 0, out);
}

TEST(OptMemo, CapEvictsTheOldestLiveKeyFirst) {
  memo_table m{3};
  std::uint64_t evicted = 0;
  const key a{1, 10}, b{1, 20}, c{1, 30}, d{1, 40}, e{1, 50};
  put(m, a, 1, true, evicted);
  put(m, b, 2, true, evicted);
  put(m, c, 3, true, evicted);
  put(m, a, 0, true, evicted);  // an update does not refresh a's age
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(m.size(), 3u);
  put(m, d, 4, true, evicted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_FALSE(has(m, a));
  EXPECT_TRUE(has(m, b));
  EXPECT_TRUE(has(m, c));
  EXPECT_TRUE(has(m, d));
  put(m, e, 5, true, evicted);
  EXPECT_EQ(evicted, 2u);
  EXPECT_FALSE(has(m, b));
  EXPECT_TRUE(has(m, c));
  EXPECT_TRUE(has(m, e));
  EXPECT_EQ(m.size(), 3u);
  // A re-stored victim is a new entry again, evicting the next oldest.
  put(m, a, 1, true, evicted);
  EXPECT_EQ(evicted, 3u);
  EXPECT_FALSE(has(m, c));
  EXPECT_TRUE(has(m, a));
}

TEST(OptMemo, ExactBeatsBoundAndSmallerBoundBeatsLarger) {
  memo_table m;
  std::uint64_t evicted = 0;
  const key k{7, 1, 2};
  const std::uint64_t h = memo_table::hash_key(k);
  memo_table::entry out;
  put(m, k, 10, false, evicted);
  put(m, k, 7, false, evicted);  // tighter bound replaces
  ASSERT_TRUE(m.lookup(k, h, 100, out));
  EXPECT_EQ(out.value, 7);
  EXPECT_FALSE(out.exact);
  put(m, k, 9, false, evicted);  // looser bound does not
  ASSERT_TRUE(m.lookup(k, h, 100, out));
  EXPECT_EQ(out.value, 7);
  put(m, k, 12, true, evicted);  // exact replaces any bound
  ASSERT_TRUE(m.lookup(k, h, -1, out));
  EXPECT_EQ(out.value, 12);
  EXPECT_TRUE(out.exact);
  put(m, k, 3, false, evicted);  // a bound never replaces exact
  ASSERT_TRUE(m.lookup(k, h, -1, out));
  EXPECT_EQ(out.value, 12);
  EXPECT_TRUE(out.exact);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(evicted, 0u);
}

TEST(OptMemo, LookupServesBoundsOnlyAtOrAboveTheirValue) {
  memo_table m;
  std::uint64_t evicted = 0;
  const key bound{1, 5}, exact{2, 5};
  put(m, bound, 10, false, evicted);
  put(m, exact, 10, true, evicted);
  memo_table::entry out;
  const std::uint64_t hb = memo_table::hash_key(bound);
  EXPECT_FALSE(m.lookup(bound, hb, 9, out));
  EXPECT_TRUE(m.lookup(bound, hb, 10, out));
  EXPECT_TRUE(m.lookup(bound, hb, 11, out));
  const std::uint64_t he = memo_table::hash_key(exact);
  EXPECT_TRUE(m.lookup(exact, he, -1, out));
  EXPECT_TRUE(m.lookup(exact, he, 1000, out));
  const key absent{3, 5};
  EXPECT_FALSE(m.lookup(absent, memo_table::hash_key(absent), 1000, out));
}

TEST(OptMemo, OneAndSixteenShardsKeepEveryKeyAndTheCap) {
  for (const std::size_t shards : {1u, 16u}) {
    memo_table unbounded{0, shards};
    memo_table capped{64, shards};
    EXPECT_EQ(unbounded.shard_count(), shards);
    std::uint64_t ev_unbounded = 0;
    std::uint64_t ev_capped = 0;
    constexpr std::uint64_t n = 5000;
    for (std::uint64_t i = 0; i < n; ++i) {
      const key k{i % 97, i << 43, i};
      put(unbounded, k, static_cast<std::int64_t>(i), true, ev_unbounded);
      put(capped, k, static_cast<std::int64_t>(i), true, ev_capped);
    }
    EXPECT_EQ(ev_unbounded, 0u);
    EXPECT_EQ(unbounded.size(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const key k{i % 97, i << 43, i};
      memo_table::entry out;
      ASSERT_TRUE(unbounded.lookup(k, memo_table::hash_key(k), 0, out)) << i;
      EXPECT_EQ(out.value, static_cast<std::int64_t>(i));
    }
    EXPECT_LE(capped.size(), 64u);
    EXPECT_EQ(ev_capped + capped.size(), n) << shards << " shards";
  }
  EXPECT_EQ(memo_table(0, 3).shard_count(), 4u);  // rounded to a power of 2
}

/// Reference model: per shard, an ordered map plus the FIFO of its live
/// keys in insertion order, with the same shard split and cap rules.
class reference_memo {
 public:
  reference_memo(std::uint64_t cap, std::size_t shards)
      : shards_(shards),
        cap_(cap == 0 ? 0 : std::max<std::uint64_t>(1, (cap + shards - 1) /
                                                           shards)) {}

  bool lookup(const key& k, std::int64_t floor, memo_table::entry& out) {
    shard& s = shard_of(k);
    const auto it = s.map.find(k);
    if (it == s.map.end()) return false;
    if (!it->second.exact && it->second.value > floor) return false;
    out = it->second;
    return true;
  }

  void store(const key& k, memo_table::entry e, std::uint64_t& evicted) {
    shard& s = shard_of(k);
    const auto [it, inserted] = s.map.emplace(k, e);
    if (!inserted) {
      memo_table::entry& held = it->second;
      if ((e.exact && !held.exact) ||
          (e.exact == held.exact && e.value < held.value)) {
        held = e;
      }
      return;
    }
    if (cap_ == 0) return;
    s.fifo.push_back(k);
    if (s.map.size() > cap_) {
      s.map.erase(s.fifo.front());
      s.fifo.pop_front();
      ++evicted;
    }
  }

  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t total = 0;
    for (const shard& s : shards_) total += s.map.size();
    return total;
  }

 private:
  struct shard {
    std::map<key, memo_table::entry> map;
    std::deque<key> fifo;
  };

  shard& shard_of(const key& k) {
    return shards_[(memo_table::hash_key(k) >> 48) & (shards_.size() - 1)];
  }

  std::vector<shard> shards_;
  std::uint64_t cap_;
};

TEST(OptMemo, MatchesAReferenceMapAndFifoModel) {
  for (const std::size_t width : {3u, 4u}) {
    for (const std::uint64_t cap : {0u, 1u, 7u, 1000u}) {
      for (const std::size_t shards : {1u, 16u}) {
        rng r{rng::derive(0x6d656d6fULL, width, cap, shards)};
        memo_table m{cap, shards};
        reference_memo ref{cap, shards};
        std::uint64_t ev_m = 0;
        std::uint64_t ev_ref = 0;
        for (int op = 0; op < 20000; ++op) {
          // A small domain makes re-stores and hits common; the high word
          // bits mimic the packed battery charge counters.
          key k(width);
          for (std::size_t w = 0; w < width; ++w) {
            k[w] = r.below(w == 0 ? 3 : 12) << (w == 1 ? 43 : 1);
          }
          if (r.below(2) == 0) {
            const memo_table::entry e{static_cast<std::int64_t>(r.below(50)),
                                      r.below(3) == 0};
            m.store(k, memo_table::hash_key(k), e, ev_m);
            ref.store(k, e, ev_ref);
            ASSERT_EQ(ev_m, ev_ref) << "op " << op;
          } else {
            const auto floor = static_cast<std::int64_t>(r.below(60)) - 5;
            memo_table::entry got{-1, false};
            memo_table::entry want{-1, false};
            const bool hit = m.lookup(k, memo_table::hash_key(k), floor, got);
            ASSERT_EQ(hit, ref.lookup(k, floor, want)) << "op " << op;
            EXPECT_EQ(got.value, want.value);
            EXPECT_EQ(got.exact, want.exact);
          }
        }
        EXPECT_EQ(m.size(), ref.size())
            << "width " << width << " cap " << cap << " shards " << shards;
        if (cap != 0 && cap < 100) {
          EXPECT_GT(ev_m, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace bsched::opt
