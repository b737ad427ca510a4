// Sharded transposition table for the exact search.
//
// The branch-and-bound of opt/search.cpp memoises node values keyed on
// (canonical epoch, type-grouped sorted battery states). Entries carry an
// exactness flag: an `exact` value is the true node optimum; an inexact
// value is an admissible *upper bound* computed under some pruning floor
// (see search.cpp). Upper bounds are globally valid — they may be reused
// at any floor at or above them — so concurrent workers computing the
// same key under different floors can share one table safely: exact
// entries win over bounds, and a tighter bound may replace a looser one.
//
// Keys hash-partition into shards, each an independently locked flat
// table; `max_entries` splits evenly across shards, preserving the
// search_options::max_memo_entries cap semantics (total entries never
// exceed the cap, eviction is deterministic FIFO within a shard). The
// single-threaded search uses one shard, so its effort counters stay
// bit-identical run to run.
//
// A shard stores its entries in insertion order in an arena (key words,
// hash, entry) indexed by an open-addressing hash table with linear
// probing. Keys have one fixed width per table — attach() fingerprints
// the bank, so every key holds the same number of battery words — and
// the arena needs no per-key allocation. Under a cap the arena is a ring:
// the next insertion overwrites the oldest entry (the FIFO victim), whose
// index slot is removed by backward-shift deletion, so no tombstones
// accumulate. Storing and looking up allocate nothing once the arena and
// index have grown to the table's working size.
//
// A memo_table outlives any one search: `optimal_schedule` calls with the
// same bank, load and direction may share one (search_options::
// shared_memo), which is how batched cells differing only in policy knobs
// and the oversubscribed TSan stress schedules reuse each other's work.
// attach() fingerprints the (bank, load, direction) and rejects foreign
// reuse, since keys do not encode the model.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace bsched::opt {

class memo_table {
 public:
  struct entry {
    std::int64_t value = 0;
    bool exact = false;
  };

  using key_view = std::span<const std::uint64_t>;

  /// `max_entries` caps the total entry count (0 = unbounded), split
  /// evenly across `shards` FIFO queues. Shard counts are rounded up to
  /// a power of two so key hashes partition by mask.
  explicit memo_table(std::uint64_t max_entries = 0, std::size_t shards = 1) {
    std::size_t n = 1;
    while (n < shards) n *= 2;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<shard>());
    }
    cap_per_shard_ = max_entries == 0 ? 0 : (max_entries + n - 1) / n;
    // Splitting can only lower the worst-case total below the cap, never
    // raise it above; a cap below the shard count still keeps >= 1 each.
    if (max_entries != 0 && cap_per_shard_ == 0) cap_per_shard_ = 1;
  }

  /// Binds this table to one (bank, load, direction) identity; throws on a
  /// mismatch with a previous attach. Cheap fingerprint, called per search.
  void attach(std::uint64_t fingerprint) {
    const std::scoped_lock lock(meta_mutex_);
    if (fingerprint_ == 0) fingerprint_ = fingerprint;
    require(fingerprint_ == fingerprint,
            "memo_table: shared across searches with different bank, load "
            "or direction");
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Looks `key` up. Returns true and fills `out` when a usable entry
  /// exists: any exact entry, or an inexact upper bound not above `floor`
  /// (values the caller will discard against its incumbent anyway).
  bool lookup(key_view key, std::uint64_t hash, std::int64_t floor,
              entry& out) {
    shard& s = shard_of(hash);
    const std::scoped_lock lock(s.mutex);
    const std::uint32_t ref = s.slots[s.find(key, hash)];
    if (ref == 0) return false;
    const entry& held = s.recs[ref - 1].e;
    if (!held.exact && held.value > floor) return false;
    out = held;
    return true;
  }

  /// Inserts or improves the entry for `key`: exact beats inexact, and a
  /// smaller upper bound beats a larger one. FIFO-evicts the shard's
  /// oldest entry beyond the cap; `evicted` counts evictions performed.
  void store(key_view key, std::uint64_t hash, entry e,
             std::uint64_t& evicted) {
    shard& s = shard_of(hash);
    const std::scoped_lock lock(s.mutex);
    if (s.width == 0) s.width = key.size();
    BSCHED_ASSERT(key.size() == s.width);
    if (const std::uint32_t ref = s.slots[s.find(key, hash)]; ref != 0) {
      entry& held = s.recs[ref - 1].e;
      const bool better = (e.exact && !held.exact) ||
                          (e.exact == held.exact && e.value < held.value);
      if (better) held = e;
      return;  // re-walks and racing twins revisit live entries
    }
    std::size_t at = s.recs.size();
    if (cap_per_shard_ != 0 && at == cap_per_shard_) {
      at = s.oldest;  // full ring: the new key takes the oldest's place
      s.unlink(at);
      s.oldest = (s.oldest + 1) % cap_per_shard_;
      ++evicted;
    } else {
      if (2 * (at + 1) > s.slots.size()) s.rehash();
      s.recs.emplace_back();
      s.keys.resize(s.keys.size() + s.width);
    }
    s.recs[at] = {hash, e};
    std::ranges::copy(key, s.keys.begin() +
                               static_cast<std::ptrdiff_t>(at * s.width));
    s.link(at);
  }

  /// Total live entries across shards (approximate under concurrency).
  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      const std::scoped_lock lock(s->mutex);
      total += s->recs.size();
    }
    return total;
  }

  /// The key hash (FNV-1a over the words), shared with lookup/store
  /// callers so it is computed once.
  [[nodiscard]] static std::uint64_t hash_key(key_view key) noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint64_t w : key) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return h;
  }

 private:
  struct record {
    std::uint64_t hash;
    entry e;
  };

  struct shard {
    mutable std::mutex mutex;
    std::size_t width = 0;              ///< Words per key; 0 = no key yet.
    std::vector<record> recs;           ///< Arena, in insertion order.
    std::vector<std::uint64_t> keys;    ///< Arena key words, `width` each.
    std::vector<std::uint32_t> slots;   ///< Arena index + 1; 0 = free.
    unsigned shift = 64;                ///< 64 - log2(slots.size()).
    std::size_t oldest = 0;             ///< Ring position of the FIFO head.

    shard() { rehash(); }

    /// Home slot, by Fibonacci hashing: FNV-1a's low bits ignore the high
    /// key bits, while the product's top bits depend on every hash bit.
    [[nodiscard]] std::size_t home(std::uint64_t hash) const noexcept {
      return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >>
                                      shift);
    }

    /// The slot holding `key`, or the free slot ending its probe run.
    [[nodiscard]] std::size_t find(key_view key, std::uint64_t hash) const {
      const std::size_t mask = slots.size() - 1;
      for (std::size_t i = home(hash);; i = (i + 1) & mask) {
        const std::uint32_t ref = slots[i];
        if (ref == 0) return i;
        if (recs[ref - 1].hash == hash &&
            std::ranges::equal(key, std::span{keys}.subspan(
                                        (ref - 1) * width, width))) {
          return i;
        }
      }
    }

    void link(std::size_t at) {
      BSCHED_ASSERT(at < std::numeric_limits<std::uint32_t>::max());
      const std::size_t mask = slots.size() - 1;
      std::size_t i = home(recs[at].hash);
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = static_cast<std::uint32_t>(at + 1);
    }

    /// Removes arena entry `at` from the index by backward-shift deletion:
    /// later members of its probe run move up so every lookup still finds
    /// its key before the first free slot.
    void unlink(std::size_t at) {
      const std::size_t mask = slots.size() - 1;
      std::size_t hole = home(recs[at].hash);
      while (slots[hole] != at + 1) hole = (hole + 1) & mask;
      for (std::size_t j = (hole + 1) & mask; slots[j] != 0;
           j = (j + 1) & mask) {
        const std::size_t k = home(recs[slots[j] - 1].hash);
        // The entry at j may fill the hole iff the hole lies on its probe
        // path, i.e. no further from home k than j itself.
        if (((j - k) & mask) >= ((j - hole) & mask)) {
          slots[hole] = slots[j];
          hole = j;
        }
      }
      slots[hole] = 0;
    }

    /// Doubles the index (load factor stays at most 1/2) and relinks.
    void rehash() {
      slots.assign(std::max<std::size_t>(16, 2 * slots.size()), 0);
      shift = 64 - static_cast<unsigned>(std::countr_zero(slots.size()));
      for (std::size_t at = 0; at < recs.size(); ++at) link(at);
    }
  };

  shard& shard_of(std::uint64_t hash) {
    // Shard on the top hash bits; the index mixes in all of them.
    return *shards_[(hash >> 48) & (shards_.size() - 1)];
  }

  std::vector<std::unique_ptr<shard>> shards_;
  std::uint64_t cap_per_shard_ = 0;
  std::mutex meta_mutex_;
  std::uint64_t fingerprint_ = 0;  ///< 0 = not yet attached.
};

}  // namespace bsched::opt
