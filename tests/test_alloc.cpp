// Heap-allocation regression tests for the hot paths: a check that holds,
// a warm counter add, and the exact search's per-node work must not touch
// the heap. This file replaces the global operator new with a counting
// one, so it builds into its own test executable (bsched_alloc_tests):
// inside bsched_tests the replacement would hide ASan's new/delete
// mismatch checks from every other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "kibam/parameters.hpp"
#include "load/jobs.hpp"
#include "obs/obs.hpp"
#include "opt/search.hpp"
#include "util/error.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Kept out of line: once inlined into a caller, gcc pairs the free() with
// the caller's `new` expression and reports a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bsched {
namespace {

/// Heap allocations made while running `f`.
template <class F>
std::uint64_t allocations_of(F&& f) {
  const std::uint64_t before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

TEST(Alloc, HoldingLiteralRequireAllocatesNothing) {
  volatile bool holds = true;  // opaque to the optimiser
  const std::uint64_t n = allocations_of([&] {
    for (int i = 0; i < 100; ++i) {
      require(holds,
              "alloc_test: a literal message well past the small-string "
              "buffer of any standard library");
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_THROW(require(!holds, "alloc_test: failing check"), error);
}

TEST(Alloc, WarmCounterAddAllocatesNothing) {
  // Under BSCHED_OBS=OFF the macro is empty and this holds trivially.
  const auto add = [] { BSCHED_COUNTER_ADD("alloc_test.adds_total", 1); };
  add();  // first use registers the counter and this thread's shard
  EXPECT_EQ(allocations_of([&] {
              for (int i = 0; i < 100; ++i) add();
            }),
            0u);
}

TEST(Alloc, ExactSearchAllocatesNothingPerNode) {
  // What remains is per search or per tree depth (epoch table, scratch
  // states, memo arena and index growth, decision list, warm-start
  // rollouts), never per node: the four searches below expand about 230k
  // nodes between them.
  const kibam::discretization d{kibam::battery_b1()};
  // First use registers the search's counters; that is not search work.
  (void)opt::optimal_schedule(d, 2,
                              load::paper_trace(load::test_load::cl_500));
  std::uint64_t allocations = 0;
  std::uint64_t nodes = 0;
  for (const load::test_load l :
       {load::test_load::ils_250, load::test_load::ill_250}) {
    const load::trace t = load::paper_trace(l);
    for (const bool minimize : {false, true}) {
      opt::optimal_result r;
      const std::uint64_t n = allocations_of([&] {
        r = minimize ? opt::worst_schedule(d, 2, t)
                     : opt::optimal_schedule(d, 2, t);
      });
      ASSERT_GT(r.stats.nodes, 1000u);
      EXPECT_LT(n, r.stats.nodes / 10)
          << (minimize ? "worst " : "opt ") << load::name(l) << ": " << n
          << " allocations for " << r.stats.nodes << " nodes";
      allocations += n;
      nodes += r.stats.nodes;
    }
  }
  EXPECT_LT(allocations, nodes / 100)
      << allocations << " allocations for " << nodes << " nodes";
}

}  // namespace
}  // namespace bsched
