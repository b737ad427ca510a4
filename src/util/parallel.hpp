// The repo's one way to run work on several threads.
//
// parallel_for runs body(worker, index) for every index in [0, count):
// the calling thread is worker 0, and width - 1 threads are started for
// the rest and joined before it returns. Workers claim indices in
// increasing order from one shared counter, so long items run side by
// side. Which worker runs an index is not deterministic: callers keep
// per-worker scratch by `worker` and make results independent of it —
// the sweep engine stores results per job, and the exact search fixes
// every subtree's pruning floor before the fan-out (asserted in
// tests/test_opt.cpp and the TSan stress suite).
#pragma once

#include <cstddef>
#include <functional>

namespace bsched::util {

/// Runs `body(worker, index)` once for every index in [0, count) on
/// min(width, count) workers; width < 2 or count < 2 runs everything
/// inline on the caller and starts no thread. The first exception a body
/// throws stops further claims; parallel_for joins every worker and
/// rethrows it on the caller. Indices already claimed still run.
void parallel_for(std::size_t count, std::size_t width,
                  const std::function<void(std::size_t worker,
                                           std::size_t index)>& body);

/// What a "0 = auto" thread count resolves to: the hardware concurrency
/// (at least 1) outside a parallel_for region wider than 1, and 1 inside
/// one — so an auto-sized search inside a sweep job runs on its worker
/// instead of multiplying the sweep's threads. Explicit widths are
/// honoured exactly, nested or not.
[[nodiscard]] std::size_t auto_width();

}  // namespace bsched::util
