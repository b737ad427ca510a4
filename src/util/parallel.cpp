#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace bsched::util {

namespace {

/// True while this thread is a worker of a parallel_for wider than 1.
thread_local bool in_parallel_region = false;

}  // namespace

void parallel_for(std::size_t count, std::size_t width,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (width < 2 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  width = std::min(width, count);

  std::atomic<std::size_t> next{0};
  std::mutex fail_mutex;
  std::exception_ptr failure;  // guarded by fail_mutex
  const auto fail = [&](std::exception_ptr e) {
    const std::scoped_lock lock(fail_mutex);
    if (failure == nullptr) failure = std::move(e);
    next.store(count);  // no further claims
  };
  const auto work = [&](std::size_t worker) {
    const bool outer = in_parallel_region;
    in_parallel_region = true;
    try {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        body(worker, i);
      }
    } catch (...) {
      fail(std::current_exception());
    }
    in_parallel_region = outer;
  };

  std::vector<std::thread> pool;
  pool.reserve(width - 1);
  try {
    for (std::size_t w = 1; w < width; ++w) pool.emplace_back(work, w);
  } catch (...) {
    fail(std::current_exception());  // joins what started, then rethrows
  }
  work(0);
  for (std::thread& t : pool) t.join();
  if (failure != nullptr) std::rethrow_exception(failure);
}

std::size_t auto_width() {
  if (in_parallel_region) return 1;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace bsched::util
