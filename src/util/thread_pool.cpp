#include "util/thread_pool.hpp"

#include <algorithm>

namespace dsketch {

namespace {
/// True while this thread is executing inside a pool parallel section
/// (as the driving caller or as a worker). Nested parallel calls from
/// such a thread run serially instead of deadlocking on entry_mutex_.
thread_local bool tl_inside_pool = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in parallel loops, so spawn threads-1.
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::record_error() noexcept {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!error_) error_ = std::current_exception();
  error_flag_.store(true, std::memory_order_release);
}

void ThreadPool::rethrow_pending_error() {
  if (!error_flag_.load(std::memory_order_acquire)) return;
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    err = std::move(error_);
    error_ = nullptr;
    error_flag_.store(false, std::memory_order_release);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::for_each_dynamic(std::size_t count, const Body& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1 || tl_inside_pool) {
    // Serial fallbacks run on the caller's own stack: a throw propagates
    // directly, no capture needed.
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  std::unique_lock<std::mutex> entry(entry_mutex_, std::try_to_lock);
  if (!entry.owns_lock()) {
    // Another thread is driving the workers; do our loop ourselves.
    for (std::size_t i = 0; i < count; ++i) body(0, i);
    return;
  }
  tl_inside_pool = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++generation_;
    pending_ = workers_.size();  // every worker acknowledges every job
    job_count_ = count;
    job_body_ = &body;
    next_index_.store(0, std::memory_order_relaxed);
  }
  cv_start_.notify_all();
  // The caller pulls as lane 0. A caller-side throw must still wait for
  // the workers below — they hold a pointer into our frame.
  pull(0, count, body);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
  }
  tl_inside_pool = false;
  rethrow_pending_error();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  for_each_dynamic(count, [&body](std::size_t, std::size_t i) { body(i); });
}

void ThreadPool::for_each_block(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  constexpr std::size_t kBlocksPerLane = 4;
  const std::size_t blocks = std::min(count, lanes() * kBlocksPerLane);
  parallel_for(blocks, [&](std::size_t b) {
    body(count * b / blocks, count * (b + 1) / blocks);
  });
}

void ThreadPool::pull(std::size_t lane, std::size_t count,
                      const Body& body) noexcept {
  try {
    for (;;) {
      if (error_flag_.load(std::memory_order_acquire)) break;
      const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      body(lane, i);
    }
  } catch (...) {
    record_error();
    // Fast-forward the shared counter so other lanes stop pulling even
    // before they poll the flag.
    next_index_.store(count, std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::size_t seen_generation = 0;
  for (;;) {
    std::size_t count = 0;
    const Body* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      count = job_count_;
      body = job_body_;
    }
    tl_inside_pool = true;
    pull(worker_index + 1, count, *body);
    tl_inside_pool = false;
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) cv_done_.notify_all();
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace dsketch
