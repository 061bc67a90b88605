// Minimal work-sharing thread pool for deterministic data-parallel loops.
//
// The CONGEST simulator steps all active nodes each round; node steps are
// independent (they read their own inbox and write their own outboxes), so a
// parallel loop over the active set is safe. Determinism is preserved because
// message *delivery* order is fixed by edge indices, independent of which
// thread executed which node.
//
// One loop shape: for_each_dynamic, where lanes pull the next index from
// a shared atomic counter, so bodies of wildly uneven cost (per-source
// shortest-path searches whose cluster sizes vary by orders of
// magnitude) still spread evenly. The body also receives a lane id in
// [0, lanes()) for per-lane accumulators; parallel_for is the same loop
// for bodies that need no lane id, and for_each_block the same loop over
// contiguous index blocks.
//
// Every entry point is safe to call from multiple threads at once (the
// repro runner executes manifest cells on its own threads, and cells call
// into parallel builds): one caller drives the workers, concurrent callers
// fall back to running their loop serially on their own thread, and
// re-entrant calls from inside a pool task degrade to serial likewise.
//
// Exceptions: a body that throws — on any lane — does not crash the
// process (a throw escaping a worker thread would call std::terminate).
// The first exception is captured, remaining lanes stop pulling work as
// soon as they notice, and the exception is rethrown on the calling
// thread once every lane has quiesced. The pool itself stays usable; the
// captured error is cleared per invocation. With more than one throwing
// lane, which exception wins is a race — one of them is rethrown, the
// rest are dropped.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsketch {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Number of execution lanes (workers plus the calling thread); the
  /// upper bound on the lane ids for_each_dynamic hands out.
  std::size_t lanes() const { return workers_.size() + 1; }

  /// Runs body(lane, i) for i in [0, count) with dynamic load balancing:
  /// lanes pull the next index from a shared counter. Blocks until all
  /// complete. Index-to-lane assignment is nondeterministic; merges keyed
  /// by index (not lane) stay deterministic. If any body throws, the
  /// first exception is rethrown here after all lanes quiesce (see the
  /// file comment).
  void for_each_dynamic(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// for_each_dynamic for a body that takes no lane id.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// Runs body(begin, end) over [0, count) cut into contiguous blocks, a
  /// few per lane, pulled as for_each_dynamic pulls indices: for loops
  /// whose per-index work is too small to pull one index at a time.
  void for_each_block(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& body);

 private:
  using Body = std::function<void(std::size_t, std::size_t)>;

  void worker_loop(std::size_t worker_index);
  /// Pulls and runs indices of the current job as `lane` until the
  /// counter passes `count` or some lane has thrown; a throw is captured.
  void pull(std::size_t lane, std::size_t count, const Body& body) noexcept;
  /// Captures std::current_exception() as the invocation's error (first
  /// writer wins) and raises the stop flag other lanes poll.
  void record_error() noexcept;
  /// Rethrows and clears the captured error, if any. Driver-side, after
  /// all lanes quiesced.
  void rethrow_pending_error();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::mutex entry_mutex_;       // one driving caller at a time
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::size_t generation_ = 0;   // bumped per parallel call
  std::size_t pending_ = 0;      // workers still running this generation
  bool stop_ = false;

  // The current job, published under mutex_ with each generation.
  std::size_t job_count_ = 0;
  const Body* job_body_ = nullptr;
  std::atomic<std::size_t> next_index_{0};

  // Error capture, cleared per invocation (guarded by error_mutex_; the
  // flag is the lock-free fast-path poll).
  std::atomic<bool> error_flag_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;
};

/// Global pool used by the simulator when parallel stepping is requested.
ThreadPool& global_pool();

}  // namespace dsketch
