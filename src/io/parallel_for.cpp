#include "io/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace pdl::io {

namespace {

std::size_t count_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Where range r of [0, n) split into `lanes` ranges begins: n * r /
/// lanes, without overflowing n * r.
[[nodiscard]] std::size_t range_begin(std::size_t n, std::size_t lanes,
                                      std::size_t r) noexcept {
  return n / lanes * r + n % lanes * r / lanes;
}

/// The persistent workers.  A round's ranges after the first go to
/// whichever thread claims them first: a worker, or the caller once its
/// own range is done, so a range whose worker wakes late runs on the
/// caller instead of waiting for it.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool(parallel_lanes() - 1);
    return pool;
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Runs one round: false (and nothing run) when another call holds it.
  bool run(std::size_t n, std::size_t lanes, detail::RangeCall call,
           void* body) {
    if (busy_.exchange(true, std::memory_order_acquire)) return false;
    struct Release {
      std::atomic<bool>& busy;
      ~Release() { busy.store(false, std::memory_order_release); }
    } release{busy_};
    std::unique_lock lock(mutex_);
    round_ = {n, lanes, call, body};
    next_ = 1;
    unfinished_ = lanes - 1;
    failure_ = nullptr;
    ++generation_;
    lock.unlock();
    wake_.notify_all();
    std::exception_ptr failure;
    try {
      call(body, 0, range_begin(n, lanes, 1));
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    run_claimed(lock);
    // Wait even when range 0 threw: the workers still read the body.
    done_.wait(lock, [&] { return unfinished_ == 0; });
    if (!failure) failure = failure_;
    lock.unlock();
    if (failure) std::rethrow_exception(failure);
    return true;
  }

 private:
  struct Round {
    std::size_t n = 0;
    std::size_t lanes = 0;
    detail::RangeCall call = nullptr;
    void* body = nullptr;
  };

  explicit Pool(std::size_t workers) {
    workers_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
      workers_.emplace_back([this] { work(); });
  }

  void work() {
    std::uint64_t seen = 0;
    std::unique_lock lock(mutex_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      run_claimed(lock);
    }
  }

  /// Claims and runs the current round's unclaimed ranges, one at a
  /// time, releasing `lock` (on mutex_) while each runs.
  void run_claimed(std::unique_lock<std::mutex>& lock) {
    const std::uint64_t generation = generation_;
    while (generation_ == generation && next_ < round_.lanes) {
      const Round round = round_;
      const std::size_t r = next_++;
      lock.unlock();
      std::exception_ptr failure;
      try {
        round.call(round.body, range_begin(round.n, round.lanes, r),
                   range_begin(round.n, round.lanes, r + 1));
      } catch (...) {
        failure = std::current_exception();
      }
      lock.lock();
      if (failure && !failure_) failure_ = failure;
      if (--unfinished_ == 0) done_.notify_one();
    }
  }

  /// Set by the call whose round the pool runs.  A flag, not a mutex,
  /// so that a range calling parallel_for on the same thread finds it
  /// set instead of locking a mutex it holds.
  std::atomic<bool> busy_{false};
  std::mutex mutex_;
  std::condition_variable wake_;  ///< a new round, or stop
  std::condition_variable done_;  ///< every range after the first is done
  Round round_;
  std::uint64_t generation_ = 0;  ///< rounds started
  std::size_t next_ = 0;          ///< the round's next unclaimed range
  std::size_t unfinished_ = 0;    ///< ranges after the first not done
  std::exception_ptr failure_;    ///< the first a range after 0 threw
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace

std::size_t parallel_lanes() noexcept {
  static const std::size_t lanes = count_cpus();
  return lanes;
}

void detail::parallel_for(std::size_t n, std::size_t lanes, RangeCall call,
                          void* body) {
  lanes = std::min({lanes, n, parallel_lanes()});
  if (lanes > 1 && Pool::instance().run(n, lanes, call, body)) return;
  if (n > 0) call(body, 0, n);
}

}  // namespace pdl::io
