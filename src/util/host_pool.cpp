#include "util/host_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/cpus.hpp"

namespace rips::host_pool {
namespace {

// Pool workers and marked outer workers run every run() inline.
thread_local bool t_inline = false;

void run_inline(std::size_t count, Body body, void* ctx) {
  for (std::size_t i = 0; i < count; ++i) body(ctx, i);
}

class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void run(std::size_t count, Body body, void* ctx) {
    // One run at a time holds the workers; a concurrent caller (another
    // engine on an unmarked thread) runs its indices itself.
    if (busy_.exchange(true, std::memory_order_acquire)) {
      run_inline(count, body, ctx);
      return;
    }
    if (!started_) start();
    if (threads_.empty()) {
      busy_.store(false, std::memory_order_release);
      run_inline(count, body, ctx);
      return;
    }
    std::uint64_t gen = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      gen = ++gen_;
      body_ = body;
      ctx_ = ctx;
      count_ = count;
      cursor_.store(gen << 32, std::memory_order_relaxed);
    }
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t helpers = std::min(threads_.size(), count - 1);
    for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();
    drain(gen, count, body, ctx);
    std::exception_ptr error;
    {
      // Every worker that joined this generation has finished its indices
      // once running_ drops to zero; a worker that joins later finds the
      // cursor exhausted (or tagged with a newer generation) and claims
      // nothing.
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [this] { return running_ == 0; });
      error = std::exchange(error_, nullptr);
    }
    busy_.store(false, std::memory_order_release);
    if (error) std::rethrow_exception(error);
  }

  std::size_t threads_started() const {
    return started_threads_.load(std::memory_order_relaxed);
  }
  std::size_t dispatches() const {
    return dispatches_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << 32) - 1;

  // Called by the busy_ holder only.
  void start() {
    started_ = true;
    const std::size_t cpus = usable_cpus();
    try {
      threads_.reserve(cpus - 1);
      for (std::size_t i = 1; i < cpus; ++i) {
        threads_.emplace_back([this] { worker(); });
      }
    } catch (const std::exception&) {
      // Fewer workers only cost speed: results never depend on them.
    }
    started_threads_.store(threads_.size(), std::memory_order_relaxed);
  }

  void worker() {
    t_inline = true;
    std::uint64_t seen = 0;
    for (;;) {
      Body body = nullptr;
      void* ctx = nullptr;
      std::size_t count = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] { return stop_ || gen_ != seen; });
        if (stop_) return;
        seen = gen_;
        body = body_;
        ctx = ctx_;
        count = count_;
        ++running_;
      }
      drain(seen, count, body, ctx);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--running_ == 0) done_.notify_one();
      }
    }
  }

  // Claims indices of generation `gen` until none is left. The cursor
  // carries the generation in its high half, so a late worker can never
  // claim an index of a newer run with an older run's body. It carries no
  // data: bodies and results are handed over under mu_. An index that
  // throws keeps the others running; run() rethrows the first exception.
  void drain(std::uint64_t gen, std::size_t count, Body body, void* ctx) {
    const std::uint64_t tag = gen << 32;
    std::uint64_t c = cursor_.load(std::memory_order_relaxed);
    for (;;) {
      if ((c & ~kIndexMask) != tag || (c & kIndexMask) >= count) return;
      if (cursor_.compare_exchange_weak(c, c + 1,
                                        std::memory_order_relaxed)) {
        try {
          body(ctx, static_cast<std::size_t>(c & kIndexMask));
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!error_) error_ = std::current_exception();
        }
        c = cursor_.load(std::memory_order_relaxed);
      }
    }
  }

  std::atomic<bool> busy_{false};
  bool started_ = false;  // busy_ holder only
  std::atomic<std::size_t> started_threads_{0};
  std::atomic<std::size_t> dispatches_{0};
  std::atomic<std::uint64_t> cursor_{0};

  std::mutex mu_;
  std::condition_variable wake_;  // workers park here
  std::condition_variable done_;  // the caller waits here
  // Guarded by mu_.
  std::uint64_t gen_ = 0;
  Body body_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t count_ = 0;
  std::size_t running_ = 0;  // workers inside a generation
  std::exception_ptr error_;  // the first exception of this generation
  bool stop_ = false;

  std::vector<std::thread> threads_;  // busy_ holder and destructor only
};

Pool& pool() {
  static Pool instance;
  return instance;
}

}  // namespace

void run(std::size_t count, Body body, void* ctx) {
  if (count == 0) return;
  RIPS_CHECK_MSG(count <= (std::size_t{1} << 32) - 1,
                 "host_pool::run takes at most 2^32 - 1 indices");
  if (count == 1 || t_inline) {
    run_inline(count, body, ctx);
    return;
  }
  pool().run(count, body, ctx);
}

void mark_worker_thread() { t_inline = true; }

std::size_t threads_started() { return pool().threads_started(); }

std::size_t dispatches() { return pool().dispatches(); }

}  // namespace rips::host_pool
