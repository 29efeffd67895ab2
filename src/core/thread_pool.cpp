#include "quamax/core/thread_pool.hpp"

#include <algorithm>

namespace quamax::core {

std::size_t ThreadPool::resolve(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, hw);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t lanes = resolve(num_threads);
  workers_.reserve(lanes - 1);
  for (std::size_t i = 0; i + 1 < lanes; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::drain(const std::function<void(std::size_t)>& body,
                       std::size_t count) {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = std::current_exception();
      next_.store(count, std::memory_order_relaxed);  // abandon the rest
      return;
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (body_ == nullptr) continue;  // job already retired by the caller
      body = body_;
      count = count_;
      ++active_;
    }
    drain(*body, count);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --active_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty()) {
    // Serial pool: run inline, exceptions propagate directly.  Concurrent
    // callers still serialize, as the header promises.
    std::lock_guard<std::mutex> submit(submit_mu_);
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mu_);
  if (count == 1) {
    // Not worth waking workers; the submit lock keeps calls serialized.
    body(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();

  drain(body, count);  // the caller is a lane too

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return active_ == 0; });
    body_ = nullptr;  // retire before releasing: late wakers must not touch it
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void run_stream_blocks(
    ThreadPool* pool, std::size_t count, std::size_t block, Rng& rng,
    const std::function<void(std::size_t, std::vector<Rng>&)>& job) {
  if (count == 0) return;
  block = std::max<std::size_t>(1, block);
  const std::uint64_t key = rng();
  const auto run_block = [&](std::size_t b) {
    const std::size_t begin = b * block;
    const std::size_t size = std::min(block, count - begin);
    std::vector<Rng> streams;
    streams.reserve(size);
    for (std::size_t j = 0; j < size; ++j)
      streams.push_back(Rng::for_stream(key, begin + j));
    job(begin, streams);
  };
  const std::size_t num_blocks = (count + block - 1) / block;
  if (pool == nullptr) {
    for (std::size_t b = 0; b < num_blocks; ++b) run_block(b);
  } else {
    pool->parallel_for(num_blocks, run_block);
  }
}

}  // namespace quamax::core
