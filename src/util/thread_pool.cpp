#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <thread>

#include "util/annotations.h"
#include "util/args.h"
#include "util/diagnostics.h"
#include "util/mutex.h"

namespace salsa {

namespace {

// One parallel_for invocation: an atomic cursor over [0, n) plus completion
// bookkeeping. Participants (the caller and any stolen-in workers) claim
// indices with fetch_add until the cursor passes n.
struct Batch {
  int n = 0;
  const std::function<void(int)>* fn = nullptr;
  std::atomic<int> next{0};
  std::atomic<int> done{0};
  /// Worker slots still available (the caller is not counted here). Guarded
  /// by the owning Pool's mutex_ — Batch is declared before Pool, so the
  /// guard is stated here rather than via SALSA_GUARDED_BY; the only
  /// touches are Pool::run and Pool::take_batch_locked, both under it.
  int worker_slots = 0;
  std::vector<std::exception_ptr> errors;  // one slot per index
  // Wakeup plumbing for the batch owner; `done` itself is atomic, the
  // mutex only orders the final notify against the owner's predicate check.
  Mutex done_mutex;
  CondVar done_cv;

  bool claimable() const { return next.load(std::memory_order_relaxed) < n; }
};

// Executes indices from `b` until the cursor is exhausted. Returns after
// contributing; does not wait for other participants.
void drain(Batch& b) {
  for (;;) {
    const int i = b.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= b.n) break;
    try {
      (*b.fn)(i);
    } catch (...) {
      b.errors[static_cast<size_t>(i)] = std::current_exception();
    }
    if (b.done.fetch_add(1, std::memory_order_acq_rel) + 1 == b.n) {
      // Last index: wake the batch owner. Taking the lock orders the notify
      // after the owner's predicate check, so the wakeup cannot be missed.
      MutexLock lock(b.done_mutex);
      b.done_cv.notify_all();
    }
  }
}

// Process-wide worker pool. Workers are spawned lazily up to the largest
// participant count any parallel_for has requested, and sleep whenever no
// batch has both unclaimed indices and a free worker slot.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() {
    // Swap the worker handles out under the lock, join them outside it —
    // joining while holding mutex_ would deadlock against workers that
    // need it to observe stop_ (and the annotated guard on workers_ would
    // reject the unlocked join loop anyway).
    std::vector<std::thread> to_join;
    {
      MutexLock lock(mutex_);
      stop_ = true;
      to_join.swap(workers_);
    }
    work_cv_.notify_all();
    for (std::thread& w : to_join) w.join();
  }

  void run(int participants, int n, const std::function<void(int)>& fn) {
    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;
    batch->errors.resize(static_cast<size_t>(n));
    batch->worker_slots = participants - 1;
    {
      MutexLock lock(mutex_);
      ensure_workers_locked(participants - 1);
      batches_.push_back(batch);
    }
    work_cv_.notify_all();

    drain(*batch);
    {
      MutexLock lock(batch->done_mutex);
      while (batch->done.load(std::memory_order_acquire) != batch->n)
        batch->done_cv.wait(batch->done_mutex);
    }
    {
      MutexLock lock(mutex_);
      std::erase(batches_, batch);
    }
    for (const std::exception_ptr& e : batch->errors)
      if (e) std::rethrow_exception(e);
  }

 private:
  Pool() = default;

  void ensure_workers_locked(int wanted) SALSA_REQUIRES(mutex_) {
    while (static_cast<int>(workers_.size()) < wanted)
      workers_.emplace_back([this] { worker_loop(); });
  }

  // Oldest batch with unclaimed indices and a free worker slot; takes the
  // slot.
  std::shared_ptr<Batch> take_batch_locked() SALSA_REQUIRES(mutex_) {
    for (const auto& b : batches_) {
      if (b->claimable() && b->worker_slots > 0) {
        --b->worker_slots;
        return b;
      }
    }
    return nullptr;
  }

  // The explicit lock()/unlock() structure (instead of a cv.wait(lock,
  // pred) lambda) keeps every guarded access lexically inside a held
  // region, which is the shape the thread-safety analysis can prove.
  void worker_loop() SALSA_EXCLUDES(mutex_) {
    mutex_.lock();
    for (;;) {
      if (stop_) {
        mutex_.unlock();
        return;
      }
      std::shared_ptr<Batch> batch = take_batch_locked();
      if (batch != nullptr) {
        mutex_.unlock();
        drain(*batch);
        // The slot is not returned: a drained participant leaving means
        // the cursor is exhausted (or will be momentarily), so re-joining
        // the same batch buys nothing.
        mutex_.lock();
        continue;
      }
      work_cv_.wait(mutex_);
    }
  }

  Mutex mutex_;
  CondVar work_cv_;
  bool stop_ SALSA_GUARDED_BY(mutex_) = false;
  std::deque<std::shared_ptr<Batch>> batches_ SALSA_GUARDED_BY(mutex_);
  /// Joined by ~Pool at process exit.
  std::vector<std::thread> workers_ SALSA_GUARDED_BY(mutex_);
};

}  // namespace

int default_thread_count() {
  if (const char* env = std::getenv("SALSA_THREADS")) {
    const long long v = parse_int("SALSA_THREADS", env, 0, 4096);
    if (v >= 1) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

int Parallelism::resolve() const {
  return threads > 0 ? threads : default_thread_count();
}

void parallel_for(const Parallelism& par, int n,
                  const std::function<void(int)>& fn) {
  SALSA_CHECK_MSG(n >= 0, "parallel_for needs a non-negative index count");
  if (n == 0) return;
  const int participants = std::min(par.resolve(), n);
  if (participants <= 1 || n == 1) {
    // Sequential reference path. Runs the indices in order; exceptions are
    // still deferred to the end (lowest index wins) so failure behaviour
    // matches the parallel path exactly.
    std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<size_t>(i)] = std::current_exception();
      }
    }
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    return;
  }
  Pool::instance().run(participants, n, fn);
}

}  // namespace salsa
