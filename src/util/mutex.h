// Capability-annotated locking primitives for the SalsaLint wall.
//
// Clang's -Wthread-safety analysis only reasons about lock types that carry
// the capability attribute. libc++ annotates std::mutex behind an opt-in
// macro; libstdc++ (what CI's Linux images link) annotates nothing — so a
// SALSA_GUARDED_BY(std_mutex_member) would be rejected as "argument is not
// a capability" and the analysis would prove nothing. The fix is the one
// Abseil and Chromium use: thin annotated wrappers around the std
// primitives, zero overhead beyond the inline forwarding call.
//
//   Mutex      — std::mutex with SALSA_ACQUIRE/SALSA_RELEASE lock()/unlock()
//   MutexLock  — scoped lock_guard equivalent (SALSA_SCOPED_CAPABILITY)
//   CondVar    — condition variable waiting on a Mutex the caller holds
//                (SALSA_REQUIRES enforces the "hold it before you wait"
//                contract at compile time)
//
// Every mutex-protected member in the repo is expected to be declared as a
// salsa::Mutex + SALSA_GUARDED_BY pair; util/thread_pool.* is the
// reference user.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/annotations.h"

namespace salsa {

class SALSA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SALSA_ACQUIRE() { mu_.lock(); }
  void unlock() SALSA_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock: acquires in the constructor, releases in the destructor.
class SALSA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SALSA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SALSA_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over a Mutex. wait() demands the caller already hold
/// the mutex (the analysis rejects a lock-free wait at compile time) and
/// returns with it re-held, exactly like std::condition_variable — the
/// adopt/release pair below just moves the ownership through the
/// std::unique_lock that libstdc++'s wait() insists on.
class CondVar {
 public:
  void wait(Mutex& mu) SALSA_REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // still locked: ownership goes back to the caller
  }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace salsa
