// Clang thread-safety annotations — the compile-time half of the SalsaLint
// wall (DESIGN.md "SalsaLint static-analysis wall").
//
// The parallel runtime's locking discipline (which mutex guards which
// member, which functions must / must not hold it) used to live only in
// comments; these macros state it in a form `clang -Wthread-safety` proves
// on every build of the lint-static CI flavor. Under GCC/MSVC every macro
// expands to nothing, so the annotations cost non-Clang builds exactly
// zero — same contract as the no-op fallback in Abseil's
// thread_annotations.h, which this header follows.
//
// Usage map (the one annotated subsystem):
//   * util/thread_pool.* — the process-wide Pool: batches_/workers_/
//     stop_ are SALSA_GUARDED_BY(mutex_); the *_locked helpers are
//     SALSA_REQUIRES(mutex_).
//
// Adding a mutex-protected member anywhere else? Annotate it here-style or
// the Clang leg of CI will not prove anything about it — the analysis is
// opt-in per member.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define SALSA_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define SALSA_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op on non-Clang
#endif

/// Marks a type as a capability (lockable). std::mutex already carries the
/// attribute in libc++ and is special-cased by the analysis everywhere
/// else, so this is only needed for hand-rolled lock types.
#define SALSA_CAPABILITY(x) \
  SALSA_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares that a data member may only be read or written while holding
/// the given capability (e.g. SALSA_GUARDED_BY(mutex_)).
#define SALSA_GUARDED_BY(x) SALSA_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Like SALSA_GUARDED_BY, for the data a pointer member points to (the
/// pointer itself stays unguarded).
#define SALSA_PT_GUARDED_BY(x) \
  SALSA_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Declares that callers must hold the capability when calling the
/// annotated function (which itself neither acquires nor releases it).
#define SALSA_REQUIRES(...) \
  SALSA_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// Declares that callers must NOT hold the capability — the function
/// acquires it itself, so calling with it held would self-deadlock.
#define SALSA_EXCLUDES(...) \
  SALSA_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// The annotated function acquires the capability and returns with it held.
#define SALSA_ACQUIRE(...) \
  SALSA_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// The annotated function releases the capability before returning.
#define SALSA_RELEASE(...) \
  SALSA_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// Scoped lock types (lock in ctor, unlock in dtor).
#define SALSA_SCOPED_CAPABILITY \
  SALSA_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Escape hatch: the function's locking is intentionally outside what the
/// analysis can model (e.g. lock handoff across threads). Use sparingly and
/// say why at the call site.
#define SALSA_NO_THREAD_SAFETY_ANALYSIS \
  SALSA_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)
