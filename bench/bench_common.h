// Forwarder: the benchmark harness plumbing moved into the library proper
// (src/bench_suite/harness.h) so the parallel table generators and their
// par-invariance regression test can share it. Bench mains keep including
// "bench_common.h".
#pragma once

#include "bench_suite/harness.h"  // IWYU pragma: export
