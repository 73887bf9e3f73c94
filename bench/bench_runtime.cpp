// CPU-time microbenchmarks (google-benchmark): the paper quotes 8-10 CPU
// minutes per EWF allocation on a Sun Sparcstation 1 and 12+ minutes for the
// DCT; this harness measures the corresponding costs on modern hardware —
// per-move cost evaluation, occupancy recomputation, move application, the
// constructive initial allocation, full improvement trials, the schedulers,
// and a datapath simulation step.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "bench_suite/dct.h"
#include "bench_suite/ewf.h"
#include "core/initial.h"
#include "core/search_engine.h"
#include "datapath/simulator.h"
#include "frontend/generate.h"
#include "sched/force_directed.h"
#include "sched/list_scheduler.h"
#include "util/bitplane.h"
#include "util/flat_map.h"

using namespace salsa;
using namespace salsa::benchharness;

namespace {

ProblemBundle& ewf17() {
  static ProblemBundle b =
      make_problem(make_ewf(), HwSpec{}, 17, SpareRegisters{1});
  return b;
}

ProblemBundle& dct9() {
  static ProblemBundle b =
      make_problem(make_dct(), HwSpec{}, 9, SpareRegisters{2});
  return b;
}

void BM_CostEvaluation(benchmark::State& state) {
  Binding b = initial_allocation(*ewf17().problem);
  for (auto _ : state) benchmark::DoNotOptimize(evaluate_cost(b).total);
}
BENCHMARK(BM_CostEvaluation);

void BM_Occupancy(benchmark::State& state) {
  Binding b = initial_allocation(*ewf17().problem);
  for (auto _ : state) benchmark::DoNotOptimize(b.occupancy().fu_user.size());
}
BENCHMARK(BM_Occupancy);

void BM_MoveProposeApply(benchmark::State& state) {
  Binding b = initial_allocation(*ewf17().problem);
  Rng rng(1);
  const MoveConfig moves = MoveConfig::salsa_default();
  for (auto _ : state) {
    Binding candidate = b;
    benchmark::DoNotOptimize(apply_random_move(candidate, moves.pick(rng), rng));
  }
}
BENCHMARK(BM_MoveProposeApply);

// One decided search step the way the pre-engine loops did it: copy the
// binding, apply a move, evaluate the full cost, drop the copy. The
// moves_per_sec counter is directly comparable with BM_EngineMoveStep.
void BM_LegacyMoveStep(benchmark::State& state) {
  Binding b = initial_allocation(*ewf17().problem);
  Rng rng(1);
  const MoveConfig moves = MoveConfig::salsa_default();
  long proposed = 0;
  for (auto _ : state) {
    Binding candidate = b;
    if (apply_random_move(candidate, moves.pick(rng), rng)) {
      benchmark::DoNotOptimize(evaluate_cost(candidate).total);
    }
    ++proposed;
  }
  state.counters["moves_per_sec"] =
      benchmark::Counter(static_cast<double>(proposed),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LegacyMoveStep);

// One decided search step through the SearchEngine: propose with an
// incremental delta, then commit or roll back (alternating, so both undo
// paths are measured).
void BM_EngineMoveStep(benchmark::State& state) {
  Binding b = initial_allocation(*ewf17().problem);
  SearchEngine eng(b);
  Rng rng(1);
  const MoveConfig moves = MoveConfig::salsa_default();
  long proposed = 0;
  bool keep = false;
  for (auto _ : state) {
    if (eng.propose(moves.pick(rng), rng)) {
      if (keep)
        eng.commit();
      else
        eng.rollback();
      keep = !keep;
      benchmark::DoNotOptimize(eng.total());
    }
    ++proposed;
  }
  state.counters["moves_per_sec"] =
      benchmark::Counter(static_cast<double>(proposed),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineMoveStep);

// Raw connection-index throughput: refcount churn (increment / lookup /
// decrement with backward-shift erase) over packed 64-bit pair keys — the
// op mix the engine drives against FlatMap: probes of the netted keys in
// every proposal, net adds at commit, refcount steps in restores. Half the
// key set is pre-seeded, so increments split between creating entries
// (erased again on the decrement) and bumping live ones, and lookups mix
// hits with misses. ops_per_sec counts individual table operations.
void BM_IndexOps(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<uint64_t> keys(static_cast<size_t>(n));
  for (uint64_t& key : keys) key = rng.next();
  FlatMap<uint64_t> index;
  index.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i += 2) index.increment(keys[static_cast<size_t>(i)]);
  long ops = 0;
  for (auto _ : state) {
    const uint64_t hot = keys[static_cast<size_t>(rng.uniform(n))];
    const uint64_t probe = keys[static_cast<size_t>(rng.uniform(n))];
    index.increment(hot);
    benchmark::DoNotOptimize(index.find(probe));
    index.decrement(hot);
    ops += 3;
  }
  state.counters["ops_per_sec"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IndexOps)->Arg(1 << 10)->Arg(1 << 14);

// Raw packed-bitplane kernel throughput at move-hot-path shapes: the arg is
// the bit width of a row (a schedule length — EWF-sized 17 up to a stride-3
// 130), and each iteration runs one claim/probe/mask cycle: a cyclic
// set_range_wrap, a windowed any_in_range legality probe, a row-vs-mask
// words_and_any overlap test and the three-operand words_and_andnot_any the
// register proposers use, then the clear_range release. ops_per_sec counts
// individual kernel calls.
void BM_BitplaneOps(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const int rows = 64;
  Rng rng(13);
  BitPlane occ, live, own;
  occ.resize(rows, bits);
  live.resize(rows, bits);
  own.resize(rows, bits);
  for (int r = 0; r < rows; ++r) {
    live.set_range_wrap(r, rng.uniform(bits), 1 + rng.uniform(bits));
    own.set_range_wrap(r, rng.uniform(bits), 1 + rng.uniform(bits / 2 + 1));
  }
  long ops = 0;
  bool sink = false;
  for (auto _ : state) {
    const int r = rng.uniform(rows);
    const int start = rng.uniform(bits);
    const int len = 1 + rng.uniform(bits);
    occ.set_range_wrap(r, start, len);
    const int wstart = rng.uniform(bits);
    const int wlen = 1 + rng.uniform(bits - wstart);
    sink ^= occ.any_in_range(r, wstart, wlen);
    sink ^= words_and_any(occ.row(r), live.row(r), occ.stride());
    sink ^= words_and_andnot_any(occ.row(r), live.row(r), own.row(r),
                                 occ.stride());
    if (start + len <= bits) {
      occ.clear_range(r, start, len);
    } else {
      occ.clear_range(r, start, bits - start);
      occ.clear_range(r, 0, start + len - bits);
    }
    ops += 5;
  }
  benchmark::DoNotOptimize(sink);
  state.counters["ops_per_sec"] = benchmark::Counter(
      static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BitplaneOps)->Arg(17)->Arg(64)->Arg(130);

void BM_InitialAllocation(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        initial_allocation(*ewf17().problem, InitialOptions{.seed = ++seed})
            .regs_used());
  }
}
BENCHMARK(BM_InitialAllocation);

void BM_ImprovementTrial(benchmark::State& state) {
  Binding b = initial_allocation(*ewf17().problem);
  uint64_t seed = 0;
  for (auto _ : state) {
    ImproveParams p;
    p.max_trials = 1;
    p.moves_per_trial = 1000;
    p.stop_after_stale = 1;
    p.seed = ++seed;
    benchmark::DoNotOptimize(improve(b, p).cost.total);
  }
  state.counters["moves_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 1000.0,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ImprovementTrial)->Unit(benchmark::kMillisecond);

void BM_FullEwfAllocation(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    AllocatorOptions opts;
    opts.improve = standard_improve(++seed);
    benchmark::DoNotOptimize(allocate(*ewf17().problem, opts).cost.total);
  }
}
BENCHMARK(BM_FullEwfAllocation)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_FullDctAllocation(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    AllocatorOptions opts;
    opts.improve = standard_improve(++seed);
    benchmark::DoNotOptimize(allocate(*dct9().problem, opts).cost.total);
  }
}
BENCHMARK(BM_FullDctAllocation)->Unit(benchmark::kMillisecond)->Iterations(3);

// The headline parallel-runtime number: 16 independent restarts of the EWF
// allocation, fanned out with parallel_map. The result is byte-identical
// for every arg (the "cost" counter must not move); wall clock should fall
// near-linearly until the core count is exhausted. Run with
// --benchmark_format=json for a machine-readable threads-vs-wall-clock
// record ("threads" counter vs "real_time").
void BM_ParallelRestarts(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  double cost = 0;
  for (auto _ : state) {
    AllocatorOptions opts;
    opts.improve = standard_improve(1);
    opts.initial.seed = 1;
    opts.restarts = 16;
    opts.parallelism.threads = threads;
    cost = allocate(*ewf17().problem, opts).cost.total;
  }
  state.counters["threads"] = threads;
  state.counters["cost"] = cost;  // identical across args by construction
}
BENCHMARK(BM_ParallelRestarts)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// ---- large-design scaling sweep -------------------------------------------
// Sequential engine-move throughput vs design size, the wall behind
// BENCH_scaling.json. Arg 0 selects the design source (0 = the EWF
// reference point every ratio is normalized against, 1 = generated filter
// cascade, 2 = generated layered DAG), arg 1 the target operator count.
// Fixed iteration count so every run decides the same number of proposals;
// sizes are registered in ascending order so the process-wide peak-RSS
// counter bounds the memory of each size's run.

const char* scaling_family_name(int fam) {
  switch (fam) {
    case 0:
      return "ewf";
    case 1:
      return "cascade";
    case 2:
      return "dag";
    default:
      return "?";
  }
}

const GeneratedDesign& scaling_design(int fam, int target) {
  static std::map<std::pair<int, int>, std::unique_ptr<GeneratedDesign>> cache;
  std::unique_ptr<GeneratedDesign>& slot = cache[{fam, target}];
  if (!slot) {
    GenParams p;
    p.family = fam == 1 ? GenFamily::kFilterCascade : GenFamily::kLayeredDag;
    p.target_ops = target;
    p.seed = 1;
    slot = std::make_unique<GeneratedDesign>(generate_design(p));
  }
  return *slot;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

void BM_ScalingMoves(benchmark::State& state) {
  const int fam = static_cast<int>(state.range(0));
  const int target = static_cast<int>(state.range(1));
  const AllocProblem* prob;
  int ops, length, regs;
  if (fam == 0) {
    ProblemBundle& bundle = ewf17();
    prob = bundle.problem.get();
    ops = static_cast<int>(bundle.graph->operations().size());
    length = bundle.schedule->length();
    regs = prob->num_regs();
  } else {
    const GeneratedDesign& d = scaling_design(fam, target);
    prob = d.problem.get();
    ops = d.num_ops;
    length = d.schedule->length();
    regs = prob->num_regs();
  }
  Binding b = initial_allocation(*prob, InitialOptions{.seed = 5});
  SearchEngine eng(b);
  Rng rng(1);
  const MoveConfig moves = MoveConfig::salsa_default();
  long proposed = 0;
  bool keep = false;
  for (auto _ : state) {
    if (eng.propose(moves.pick(rng), rng)) {
      if (keep)
        eng.commit();
      else
        eng.rollback();
      keep = !keep;
      benchmark::DoNotOptimize(eng.total());
    }
    ++proposed;
  }
  state.counters["moves_per_sec"] = benchmark::Counter(
      static_cast<double>(proposed), benchmark::Counter::kIsRate);
  state.counters["design_ops"] = ops;
  state.counters["sched_len"] = length;
  state.counters["regs"] = regs;
  state.counters["family"] = fam;
  state.counters["peak_rss_mb"] = peak_rss_mb();
}
BENCHMARK(BM_ScalingMoves)
    ->Args({0, 0})  // EWF: the per-move reference point
    ->Args({1, 1000})
    ->Args({2, 1000})
    ->Args({1, 5000})
    ->Args({1, 10000})
    ->Args({2, 10000})
    ->Args({1, 50000})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(50000);

// Force-directed scheduling: arg 0 is EWF at 19 steps, any other arg a
// generated filter cascade of that many operators at the generator's length.
void BM_ForceDirectedSchedule(benchmark::State& state) {
  const int target = static_cast<int>(state.range(0));
  const Cdfg ewf = make_ewf();
  const GeneratedDesign* d = target == 0 ? nullptr : &scaling_design(1, target);
  const Cdfg& g = d == nullptr ? ewf : *d->graph;
  const int length = d == nullptr ? 19 : d->schedule->length();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        force_directed_schedule(g, HwSpec{}, length).length());
  state.counters["design_ops"] = static_cast<double>(g.operations().size());
  state.counters["sched_len"] = length;
}
BENCHMARK(BM_ForceDirectedSchedule)
    ->Arg(0)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

// One list_schedule call on a generated design (arg 0: 1 = filter cascade,
// 2 = layered DAG; arg 1: target operators) at the length and FU budget
// generate_design settled on: perfbench's cascade3k and dag5k designs.
void BM_ListSchedule(benchmark::State& state) {
  const GeneratedDesign& d = scaling_design(static_cast<int>(state.range(0)),
                                            static_cast<int>(state.range(1)));
  const int length = d.schedule->length();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        list_schedule(*d.graph, HwSpec{}, length, d.fus).has_value());
  state.counters["design_ops"] = d.num_ops;
  state.counters["sched_len"] = length;
}
BENCHMARK(BM_ListSchedule)
    ->Args({1, 3000})
    ->Args({2, 5000})
    ->Unit(benchmark::kMillisecond);

void BM_SimulateIteration(benchmark::State& state) {
  Binding b = initial_allocation(*ewf17().problem);
  Netlist nl(b);
  std::vector<std::vector<int64_t>> inputs(3, std::vector<int64_t>{5});
  std::vector<int64_t> states(7, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(simulate(nl, inputs, states, 2).outputs.size());
}
BENCHMARK(BM_SimulateIteration);

// The display reporter google-benchmark would pick itself (so
// --benchmark_format and --benchmark_color apply), wrapped to also capture
// every run carrying both a moves_per_sec and a design_ops counter (the
// BM_ScalingMoves sweep) into scaling rows for the machine-readable record
// written by main(). Counters reach the reporter already finalized (rates
// divided by elapsed time). Aggregate rows (mean/median/stddev/cv of
// repeated runs) are skipped: their counters are statistics of statistics
// (a stddev row reports the stddev of the threads counter as "threads: 0"),
// which once polluted the committed baseline.
class ScalingCapture : public benchmark::BenchmarkReporter {
 public:
  explicit ScalingCapture(benchmark::BenchmarkReporter* display)
      : display_(display) {}

  std::vector<benchharness::ScalingRow> scaling_rows;

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Aggregate) continue;
      const auto it = run.counters.find("moves_per_sec");
      if (it == run.counters.end()) continue;
      const auto ops = run.counters.find("design_ops");
      if (ops != run.counters.end()) {
        benchharness::ScalingRow row;
        row.benchmark = run.benchmark_name();
        row.ops = static_cast<int>(ops->second.value);
        row.moves_per_sec = it->second.value;
        if (const auto f = run.counters.find("family");
            f != run.counters.end())
          row.family = scaling_family_name(static_cast<int>(f->second.value));
        if (const auto l = run.counters.find("sched_len");
            l != run.counters.end())
          row.length = static_cast<int>(l->second.value);
        if (const auto r = run.counters.find("regs"); r != run.counters.end())
          row.regs = static_cast<int>(r->second.value);
        if (const auto m = run.counters.find("peak_rss_mb");
            m != run.counters.end())
          row.peak_rss_mb = m->second.value;
        scaling_rows.push_back(std::move(row));
      }
    }
    display_->ReportRuns(reports);
  }

  void Finalize() override { display_->Finalize(); }

 private:
  /// The library's process-wide display reporter; never deleted.
  benchmark::BenchmarkReporter* display_;
};

}  // namespace

// BENCHMARK_MAIN plus the machine-readable record: every BM_ScalingMoves
// run lands in BENCH_scaling.json (override the path with
// SALSA_SCALING_JSON), stamped with the tree's `git describe`. The record
// is written only when the filter actually ran scaling benchmarks, so any
// other run cannot clobber the committed wall with an empty array.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ScalingCapture reporter(benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!reporter.scaling_rows.empty()) {
    const char* spath = std::getenv("SALSA_SCALING_JSON");
    benchharness::write_scaling_json(
        spath != nullptr ? spath : "BENCH_scaling.json",
        reporter.scaling_rows, benchharness::git_describe());
  }
  return 0;
}
