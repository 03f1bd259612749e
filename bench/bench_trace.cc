/** @file Trace-driven hierarchy engine: end-to-end circuit -> cache
 * -> transfer-network runs, and sweep throughput at 1/4/8 threads. */

#include <cstdio>
#include <iostream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/workload.hh"
#include "bench_util.hh"
#include "sched/scheduler.hh"
#include "sweep/sweep.hh"
#include "trace/compiled.hh"
#include "trace/engine.hh"

using namespace qmh;

namespace {

/**
 * Design-space grid around the paper's operating points, executed at
 * instruction granularity: 2 codes x 2 adder workloads x channel and
 * capacity sweeps = 24 event-driven trace simulations.
 */
std::vector<api::ExperimentSpec>
traceGrid()
{
    api::SpecGrid grid;
    grid.base =
        api::parseSpec("experiment=trace n=64 blocks=49").spec;
    grid.axis("code", {"steane", "bacon-shor"});
    grid.axis("workload", {"draper", "qft"});
    grid.axis("transfers", {"2", "5", "10"});
    grid.axis("capacity_x", {"1", "2"});
    return grid.expand();
}

void
printTraceTable()
{
    benchBanner("Trace engine",
                "gate-level circuits through the full memory "
                "hierarchy (cache residency + transfer channels)");
    const auto specs = traceGrid();
    sweep::SweepRunner runner;
    auto table = api::runSpecSweep(runner, specs);

    std::printf("trace design-space sweep: %zu points on %u "
                "threads; top configurations by speedup over the "
                "flat level-2 baseline:\n",
                table.rows(), runner.threadCount());
    table.sortRowsByColumnDesc(*table.findColumn("speedup"));
    sweep::toAsciiTable(table, 8, {"spec", "seed"})
        .print(std::cout);

    maybeWriteSweepOutputs(table, "trace");
    std::printf("Headline: the hierarchy pays off once transfer "
                "channels and cache capacity match the circuit's "
                "parallelism (paper Fig. 2 / Fig. 7 / Table 5).\n\n");
}

/** One end-to-end trace run (engine cost without the sweep layer). */
void
BM_TraceRun(benchmark::State &state)
{
    Random rng(7);
    api::ExperimentSpec spec;
    spec.workload = "draper";
    spec.n = static_cast<int>(state.range(0));
    const auto workload = api::buildWorkload(spec, rng);
    trace::TraceConfig config;
    config.blocks = 49;
    config.transfers = 10;
    config.capacity = 2 * workload.pe_qubits;
    const auto params = iontrap::Params::future();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            trace::runTrace(workload, config, params));
    state.counters["gates"] =
        static_cast<double>(workload.program.size());
}
BENCHMARK(BM_TraceRun)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/**
 * The flat baseline schedule's host time per gate, over tables compiled
 * once: the full listSchedule (per-gate start times and block ids)
 * against the makespan-only loop runTrace uses, at 49 blocks. Arg 0
 * picks the circuit (0 = draper n=256, 1 = random n=256 gates=20000),
 * arg 1 the form (0 = listSchedule, 1 = makespan only).
 */
void
BM_FlatBaseline(benchmark::State &state)
{
    api::ExperimentSpec spec;
    spec.n = 256;
    spec.workload = state.range(0) == 0 ? "draper" : "random";
    spec.gates = 20000;
    Random rng(7);
    const trace::CompiledWorkload compiled(api::buildWorkload(spec, rng));
    const bool makespan_only = state.range(1) == 1;
    for (auto _ : state) {
        if (makespan_only)
            benchmark::DoNotOptimize(sched::listScheduleMakespan(
                compiled.dag(), compiled.tables(), 49));
        else
            benchmark::DoNotOptimize(
                sched::listSchedule(compiled.dag(), compiled.tables(), 49)
                    .makespan);
    }
    // An inverted rate: host seconds per gate (printed as e.g. 36ns).
    state.counters["time_per_gate"] = benchmark::Counter(
        static_cast<double>(compiled.program().size()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FlatBaseline)
    ->ArgNames({"circuit", "makespan_only"})
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

/**
 * The 24-point trace grid at 1/4/8 threads: points/sec is the trace
 * engine's sweep throughput, and the 8-thread row over the 1-thread
 * row is the wall-clock scaling (real time, not CPU time).
 */
void
BM_TraceSweep(benchmark::State &state)
{
    const auto specs = traceGrid();
    const auto threads = static_cast<unsigned>(state.range(0));
    sweep::SweepRunner runner({.threads = threads});
    for (auto _ : state) {
        const auto table = api::runSpecSweep(runner, specs);
        benchmark::DoNotOptimize(table.rows());
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(specs.size()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceSweep)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

} // namespace

QMH_BENCH_MAIN(printTraceTable)
