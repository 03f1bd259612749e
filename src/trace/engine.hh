/**
 * @file
 * Trace-driven memory-hierarchy engine: one event-driven pipeline
 * from circuit to cache to transfer network.
 *
 * Where cqla::runHierarchySim models an *abstract* stream of whole
 * additions (the paper's Table-5 granularity), this engine executes a
 * real logical circuit instruction by instruction through the full
 * hierarchy:
 *
 *  - the list scheduler's issue policy (sched::IncrementalScheduler,
 *    critical-path priority) maps ready instructions onto B level-1
 *    compute blocks;
 *  - every issued instruction's cacheable operands are looked up in
 *    the level-1 qubit cache (cache::CacheState, LRU); hits proceed,
 *    misses are served by the banked level-2 memory
 *    (sim::BankedMemory — the qubit hashes to a bank, bounded
 *    per-bank buffers, a shared port issue-width, deterministic FIFO
 *    arbitration) and then pull the qubit through the counted
 *    code-transfer channels (sim::TransferChannels — the same
 *    resource the abstract model charges) at the Table-3 transfer
 *    latency of the configured code. Qubits evicted by a fill write
 *    back through the same banks as fire-and-forget traffic;
 *  - once all operands are resident the gate computes for its
 *    gate-step latency at the level-1 step time, then releases its
 *    block and readies its dependents.
 *
 * The flat baseline is the same schedule with every qubit held at
 * level 2 (no cache, no transfers) at the level-2 step time — the QLA
 * sea-of-qubits execution the paper compares against. One run yields
 * makespan, speedup over that baseline, hit rate, transfer-channel
 * utilization and the gates-in-flight profile (peak and mean — the
 * Fig. 2 parallelism measure at tick resolution).
 *
 * Everything is deterministic: no randomness, one private EventQueue
 * per run, so identical inputs give bit-identical results on any
 * thread of a sweep.
 */

#ifndef QMH_TRACE_ENGINE_HH
#define QMH_TRACE_ENGINE_HH

#include "circuit/workload.hh"
#include "iontrap/params.hh"
#include "trace/compiled.hh"
#include "trace/config.hh"

namespace qmh {
namespace trace {

/**
 * Execute @p compiled through the hierarchy under @p config /
 * @p params. The workload's cacheable mask (empty = everything
 * cacheable) decides which qubits cross the memory hierarchy; its
 * program may come from any registered generator or a parsed
 * text-format circuit — the engine only sees the instruction DAG.
 * Borrows the compiled DAG and schedule tables (rebuilding the
 * tables only when config.latency differs from the compiled model).
 * Panics on a malformed config (zero capacity or channels); validate
 * specs at the api layer for recoverable diagnostics. A non-null
 * @p slack receives the run's channel and bank slack.
 */
TraceResult runTrace(const CompiledWorkload &compiled,
                     const TraceConfig &config,
                     const iontrap::Params &params,
                     TraceSlack *slack = nullptr);

/**
 * Set @p result's transfer_utilization and mem_utilization for a run
 * measured as @p slack, at @p transfers channels and @p banks banks.
 * runTrace() sets its own columns here, so a run replayed at other
 * counts reports what a fresh run at those counts would.
 */
void setUtilization(TraceResult &result, const TraceSlack &slack,
                    unsigned transfers, unsigned banks);

/**
 * Compile @p workload for this one run, then runTrace() it. Panics
 * on a cacheable mask of the wrong size as well.
 */
TraceResult runTrace(const circuit::Workload &workload,
                     const TraceConfig &config,
                     const iontrap::Params &params);

} // namespace trace
} // namespace qmh

#endif // QMH_TRACE_ENGINE_HH
