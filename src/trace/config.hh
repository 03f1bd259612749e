/**
 * @file
 * The configuration and the measured outcome of one trace run
 * (trace/engine.hh runs it).
 */

#ifndef QMH_TRACE_CONFIG_HH
#define QMH_TRACE_CONFIG_HH

#include <compare>
#include <cstddef>
#include <cstdint>

#include "common/units.hh"
#include "ecc/code.hh"
#include "sched/latency.hh"

namespace qmh {
namespace trace {

/** Configuration of one trace run. */
struct TraceConfig
{
    ecc::CodeKind code = ecc::CodeKind::Steane713;
    /** Level-1 compute blocks (sched::unlimited_blocks = no cap). */
    unsigned blocks = 49;
    /** Parallel code-transfer channels. */
    unsigned transfers = 10;
    /** Level-1 cache capacity in logical qubits. */
    std::size_t capacity = 64;
    /** Level-2 memory banks (a qubit's fill hashes to id % banks). */
    unsigned mem_banks = 8;
    /** Concurrent memory requests in service across all banks. */
    unsigned mem_ports = 4;
    /** Bounded request-buffer depth per bank (backpressure beyond). */
    std::size_t mem_buffer = 8;
    /** Extra bank service ticks per line transferred. */
    Tick cycles_per_line = 0;
    /** Per-gate-kind latencies in gate-steps. */
    sched::LatencyModel latency{};

    /** Field-wise order: the memo key of CompiledWorkload::traceResult. */
    auto operator<=>(const TraceConfig &) const = default;
};

/** Measured outcomes of one trace run. */
struct TraceResult
{
    double makespan_s = 0.0;
    /** Flat level-2 execution of the same schedule (no transfers). */
    double baseline_s = 0.0;
    /** baseline / makespan; 0 on an empty program. */
    double speedup = 0.0;

    std::uint64_t instructions = 0;

    // Cache residency (cacheable operand touches).
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double hit_rate = 0.0;

    // Transfer network (one transfer per miss).
    double transfer_utilization = 0.0;

    // Banked level-2 memory (fills + writebacks; engine.cc header
    // comment explains the fill path).
    std::uint64_t mem_requests = 0;   ///< bank requests submitted
    std::uint64_t writebacks = 0;     ///< eviction writebacks among them
    /** Requests whose bank-service start was delayed by contention.
     * Structurally zero on an uncontended run. */
    std::uint64_t bank_conflicts = 0;
    Tick mem_stall_ticks = 0;         ///< total bank-queue waiting time
    std::size_t mem_peak_queue = 0;   ///< deepest single-bank queue
    double mem_mean_queue = 0.0;      ///< time-weighted mean queued
    double mem_utilization = 0.0;     ///< busy fraction of bank capacity

    // Compute blocks.
    unsigned blocks_used = 0;
    /** Compute-busy fraction of block-time: busy / (blocks * makespan). */
    double block_utilization = 0.0;
    /** Peak gates computing concurrently (Fig. 2 at tick resolution). */
    std::uint32_t peak_in_flight = 0;
    /** Time-weighted mean gates in flight. */
    double mean_in_flight = 0.0;

    std::uint64_t events_executed = 0;
};

} // namespace trace
} // namespace qmh

#endif // QMH_TRACE_CONFIG_HH
