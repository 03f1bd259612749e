/**
 * @file
 * A workload compiled once for any number of trace runs.
 *
 * A design-space sweep runs a few fixed circuits at many hardware
 * points. Everything that depends only on the circuit — the program,
 * its dependency DAG, the scheduler's latency and critical-path
 * tables — is built once here and borrowed read-only by every
 * runTrace() over it, on any thread. The flat level-2 baseline
 * depends on the circuit plus (block count, latency model) alone, so
 * its makespan is computed on first request and kept on the object.
 *
 * Whole runs are kept the same way. A level-1 LRU with at least as
 * many slots as the circuit's cacheable footprint never evicts, so
 * every such capacity runs the identical simulation: traceResult()
 * keys its memo on the capacity clamped to the footprint, and a
 * sweep over capacities past the working set simulates once.
 */

#ifndef QMH_TRACE_COMPILED_HH
#define QMH_TRACE_COMPILED_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "circuit/dag.hh"
#include "circuit/workload.hh"
#include "iontrap/params.hh"
#include "sched/latency.hh"
#include "sched/scheduler.hh"
#include "trace/config.hh"

namespace qmh {
namespace trace {

/** An immutable workload with its DAG and schedule tables. */
class CompiledWorkload
{
  public:
    /**
     * Compile @p workload with schedule tables for @p latency. Panics
     * on a cacheable mask whose size is not the program's qubit count.
     */
    explicit CompiledWorkload(circuit::Workload workload,
                              const sched::LatencyModel &latency = {});

    CompiledWorkload(const CompiledWorkload &) = delete;
    CompiledWorkload &operator=(const CompiledWorkload &) = delete;

    const circuit::Workload &workload() const { return _workload; }
    const circuit::Program &program() const { return _workload.program; }
    const circuit::DependencyGraph &dag() const { return _dag; }

    /** The latency model tables() was built for. */
    const sched::LatencyModel &latency() const { return _latency; }
    const sched::ScheduleTables &tables() const { return _tables; }

    /**
     * Makespan in gate-steps of the list schedule of this program on
     * @p blocks compute blocks under @p latency — the flat baseline.
     * Computed on first request per (blocks, latency) and kept;
     * thread-safe.
     */
    std::uint64_t flatMakespan(unsigned blocks,
                               const sched::LatencyModel &latency) const;

    /**
     * Distinct operand qubits inside the cacheable mask: the most the
     * level-1 cache can ever hold of this program. Computed on first
     * request and kept; thread-safe.
     */
    std::size_t footprint() const;

    /**
     * runTrace(*this, @p config, @p params), computed on first request
     * per (config with capacity clamped to footprint(), params) and
     * kept; thread-safe. Capacities at or above the footprint never
     * evict, so they share one entry.
     */
    TraceResult traceResult(const TraceConfig &config,
                            const iontrap::Params &params) const;

  private:
    struct FlatEntry
    {
        unsigned blocks;
        sched::LatencyModel latency;
        std::uint64_t makespan;
    };

    /** The kept runs under one parameter set. */
    struct RunEntry
    {
        iontrap::Params params;
        std::map<TraceConfig, TraceResult> results;
    };

    circuit::Workload _workload;
    circuit::DependencyGraph _dag;
    sched::LatencyModel _latency;
    sched::ScheduleTables _tables;

    // A sweep asks for a handful of block counts, so a short vector
    // scanned under the lock is the whole memo.
    mutable std::mutex _flat_mutex;
    mutable std::vector<FlatEntry> _flat;

    mutable std::once_flag _footprint_once;
    mutable std::size_t _footprint = 0;

    // A batch runs one or two machine presets, so the parameter sets
    // are scanned; the configurations under each are many.
    mutable std::mutex _run_mutex;
    mutable std::vector<RunEntry> _runs;
};

} // namespace trace
} // namespace qmh

#endif // QMH_TRACE_COMPILED_HH
