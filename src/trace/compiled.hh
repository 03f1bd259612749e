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
 * Whole runs are kept the same way, each with its slack (TraceSlack):
 * whether any request waited for a transfer channel or a memory bank,
 * and the peak of each in use. A resource no request waited for
 * changed nothing with its spare units — the paper's speedup plateau
 * once bandwidth matches the parallelism a circuit can use (Figs.
 * 6a/6b) — so one kept run stands for every configuration it
 * provably replays event for event. traceResult() keys its memo on
 * the configuration without its channel and bank counts, with the
 * capacity clamped to the circuit's cacheable footprint (an LRU with
 * a slot for every qubit it caches never evicts). A run kept at T
 * channels and B banks covers T' channels and B' banks when both
 * hold:
 *
 *  - T' == T, or no transfer waited and the peak channels in use
 *    <= T' (every transfer still finds a channel free);
 *  - B' == B, or no bank request waited and either B divides B'
 *    (each bank of B' serves a subset of one bank of B) or at most
 *    one request was ever in service (every bank is idle on each
 *    arrival).
 *
 * A covered point returns the kept row with its transfer and memory
 * utilization recomputed from the kept busy ticks by setUtilization(),
 * the expression runTrace() itself uses. On perfbench's sweep-shared
 * grid this runs 14 simulations for 72 points: the capacity clamp
 * alone left 36.
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
     * runTrace(*this, @p config, @p params), served from a kept run
     * that covers @p config (file comment) or simulated and kept;
     * thread-safe. Configurations runTrace() refuses go straight to
     * it.
     */
    TraceResult traceResult(const TraceConfig &config,
                            const iontrap::Params &params) const;

    /** Runs traceResult() has kept so far, over every parameter set. */
    std::size_t keptRuns() const;

  private:
    struct FlatEntry
    {
        unsigned blocks;
        sched::LatencyModel latency;
        std::uint64_t makespan;
    };

    /** One simulated run and the slack that says what it covers. */
    struct KeptRun
    {
        unsigned transfers;
        unsigned banks;
        TraceResult result;
        TraceSlack slack;

        bool covers(unsigned transfers, unsigned banks) const;
    };

    /**
     * The kept runs under one parameter set, keyed by configuration
     * without transfers and mem_banks, capacity clamped.
     */
    struct RunEntry
    {
        iontrap::Params params;
        std::map<TraceConfig, std::vector<KeptRun>> runs;
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
    // are scanned; the configurations under each are many, and the
    // few channel and bank counts under each key are scanned.
    mutable std::mutex _run_mutex;
    mutable std::vector<RunEntry> _runs;
};

} // namespace trace
} // namespace qmh

#endif // QMH_TRACE_COMPILED_HH
