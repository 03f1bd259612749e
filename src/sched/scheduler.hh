/**
 * @file
 * Resource-constrained list scheduler.
 *
 * Maps a logical program onto B compute blocks (paper: one Toffoli, or
 * one cheaper gate, in flight per block). Critical-path priority with
 * event-driven issue. B = 0 means unlimited resources — the QLA
 * "sea-of-qubits" baseline where computation may happen anywhere.
 *
 * Three forms share one issue policy over one set of ScheduleTables
 * (per-gate latency and critical-path rank, computed once per program
 * and latency model):
 *  - listSchedule() runs the whole program against an internal
 *    completion clock and returns the batch ScheduleResult;
 *  - listScheduleMakespan() runs the same decisions but keeps only
 *    the makespan (the trace engine's flat baseline);
 *  - IncrementalScheduler exposes the same decisions as
 *    claimBatch()/complete() calls, one ready front at a time, so an
 *    external event loop (the trace engine's discrete-event pipeline,
 *    trace/engine.hh) can interleave issue with cache residency and
 *    transfer-network latency.
 *
 * roundSchedule() is a separate, round-synchronous policy (the paper's
 * QLA baseline); it needs no tables.
 *
 * Produces everything the evaluation needs: makespan, per-gate start
 * times and block assignments, the gates-in-flight profile (paper
 * Fig. 2), and block utilization (paper Fig. 6a).
 */

#ifndef QMH_SCHED_SCHEDULER_HH
#define QMH_SCHED_SCHEDULER_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "circuit/dag.hh"
#include "circuit/program.hh"
#include "latency.hh"

namespace qmh {
namespace sched {

/** Unlimited-resources marker for listSchedule(). */
constexpr unsigned unlimited_blocks = 0;

struct ScheduleTables;

/**
 * One maximal run of constant parallelism: @p in_flight gates are
 * executing over [begin, end). Segments tile the schedule span
 * contiguously, zero-valued gaps included.
 */
struct ProfileSegment
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint32_t in_flight = 0;

    bool operator==(const ProfileSegment &) const = default;
};

/**
 * Piecewise-constant gates-in-flight profile from per-gate start
 * times and durations, as segments over [0, @p span). O(n log n) in
 * the gate count and independent of the schedule length, so
 * huge-latency schedules (tick-resolution traces) never allocate a
 * slot per time step. Zero-duration entries (barriers) contribute
 * nothing.
 */
std::vector<ProfileSegment>
buildProfileSegments(const std::vector<std::uint64_t> &start,
                     const std::vector<std::uint64_t> &duration,
                     std::uint64_t span);

/** A computed schedule. */
struct ScheduleResult
{
    /** Total schedule length in gate-steps. */
    std::uint64_t makespan = 0;

    /** Issue time of each instruction, in gate-steps. */
    std::vector<std::uint64_t> start;

    /** Block each instruction ran on (0-based; unlimited mode packs). */
    std::vector<std::uint32_t> block;

    /** Sum over gates of their latency (block-steps of real work). */
    std::uint64_t busy_block_steps = 0;

    /** Number of blocks used (for unlimited mode: peak concurrency). */
    unsigned blocks_used = 0;

    /** Requested block count (0 = unlimited). */
    unsigned blocks_requested = 0;

    /**
     * Gates-in-flight profile as constant segments; O(gates log
     * gates), independent of the makespan. This is the parallelism
     * profile of Fig. 2 in its scalable form.
     */
    std::vector<ProfileSegment> inFlightSegments() const;

    /**
     * Gates in flight at each gate-step (size = makespan), expanded
     * densely from inFlightSegments(). O(makespan) memory — use the
     * segments directly for huge-latency schedules.
     */
    std::vector<std::uint32_t> inFlightProfile() const;

    /**
     * The same profile aggregated into windows of @p window steps
     * (mean gates in flight), matching the paper's Toffoli-slot axis.
     * Computed from segments: O(gates + makespan / window).
     */
    std::vector<double> windowedProfile(std::uint64_t window) const;

    /** Peak of the in-flight profile (from segments, O(gates log gates)). */
    std::uint32_t peakParallelism() const;

    /**
     * Fraction of block-steps doing real work:
     * busy / (blocks * makespan). Uses blocks_used when the schedule
     * was unlimited.
     */
    double utilization() const;

  private:
    friend ScheduleResult listSchedule(const circuit::DependencyGraph &,
                                       const ScheduleTables &,
                                       unsigned);
    friend ScheduleResult roundSchedule(const circuit::Program &,
                                        const LatencyModel &, unsigned);
    std::vector<std::uint32_t> _latency;  // per-gate, for profiles
};

/**
 * The read-only inputs of the issue policy for one program under one
 * latency model: per-gate latency, critical-path rank and the initial
 * ready front. Built once, then borrowed by any number of schedulers
 * (IncrementalScheduler, listSchedule, listScheduleMakespan) over the
 * same program, on any thread.
 */
struct ScheduleTables
{
    ScheduleTables(const circuit::Program &program,
                   const circuit::DependencyGraph &dag,
                   const LatencyModel &latency);

    /** Gate-step latency of each instruction. */
    std::vector<std::uint32_t> latency;

    /**
     * Critical-path rank of each instruction: any monotone
     * priority-descending mapping of the longest weighted path to a
     * sink (smaller = higher priority).
     */
    std::vector<std::uint32_t> rank;

    /**
     * Ready keys (readyKey()) of the zero in-degree instructions in
     * ascending order — already a valid min-heap.
     */
    std::vector<std::uint64_t> sources;

    /** Sum over all instructions of their latency. */
    std::uint64_t busy_steps = 0;

    /** Largest single-instruction latency. */
    std::uint32_t max_latency = 0;

    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(latency.size());
    }

    /**
     * Ready-set key of instruction @p index: priority first, program
     * position within a priority, in one packed integer.
     */
    std::uint64_t
    readyKey(std::uint32_t index) const
    {
        return (static_cast<std::uint64_t>(rank[index]) << 32) | index;
    }
};

/** One claimed instruction: what to run, where, and for how long. */
struct IssueClaim
{
    std::uint32_t index = 0;    ///< instruction position in the program
    std::uint32_t block = 0;    ///< compute block it occupies
    std::uint32_t latency = 0;  ///< gate-steps of compute
};

/**
 * The list scheduler's issue policy in incremental form. The caller
 * owns time: claimBatch() hands out the ready instructions, highest
 * priority first, while blocks are free; complete() retires one and
 * readies its dependents. Driving claim-front /
 * advance-to-next-completion / complete-in-(finish, index)-order
 * reproduces listSchedule() exactly (the batch function is
 * implemented on this class); an event-driven caller may instead hold
 * a claim through arbitrary stalls (operand fetch, transfer-network
 * queueing) before completing it.
 */
class IncrementalScheduler
{
  public:
    /**
     * Borrow @p dag and @p tables (both must outlive the scheduler):
     * only the per-run mutable state is allocated.
     */
    IncrementalScheduler(const circuit::DependencyGraph &dag,
                         const ScheduleTables &tables, unsigned blocks);

    /**
     * Claim every currently issuable instruction — the whole ready
     * front, highest priority first, program order within a priority,
     * bounded by free blocks in capped mode — appending to @p out,
     * each with the lowest free block. Claims never ready new
     * instructions; only complete() does. Returns the number claimed.
     */
    std::uint32_t claimBatch(std::vector<IssueClaim> &out);

    /** Retire a claim: frees its block and readies its dependents. */
    void complete(const IssueClaim &done);

    /** Instructions in the program. */
    std::uint32_t totalCount() const { return _total; }

    /** Instructions claimed so far. */
    std::uint32_t claimedCount() const { return _claimed; }

    /** Claims not yet completed. */
    std::uint32_t inFlight() const { return _in_flight; }

    /** True once every instruction has been claimed and completed. */
    bool finished() const { return _completed == _total; }

    /** True when no instruction is ready to claim right now. */
    bool readyEmpty() const { return _ready.empty(); }

    /**
     * Blocks in use by the schedule so far: the requested count in
     * capped mode, the peak concurrency in unlimited mode (equals
     * ScheduleResult::blocks_used after the final completion).
     */
    unsigned blocksUsed() const;

    /** Gate-step latency of instruction @p index. */
    std::uint32_t latencyOf(std::uint32_t index) const
    {
        return _tables->latency[index];
    }

    /** Sum over all instructions of their latency. */
    std::uint64_t busyBlockSteps() const { return _tables->busy_steps; }

  private:
    void pushReady(std::uint32_t index);
    std::uint32_t popReady();
    std::uint32_t allocBlock();
    void freeBlock(std::uint32_t block);

    std::uint32_t _total = 0;
    std::uint32_t _claimed = 0;
    std::uint32_t _completed = 0;
    std::uint32_t _in_flight = 0;
    unsigned _blocks = 0;
    bool _capped = false;
    unsigned _next_fresh_block = 0;
    unsigned _peak_in_flight = 0;

    const ScheduleTables *_tables = nullptr;
    // The DAG's successor adjacency in compressed-sparse-row form,
    // borrowed so claim/complete walk contiguous memory without a
    // per-run copy.
    const std::uint32_t *_succ_offset = nullptr;  // size _total + 1
    const std::uint32_t *_succ = nullptr;

    std::vector<int> _remaining;

    // Ready set: one min-heap of ScheduleTables::readyKey() values in
    // a single flat vector — no per-priority bucket allocation, one
    // heap operation per push/pop.
    std::vector<std::uint64_t> _ready;

    // Free block ids as a bitmask (bit b of word w = block 64w + b is
    // free): allocation takes the lowest set bit, so assignments are
    // deterministic and dense — the same smallest-id policy as a
    // min-heap, in O(1) for any realistic block count.
    // _first_free_word is a monotone scan hint (no free bits below
    // it); _free_count gates capped-mode claims.
    std::vector<std::uint64_t> _free_words;
    std::size_t _first_free_word = 0;
    std::uint32_t _free_count = 0;
};

/**
 * Schedule @p program onto @p blocks compute blocks
 * (unlimited_blocks = no resource constraint).
 */
ScheduleResult listSchedule(const circuit::Program &program,
                            const circuit::DependencyGraph &dag,
                            const LatencyModel &latency,
                            unsigned blocks);

/** Convenience overload building the DAG internally. */
ScheduleResult listSchedule(const circuit::Program &program,
                            const LatencyModel &latency,
                            unsigned blocks);

/** listSchedule() over prebuilt tables of the program behind @p dag. */
ScheduleResult listSchedule(const circuit::DependencyGraph &dag,
                            const ScheduleTables &tables,
                            unsigned blocks);

/**
 * listSchedule(...).makespan without the per-gate result arrays or
 * block ids: a completion wheel over the integer latencies, falling
 * back to listSchedule() when a latency is too large for the wheel.
 * Ready pops follow the same (rank, index) keys and every completion
 * at one instant retires before the next claim, so the makespan is
 * identical.
 */
std::uint64_t listScheduleMakespan(const circuit::DependencyGraph &dag,
                                   const ScheduleTables &tables,
                                   unsigned blocks);

/**
 * Round-synchronous schedule: instructions issue in the program's
 * structural rounds (program-order round formation — an instruction
 * joins the open round unless it conflicts with it) with a barrier
 * between rounds: every logical gate is followed by error correction
 * and operand routing, so rounds do not overlap. A round with more
 * gates than blocks issues in ceil(count / blocks) batches.
 *
 * The unlimited-resources makespan of this schedule is the
 * round-structural critical path the paper's QLA baseline executes
 * (Fig. 2's ~20-25 Toffoli slots for the 64-bit adder);
 * listSchedule() is the more aggressive overlapped mode used for
 * ablation studies.
 */
ScheduleResult roundSchedule(const circuit::Program &program,
                             const LatencyModel &latency,
                             unsigned blocks);

} // namespace sched
} // namespace qmh

#endif // QMH_SCHED_SCHEDULER_HH
