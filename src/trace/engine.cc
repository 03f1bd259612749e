#include "engine.hh"

#include <algorithm>
#include <optional>
#include <vector>

#include "cache/cache_sim.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "net/transfer.hh"
#include "sim/banked_memory.hh"
#include "sim/event_queue.hh"
#include "sim/transfer_channels.hh"

namespace qmh {
namespace trace {

namespace {

/**
 * Gates computing now whose compute takes one number of ticks. Each
 * enters at now() + duration, now() never decreases, and its order
 * word comes from the event queue's rising sequence, so a lane is
 * sorted by (tick, order) as it fills: a FIFO ring in place of one
 * heap event per gate.
 */
struct CompletionLane
{
    struct Entry {
        sim::EventQueue::Key key;
        sched::IssueClaim claim;
    };

    std::uint32_t latency = 0;  ///< gate-steps of every gate in it
    Tick duration = 0;
    std::vector<Entry> ring{};  ///< power-of-two size once used
    std::size_t head = 0;
    std::size_t count = 0;

    const Entry &front() const { return ring[head]; }

    void
    push(const Entry &entry)
    {
        if (count == ring.size()) {
            // Full: unroll into a ring twice the size.
            std::vector<Entry> grown(std::max<std::size_t>(16, 2 * count));
            for (std::size_t i = 0; i < count; ++i)
                grown[i] = ring[(head + i) & (ring.size() - 1)];
            ring = std::move(grown);
            head = 0;
        }
        ring[(head + count) & (ring.size() - 1)] = entry;
        ++count;
    }

    Entry
    pop()
    {
        const Entry entry = ring[head];
        head = (head + 1) & (ring.size() - 1);
        --count;
        return entry;
    }
};

/**
 * Per-run issue pipeline state. Bundling it behind one pointer keeps
 * the fill callbacks handed to the banks and the channels down to
 * {context, claim} (20 bytes, inside their inline closure budgets),
 * and lets the per-gate scratch vectors (missing operands, eviction
 * victims, the claimed front) reuse their capacity across all gates
 * of the run. Gate completions never enter the event heap: they wait
 * in completion lanes that run() merges with it.
 */
struct EngineCtx
{
    const circuit::Program &program;
    sim::EventQueue &eq;
    sim::TransferChannels &channels;
    sim::BankedMemory &memory;
    cache::CacheState &cache;
    sched::IncrementalScheduler &scheduler;
    Tick step1;
    Tick per_transfer;

    // Transfers still outstanding before a claimed gate may compute,
    // by the block it claimed (unique among outstanding claims).
    std::vector<std::uint32_t> waiting{};
    std::uint64_t writebacks = 0;

    // Gates computing now, and the peak of that count over instants
    // (Fig. 2 at tick resolution). The count is sampled only when
    // time moves on, so every begin and end at one instant lands
    // before its sample: ends retire before starts at the same
    // instant. Zero-duration gates occupy no block time and are
    // skipped.
    std::uint32_t computing = 0;
    std::uint32_t peak_computing = 0;
    Tick instant = 0;

    // One lane per distinct gate latency of the run: at most one per
    // LatencyModel field plus zero-step barriers, found by a scan.
    std::vector<CompletionLane> lanes{};

    // Reused per-gate scratch.
    std::vector<sched::IssueClaim> front{};
    std::vector<circuit::QubitId> missing{};
    std::vector<circuit::QubitId> evicted{};

    void
    noteCompute(bool begins)
    {
        if (eq.now() != instant) {
            peak_computing = std::max(peak_computing, computing);
            instant = eq.now();
        }
        computing += begins ? 1 : -1;
    }

    CompletionLane &
    laneFor(std::uint32_t latency)
    {
        for (auto &lane : lanes)
            if (lane.latency == latency)
                return lane;
        auto &lane = lanes.emplace_back();
        lane.latency = latency;
        lane.duration = static_cast<Tick>(latency) * step1;
        return lane;
    }

    void
    beginCompute(const sched::IssueClaim &claimed)
    {
        auto &lane = laneFor(claimed.latency);
        if (lane.duration > 0)
            noteCompute(true);
        lane.push({{eq.now() + lane.duration, eq.reserveOrder()},
                   claimed});
    }

    /**
     * Dispatch the heap's events and the lanes' completions in one
     * (tick, priority, seq) order until both drain.
     */
    void
    run()
    {
        for (;;) {
            CompletionLane *next = nullptr;
            for (auto &lane : lanes)
                if (lane.count > 0 &&
                    (next == nullptr || lane.front().key < next->front().key))
                    next = &lane;
            if (next == nullptr || eq.topKey() < next->front().key) {
                if (!eq.step())
                    return;
                continue;
            }
            const auto done = next->pop();
            eq.dispatchExternal(done.key.when);
            if (next->duration > 0)
                noteCompute(false);
            scheduler.complete(done.claim);
            pump();
        }
    }

    /** Peak gates computing at once, once the run has drained. */
    std::uint32_t
    peakInFlight() const
    {
        return std::max(peak_computing, computing);
    }

    void
    issue(const sched::IssueClaim &claimed)
    {
        // Residency first: the missing set is what this issue pulls
        // through the memory banks and the transfer network. The same
        // pass counts hits/misses and brings the missing qubits in,
        // so a later gate touching an in-flight qubit hits (the fetch
        // is already on the wire — MSHR-style merging).
        cache.issueInto(program[claimed.index], missing, evicted);
        // Evicted qubits write back through their owning bank:
        // fire-and-forget traffic that still occupies bank time and
        // competes with fills for ports and buffer slots.
        for (const auto victim : evicted) {
            ++writebacks;
            memory.request(victim.value(), 1, {});
        }
        if (missing.empty()) {
            beginCompute(claimed);
            return;
        }
        if (claimed.block >= waiting.size())
            waiting.resize(claimed.block + 1);
        waiting[claimed.block] =
            static_cast<std::uint32_t>(missing.size());
        for (const auto qubit : missing) {
            // Fill: the owning bank serves the line, then the wire
            // carries it to level 1.
            memory.request(qubit.value(), 1, [this, claimed] {
                channels.transfer(
                    per_transfer, per_transfer, [this, claimed] {
                        if (--waiting[claimed.block] == 0)
                            beginCompute(claimed);
                    });
            });
        }
    }

    void
    pump()
    {
        // Batch-claim the whole ready front, then issue the claims
        // one at a time in claim order — the same decision sequence
        // (and therefore the same event order) as claiming one gate
        // per pop, without re-entering the scheduler per gate.
        front.clear();
        scheduler.claimBatch(front);
        for (const auto &claimed : front)
            issue(claimed);
    }
};

} // namespace

void
setUtilization(TraceResult &result, const TraceSlack &slack,
               unsigned transfers, unsigned banks)
{
    result.transfer_utilization =
        sim::busyFraction(slack.transfer_busy, slack.makespan, transfers);
    result.mem_utilization =
        sim::busyFraction(slack.mem_busy, slack.makespan, banks);
}

TraceResult
runTrace(const CompiledWorkload &compiled, const TraceConfig &config,
         const iontrap::Params &params, TraceSlack *slack)
{
    const auto &program = compiled.program();
    if (config.capacity == 0)
        qmh_fatal("trace: cache capacity must be nonzero");
    if (config.transfers == 0)
        qmh_fatal("trace: need at least one transfer channel");

    const auto m = static_cast<std::uint32_t>(program.size());
    TraceResult result;
    result.instructions = m;
    // An empty program runs nothing, so it waits for nothing.
    if (slack)
        *slack = {};

    const auto code = ecc::Code::byKind(config.code);

    // Flat baseline: the identical issue policy with every qubit at
    // level 2 — no cache, no transfers, only the slower step time.
    // Kept on the compiled workload, so every point of a sweep over
    // it with the same block count shares one schedule.
    const auto flat_makespan =
        compiled.flatMakespan(config.blocks, config.latency);
    result.baseline_s = static_cast<double>(flat_makespan) *
                        code.gateStepTime(2, params);
    if (m == 0)
        return result;

    // Tick-resolution costs. Per-step rounding keeps every gate's
    // duration an exact multiple of one step.
    const Tick step1 =
        units::secondsToTicks(code.gateStepTime(1, params));
    const net::TransferNetwork net(params);
    const Tick per_transfer = units::secondsToTicks(
        net.transferTime({config.code, 2}, {config.code, 1}) *
        code.transferChannelCost());

    sim::EventQueue eq;
    sim::TransferChannels channels(eq, config.transfers);
    sim::BankedMemoryConfig mem_config;
    mem_config.banks = config.mem_banks;
    mem_config.ports = config.mem_ports;
    mem_config.buffer = config.mem_buffer;
    // The bank holds the line for the transfer latency before the
    // wire takes over (never zero: the component charges real time).
    mem_config.cycles_per_request = std::max<Tick>(1, per_transfer);
    mem_config.cycles_per_line = config.cycles_per_line;
    sim::BankedMemory memory(eq, "l2-memory", mem_config);
    cache::CacheState cache(config.capacity,
                            compiled.workload().cacheable);
    std::optional<sched::ScheduleTables> other;
    const auto &tables =
        config.latency == compiled.latency()
            ? compiled.tables()
            : other.emplace(program, compiled.dag(), config.latency);
    sched::IncrementalScheduler scheduler(compiled.dag(), tables,
                                          config.blocks);

    EngineCtx ctx{program, eq, channels, memory, cache, scheduler,
                  step1, per_transfer};

    eq.schedule(0, [&ctx] { ctx.pump(); });
    ctx.run();

    if (!scheduler.finished())
        qmh_panic("trace deadlock: ",
                  scheduler.totalCount() - scheduler.claimedCount(),
                  " instructions never issued (cyclic DAG?)");

    const Tick makespan = eq.now();
    result.makespan_s = units::ticksToSeconds(makespan);
    result.speedup = result.makespan_s > 0.0
                         ? result.baseline_s / result.makespan_s
                         : 0.0;

    result.accesses = cache.accesses();
    result.hits = cache.hits();
    result.misses = cache.misses();
    result.evictions = cache.evictions();
    result.hit_rate = result.accesses
                          ? static_cast<double>(result.hits) /
                                static_cast<double>(result.accesses)
                          : 0.0;

    result.mem_requests = memory.requests();
    result.writebacks = ctx.writebacks;
    result.bank_conflicts = memory.bankConflicts();
    result.mem_stall_ticks = memory.stallTicks();
    result.mem_peak_queue = memory.peakQueue();
    result.mem_mean_queue = memory.meanQueue(makespan);

    TraceSlack measured;
    measured.makespan = makespan;
    measured.transfers_waited = channels.peakQueue() > 0;
    measured.peak_transfers = channels.peakInService();
    measured.transfer_busy = channels.busyTicks();
    measured.banks_waited = memory.peakQueue() > 0;
    measured.peak_banks = memory.peakInService();
    measured.mem_busy = memory.busyTicks();
    setUtilization(result, measured, config.transfers, config.mem_banks);
    if (slack)
        *slack = measured;

    result.blocks_used = scheduler.blocksUsed();

    // Every gate computes for latency * step1 ticks.
    const Tick busy = tables.busy_steps * step1;
    const double block_capacity =
        static_cast<double>(makespan) *
        static_cast<double>(result.blocks_used);
    result.block_utilization =
        block_capacity > 0.0 ? static_cast<double>(busy) / block_capacity
                             : 0.0;
    result.mean_in_flight =
        makespan > 0 ? static_cast<double>(busy) /
                           static_cast<double>(makespan)
                     : 0.0;
    result.peak_in_flight = ctx.peakInFlight();

    result.events_executed = eq.executed();
    return result;
}

TraceResult
runTrace(const circuit::Workload &workload, const TraceConfig &config,
         const iontrap::Params &params)
{
    return runTrace(CompiledWorkload(workload, config.latency), config,
                    params);
}

} // namespace trace
} // namespace qmh
