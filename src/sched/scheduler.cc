#include "scheduler.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

#include "common/logging.hh"

namespace qmh {
namespace sched {

namespace {

/** Completion-queue entry ordered by finish time. */
struct FinishEntry
{
    std::uint64_t finish;
    std::uint32_t index;
    std::uint32_t block;

    bool
    operator>(const FinishEntry &other) const
    {
        if (finish != other.finish)
            return finish > other.finish;
        return index > other.index;
    }
};

/** Push @p key onto the min-heap @p heap. */
void
heapPush(std::vector<std::uint64_t> &heap, std::uint64_t key)
{
    std::size_t i = heap.size();
    heap.push_back(key);
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (heap[parent] < key)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = key;
}

/**
 * Pop the smallest key of the non-empty min-heap @p heap. Ready keys
 * arrive in no predictable order, so the hole sinks to a leaf picking
 * the smaller child arithmetically (no branch to mispredict) and the
 * last key then rises into it. Keys are unique, so the pop sequence
 * is the one any min-heap gives.
 */
std::uint64_t
heapPop(std::vector<std::uint64_t> &heap)
{
    const auto top = heap.front();
    const auto last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0)
        return top;
    std::size_t i = 0;
    std::size_t child = 2;
    for (; child < n; child = 2 * i + 2) {
        child -= heap[child - 1] < heap[child] ? 1 : 0;
        heap[i] = heap[child];
        i = child;
    }
    if (child == n) {
        heap[i] = heap[n - 1];
        i = n - 1;
    }
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (heap[parent] < last)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = last;
    return top;
}

} // namespace

std::vector<ProfileSegment>
buildProfileSegments(const std::vector<std::uint64_t> &start,
                     const std::vector<std::uint64_t> &duration,
                     std::uint64_t span)
{
    if (start.size() != duration.size())
        qmh_panic("buildProfileSegments: ", start.size(),
                  " starts vs ", duration.size(), " durations");
    // Delta counting over the *distinct event times* only — never a
    // slot per time step, so tick-resolution traces with makespans in
    // the billions stay O(gates log gates).
    std::vector<std::pair<std::uint64_t, std::int32_t>> events;
    events.reserve(2 * start.size());
    for (std::size_t i = 0; i < start.size(); ++i) {
        if (duration[i] == 0)
            continue;  // barriers occupy no block time
        events.emplace_back(start[i], 1);
        events.emplace_back(start[i] + duration[i], -1);
    }
    std::sort(events.begin(), events.end());

    std::vector<ProfileSegment> segments;
    const auto emit = [&segments](std::uint64_t begin,
                                  std::uint64_t end,
                                  std::uint32_t in_flight) {
        // Maximal runs: extend the previous segment when the value
        // did not actually change at the boundary.
        if (!segments.empty() &&
            segments.back().in_flight == in_flight)
            segments.back().end = end;
        else
            segments.push_back({begin, end, in_flight});
    };
    std::uint64_t cursor = 0;
    std::int64_t current = 0;
    std::size_t e = 0;
    while (e < events.size()) {
        const auto when = events[e].first;
        if (when > cursor)
            emit(cursor, when, static_cast<std::uint32_t>(current));
        while (e < events.size() && events[e].first == when)
            current += events[e++].second;
        cursor = when;
    }
    if (current != 0)
        qmh_panic("buildProfileSegments: unbalanced profile (", current,
                  " gates never finish)");
    if (cursor < span)
        emit(cursor, span, 0);
    return segments;
}

std::vector<ProfileSegment>
ScheduleResult::inFlightSegments() const
{
    std::vector<std::uint64_t> duration(_latency.begin(), _latency.end());
    return buildProfileSegments(start, duration, makespan);
}

std::vector<std::uint32_t>
ScheduleResult::inFlightProfile() const
{
    std::vector<std::uint32_t> profile(makespan, 0);
    for (const auto &segment : inFlightSegments())
        for (std::uint64_t t = segment.begin;
             t < std::min(segment.end, makespan); ++t)
            profile[t] = segment.in_flight;
    return profile;
}

std::vector<double>
ScheduleResult::windowedProfile(std::uint64_t window) const
{
    if (window == 0)
        qmh_panic("windowedProfile: zero window");
    if (makespan == 0)
        return {};
    const auto windows =
        static_cast<std::size_t>((makespan + window - 1) / window);
    std::vector<double> sums(windows, 0.0);
    for (const auto &segment : inFlightSegments()) {
        if (segment.in_flight == 0 || segment.begin >= makespan)
            continue;
        const auto end = std::min(segment.end, makespan);
        for (auto w = segment.begin / window; w * window < end; ++w) {
            const auto lo = std::max(segment.begin, w * window);
            const auto hi = std::min(end, (w + 1) * window);
            sums[w] += static_cast<double>(segment.in_flight) *
                       static_cast<double>(hi - lo);
        }
    }
    std::vector<double> out(windows, 0.0);
    for (std::size_t w = 0; w < windows; ++w) {
        const auto base = static_cast<std::uint64_t>(w) * window;
        const auto width = std::min(window, makespan - base);
        out[w] = sums[w] / static_cast<double>(width);
    }
    return out;
}

std::uint32_t
ScheduleResult::peakParallelism() const
{
    std::uint32_t peak = 0;
    for (const auto &segment : inFlightSegments())
        peak = std::max(peak, segment.in_flight);
    return peak;
}

double
ScheduleResult::utilization() const
{
    const unsigned blocks =
        blocks_requested == unlimited_blocks ? blocks_used
                                             : blocks_requested;
    if (blocks == 0 || makespan == 0)
        return 0.0;
    return static_cast<double>(busy_block_steps) /
           (static_cast<double>(blocks) * static_cast<double>(makespan));
}

ScheduleTables::ScheduleTables(const circuit::Program &program,
                               const circuit::DependencyGraph &dag,
                               const LatencyModel &model)
{
    const auto &insts = program.instructions();
    const auto total = static_cast<std::uint32_t>(insts.size());
    // Gate kinds come in no predictable order; a per-kind table
    // avoids a mispredicted switch per instruction.
    std::array<std::uint32_t, 256> steps{};
    for (std::size_t kind = 0; kind < steps.size(); ++kind)
        steps[kind] = model.steps(static_cast<circuit::GateKind>(kind));
    latency.resize(total);
    for (std::uint32_t i = 0; i < total; ++i) {
        latency[i] = steps[static_cast<std::uint8_t>(insts[i].kind)];
        busy_steps += latency[i];
        max_latency = std::max(max_latency, latency[i]);
    }

    // Critical-path priority: longest weighted path to any sink. The
    // ready-set key only needs a monotone priority-descending rank,
    // not a dense one. Every priority is bounded by the total busy
    // steps, so when that fits 32 bits (any program the spec layer
    // admits) the priorities are computed in place in `rank` and
    // complemented — no sort, no per-instruction binary search. The
    // sort-based dense compression remains as the arbitrary-latency
    // fallback.
    const auto &succ_offset = dag.succOffsets();
    const auto &succ = dag.succEdges();
    const auto longestPaths = [&](auto &priority) {
        for (std::uint32_t i = total; i-- > 0;) {
            std::remove_reference_t<decltype(priority[0])> best = 0;
            for (auto e = succ_offset[i]; e < succ_offset[i + 1]; ++e)
                best = std::max(best, priority[succ[e]]);
            priority[i] = best + latency[i];
        }
    };
    rank.resize(total);
    if (busy_steps <= 0xffffffffull) {
        longestPaths(rank);
        for (auto &r : rank)
            r = ~r;
    } else {
        std::vector<std::uint64_t> priority(total, 0);
        longestPaths(priority);
        std::vector<std::uint64_t> distinct(priority);
        std::sort(distinct.begin(), distinct.end(), std::greater<>{});
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        for (std::uint32_t i = 0; i < total; ++i)
            rank[i] = static_cast<std::uint32_t>(
                std::lower_bound(distinct.begin(), distinct.end(),
                                 priority[i], std::greater<>{}) -
                distinct.begin());
    }

    for (std::uint32_t i = 0; i < total; ++i)
        if (dag.inDegree(i) == 0)
            sources.push_back(readyKey(i));
    std::sort(sources.begin(), sources.end());
}

IncrementalScheduler::IncrementalScheduler(
    const circuit::DependencyGraph &dag, const ScheduleTables &tables,
    unsigned blocks)
    : _total(tables.size()),
      _blocks(blocks),
      _capped(blocks != unlimited_blocks),
      _tables(&tables),
      _succ_offset(dag.succOffsets().data()),
      _succ(dag.succEdges().data()),
      _remaining(dag.inDegrees()),
      // Sorted ascending, the sources already form a valid min-heap.
      _ready(tables.sources)
{
    if (dag.size() != tables.size())
        qmh_panic("IncrementalScheduler: ", tables.size(),
                  "-gate tables for a ", dag.size(), "-gate DAG");
    if (_capped) {
        _free_words.assign((blocks + 63) / 64, 0);
        for (std::uint32_t b = 0; b < blocks; ++b)
            _free_words[b >> 6] |= std::uint64_t{1} << (b & 63);
        _free_count = blocks;
    }
}

void
IncrementalScheduler::pushReady(std::uint32_t index)
{
    heapPush(_ready, _tables->readyKey(index));
}

std::uint32_t
IncrementalScheduler::popReady()
{
    return static_cast<std::uint32_t>(heapPop(_ready) & 0xffffffffu);
}

std::uint32_t
IncrementalScheduler::allocBlock()
{
    while (_first_free_word < _free_words.size() &&
           _free_words[_first_free_word] == 0)
        ++_first_free_word;
    if (_first_free_word < _free_words.size()) {
        auto &word = _free_words[_first_free_word];
        const auto bit =
            static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        --_free_count;
        return static_cast<std::uint32_t>(_first_free_word * 64) + bit;
    }
    return _next_fresh_block++;
}

void
IncrementalScheduler::freeBlock(std::uint32_t block)
{
    const std::size_t word = block >> 6;
    if (word >= _free_words.size())
        _free_words.resize(word + 1, 0);
    _free_words[word] |= std::uint64_t{1} << (block & 63);
    _first_free_word = std::min(_first_free_word, word);
    ++_free_count;
}

std::optional<IssueClaim>
IncrementalScheduler::claim()
{
    if (_ready.empty())
        return std::nullopt;
    if (_capped && _free_count == 0)
        return std::nullopt;
    const auto index = popReady();
    ++_claimed;
    ++_in_flight;
    _peak_in_flight = std::max(_peak_in_flight, _in_flight);
    return IssueClaim{index, allocBlock(), _tables->latency[index]};
}

std::uint32_t
IncrementalScheduler::claimBatch(std::vector<IssueClaim> &out)
{
    std::uint32_t issued = 0;
    while (!_ready.empty() && !(_capped && _free_count == 0)) {
        const auto index = popReady();
        ++_claimed;
        ++_in_flight;
        _peak_in_flight = std::max(_peak_in_flight, _in_flight);
        out.push_back(IssueClaim{index, allocBlock(),
                                 _tables->latency[index]});
        ++issued;
    }
    return issued;
}

void
IncrementalScheduler::complete(const IssueClaim &done)
{
    if (_in_flight == 0)
        qmh_panic("IncrementalScheduler: complete() with nothing in "
                  "flight");
    --_in_flight;
    ++_completed;
    freeBlock(done.block);
    for (auto e = _succ_offset[done.index];
         e < _succ_offset[done.index + 1]; ++e) {
        const auto s = _succ[e];
        if (--_remaining[s] == 0)
            pushReady(s);
    }
}

unsigned
IncrementalScheduler::blocksUsed() const
{
    return _capped ? _blocks
                   : std::max<unsigned>(_peak_in_flight,
                                        _next_fresh_block);
}

ScheduleResult
listSchedule(const circuit::Program &program,
             const circuit::DependencyGraph &dag,
             const LatencyModel &latency, unsigned blocks)
{
    const ScheduleTables tables(program, dag, latency);
    return listSchedule(dag, tables, blocks);
}

ScheduleResult
listSchedule(const circuit::DependencyGraph &dag,
             const ScheduleTables &tables, unsigned blocks)
{
    const auto m = tables.size();

    ScheduleResult result;
    result.blocks_requested = blocks;
    result.start.assign(m, 0);
    result.block.assign(m, 0);
    IncrementalScheduler scheduler(dag, tables, blocks);
    result._latency = tables.latency;
    result.busy_block_steps = tables.busy_steps;
    if (m == 0)
        return result;

    std::priority_queue<FinishEntry, std::vector<FinishEntry>,
                        std::greater<>> running;
    std::uint64_t now = 0;
    std::vector<IssueClaim> front;

    while (!scheduler.finished()) {
        // Issue every ready gate a free block can take.
        front.clear();
        scheduler.claimBatch(front);
        for (const auto &claimed : front) {
            result.start[claimed.index] = now;
            result.block[claimed.index] = claimed.block;
            running.push({now + claimed.latency, claimed.index,
                          claimed.block});
        }

        if (running.empty()) {
            qmh_panic("scheduler deadlock: ",
                      scheduler.totalCount() - scheduler.claimedCount(),
                      " gates unscheduled (cyclic DAG?)");
        }

        // Advance to the next completion time and retire everything
        // finishing then.
        now = running.top().finish;
        while (!running.empty() && running.top().finish == now) {
            const auto done = running.top();
            running.pop();
            scheduler.complete(
                {done.index, done.block,
                 scheduler.latencyOf(done.index)});
        }
    }

    result.makespan = now;
    result.blocks_used = scheduler.blocksUsed();
    return result;
}

std::uint64_t
listScheduleMakespan(const circuit::DependencyGraph &dag,
                     const ScheduleTables &tables, unsigned blocks)
{
    const auto m = tables.size();
    if (dag.size() != m)
        qmh_panic("listScheduleMakespan: ", m, "-gate tables for a ",
                  dag.size(), "-gate DAG");
    if (m == 0)
        return 0;
    // Every in-flight gate finishes within max_latency steps of now,
    // so a wheel of more slots than that never aliases two instants.
    // Beyond a few thousand slots the wheel stops paying off.
    constexpr std::uint32_t max_wheel_latency = 4095;
    if (tables.max_latency > max_wheel_latency)
        return listSchedule(dag, tables, blocks).makespan;

    constexpr std::uint32_t none = 0xffffffffu;
    const std::uint64_t mask =
        std::bit_ceil(std::uint64_t{tables.max_latency} + 1) - 1;
    // Slot heads of intrusive lists threaded through `next`. The
    // order within one instant does not matter: all of them retire
    // before the next claim, and ready pops are ordered by key.
    std::vector<std::uint32_t> head(mask + 1, none);
    std::vector<std::uint32_t> next(m);
    std::vector<int> remaining = dag.inDegrees();
    std::vector<std::uint64_t> ready = tables.sources;
    const auto &succ_offset = dag.succOffsets();
    const auto &succ = dag.succEdges();

    const bool capped = blocks != unlimited_blocks;
    std::uint32_t free_blocks = blocks;
    std::uint32_t in_flight = 0;
    std::uint32_t completed = 0;
    std::uint64_t now = 0;
    for (;;) {
        // Claim the ready front while blocks are free.
        while (!ready.empty() && !(capped && free_blocks == 0)) {
            const auto index =
                static_cast<std::uint32_t>(heapPop(ready) & 0xffffffffu);
            free_blocks -= capped ? 1 : 0;
            ++in_flight;
            auto &slot = head[(now + tables.latency[index]) & mask];
            next[index] = slot;
            slot = index;
        }
        if (in_flight == 0)
            break;

        // Advance to the next completion instant and retire it.
        while (head[now & mask] == none)
            ++now;
        auto index = head[now & mask];
        head[now & mask] = none;
        while (index != none) {
            --in_flight;
            ++completed;
            free_blocks += capped ? 1 : 0;
            for (auto e = succ_offset[index]; e < succ_offset[index + 1];
                 ++e) {
                const auto s = succ[e];
                if (--remaining[s] == 0)
                    heapPush(ready, tables.readyKey(s));
            }
            index = next[index];
        }
    }
    if (completed != m)
        qmh_panic("scheduler deadlock: ", m - completed,
                  " gates unscheduled (cyclic DAG?)");
    return now;
}

ScheduleResult
listSchedule(const circuit::Program &program, const LatencyModel &latency,
             unsigned blocks)
{
    circuit::DependencyGraph dag(program);
    return listSchedule(program, dag, latency, blocks);
}

ScheduleResult
roundSchedule(const circuit::Program &program,
              const circuit::DependencyGraph &dag,
              const LatencyModel &latency, unsigned blocks)
{
    const auto &insts = program.instructions();
    const auto m = static_cast<std::uint32_t>(insts.size());

    ScheduleResult result;
    result.blocks_requested = blocks;
    result.start.assign(m, 0);
    result.block.assign(m, 0);
    result._latency.resize(m);
    for (std::uint32_t i = 0; i < m; ++i) {
        result._latency[i] = latency.steps(insts[i].kind);
        result.busy_block_steps += result._latency[i];
    }
    if (m == 0)
        return result;

    // Program-order round formation: an instruction joins the open
    // round unless one of its qubits was already touched in it (the
    // static compiler issues the algorithm's structural rounds as
    // written; it does not reorder across phases the way ASAP
    // levelling would).
    std::vector<std::vector<std::uint32_t>> rounds;
    {
        std::vector<std::int64_t> qubit_round(
            static_cast<std::size_t>(program.qubitCount()), -1);
        std::int64_t current = -1;
        for (std::uint32_t i = 0; i < m; ++i) {
            // An explicit barrier always opens a fresh round;
            // subsequent instructions fall into that round.
            bool conflict = current < 0 ||
                            insts[i].kind == circuit::GateKind::Barrier;
            for (const auto &q : insts[i].operands())
                conflict |= qubit_round[q.value()] == current;
            if (conflict) {
                ++current;
                rounds.emplace_back();
            }
            rounds.back().push_back(i);
            for (const auto &q : insts[i].operands())
                qubit_round[q.value()] = current;
        }
    }
    (void)dag;

    const bool capped = blocks != unlimited_blocks;
    std::uint64_t now = 0;
    unsigned widest_round = 0;

    for (const auto &round : rounds) {
        // The round's slot latency is its slowest gate (every gate is
        // followed by error correction before the barrier lifts).
        std::uint32_t slot = 0;
        for (const auto i : round)
            slot = std::max(slot, result._latency[i]);

        // Zero-latency instructions (barriers) pin to the round start
        // and do not consume block slots.
        unsigned count = 0;
        for (const auto i : round)
            count += result._latency[i] > 0 ? 1 : 0;
        widest_round = std::max(widest_round, count);
        const unsigned per_batch =
            capped ? blocks : std::max(1u, count);
        unsigned in_batch = 0;
        std::uint64_t batch_start = now;
        for (const auto i : round) {
            if (result._latency[i] == 0) {
                result.start[i] = now;
                result.block[i] = 0;
                continue;
            }
            if (in_batch == per_batch) {
                in_batch = 0;
                batch_start += slot;
            }
            result.start[i] = batch_start;
            result.block[i] = in_batch;
            ++in_batch;
        }
        const auto batches =
            std::max<unsigned>(1, (count + per_batch - 1) /
                                      std::max(1u, per_batch));
        now += count == 0 ? 0
                          : static_cast<std::uint64_t>(batches) * slot;
    }

    result.makespan = now;
    result.blocks_used = capped ? blocks : widest_round;
    return result;
}

ScheduleResult
roundSchedule(const circuit::Program &program, const LatencyModel &latency,
              unsigned blocks)
{
    circuit::DependencyGraph dag(program);
    return roundSchedule(program, dag, latency, blocks);
}

} // namespace sched
} // namespace qmh
