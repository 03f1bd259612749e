#include "cache_sim.hh"

#include "common/logging.hh"

namespace qmh {
namespace cache {

const char *
fetchPolicyName(FetchPolicy policy)
{
    switch (policy) {
      case FetchPolicy::InOrder:
        return "in-order";
      case FetchPolicy::OptimizedLookahead:
        return "optimized";
    }
    qmh_panic("unknown FetchPolicy");
}

QubitCache::QubitCache(std::size_t capacity) : _capacity(capacity)
{
    if (capacity == 0)
        qmh_fatal("QubitCache: capacity must be nonzero");
}

std::vector<circuit::QubitId>
QubitCache::residents() const
{
    std::vector<circuit::QubitId> out;
    out.reserve(_nodes.size());
    for (auto n = _head; n != npos; n = _nodes[n].next)
        out.push_back(_nodes[n].qubit);
    return out;
}

CacheState::CacheState(std::size_t capacity,
                       std::vector<bool> cacheable)
    : _cache(capacity), _cacheable(std::move(cacheable))
{
}

void
CacheState::resetCounters()
{
    _accesses = 0;
    _hits = 0;
    _misses = 0;
}

namespace {

/** Issue one instruction through the state, recording the order.
 * @p evicted is reused scratch: the drivers model no writebacks. */
void
issue(const circuit::Instruction &inst, CacheState &state,
      CacheSimResult &result, std::uint32_t index,
      std::vector<circuit::QubitId> &evicted)
{
    state.accessInto(inst, evicted);
    result.issue_order.push_back(index);
}

void
runInOrder(const circuit::Program &program, CacheState &state,
           CacheSimResult &result,
           std::vector<circuit::QubitId> &evicted)
{
    const auto &insts = program.instructions();
    for (std::uint32_t i = 0; i < insts.size(); ++i)
        issue(insts[i], state, result, i, evicted);
}

void
runOptimized(const circuit::Program &program, CacheState &state,
             CacheSimResult &result,
             std::vector<circuit::QubitId> &evicted)
{
    const auto &insts = program.instructions();
    const circuit::DependencyGraph dag(program);
    const auto m = static_cast<std::uint32_t>(insts.size());

    std::vector<int> remaining(m);
    std::vector<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < m; ++i) {
        remaining[i] = dag.inDegree(i);
        if (remaining[i] == 0)
            ready.push_back(i);
    }

    std::uint32_t issued = 0;
    while (issued < m) {
        if (ready.empty())
            qmh_panic("cache sim deadlock: ", m - issued,
                      " instructions blocked");
        // Greedy selection: most operands already cached; ties go to
        // the oldest instruction so progress matches program order.
        std::size_t best_pos = 0;
        int best_cached = -1;
        std::uint32_t best_index = 0;
        for (std::size_t pos = 0; pos < ready.size(); ++pos) {
            const auto idx = ready[pos];
            int cached = 0;
            int relevant = 0;
            for (const auto &q : insts[idx].operands()) {
                if (!state.isCacheable(q))
                    continue;
                ++relevant;
                cached += state.resident(q) ? 1 : 0;
            }
            // Normalize by arity: an instruction with all cacheable
            // operands resident beats one with some missing.
            const int missing = relevant - cached;
            const int score = 1000 * (missing == 0) + cached * 10 -
                              missing;
            if (best_cached < 0 || score > best_cached ||
                (score == best_cached && idx < best_index)) {
                best_cached = score;
                best_pos = pos;
                best_index = idx;
            }
        }

        const auto idx = ready[best_pos];
        ready[best_pos] = ready.back();
        ready.pop_back();
        issue(insts[idx], state, result, idx, evicted);
        ++issued;
        for (const auto s : dag.successors(idx)) {
            if (--remaining[s] == 0)
                ready.push_back(s);
        }
    }
}

} // namespace

CacheSimResult
simulateCache(const circuit::Program &program, std::size_t capacity,
              FetchPolicy policy, bool warm_start,
              const std::vector<bool> &cacheable)
{
    if (!cacheable.empty() &&
        cacheable.size() != static_cast<std::size_t>(program.qubitCount()))
        qmh_fatal("simulateCache: cacheable mask size ", cacheable.size(),
                  " != qubit count ", program.qubitCount());
    CacheState state(capacity, cacheable);
    CacheSimResult result;
    result.policy = policy;
    result.capacity = capacity;

    std::vector<circuit::QubitId> evicted;
    for (int pass = warm_start ? 0 : 1; pass < 2; ++pass) {
        state.resetCounters();
        result.issue_order.clear();
        if (policy == FetchPolicy::InOrder)
            runInOrder(program, state, result, evicted);
        else
            runOptimized(program, state, result, evicted);
    }
    result.accesses = state.accesses();
    result.hits = state.hits();
    result.misses = state.misses();
    result.evictions = state.evictions();
    return result;
}

} // namespace cache
} // namespace qmh
