/**
 * @file
 * Quantum cache simulator (paper Section 5.2, Fig. 7).
 *
 * The cache holds logical qubits at level-1 encoding next to the
 * level-1 compute region; memory holds them at level 2. An instruction
 * can only execute when its operands are cached; a miss costs a
 * code-transfer from memory. Replacement is least-recently-used.
 *
 * The residency state (LRU cache + cacheability mask + hit/miss
 * counters) lives in CacheState, steppable one instruction at a time,
 * so external engines — the trace engine's event-driven pipeline
 * (trace/engine.hh) in particular — can drive residency from their
 * own issue loop. simulateCache() keeps the whole-program driver with
 * its two fetch policies on top of that state:
 *
 *  - InOrder: issue the instruction stream as written (the paper
 *    measures ~20% hit rate on the Draper adder);
 *  - OptimizedLookahead: with static scheduling the fetch window is
 *    the whole program, so the simulator builds the dependency list
 *    and greedily issues the ready instruction with the most operands
 *    already cached (~85% in the paper, roughly independent of adder
 *    and cache size).
 */

#ifndef QMH_CACHE_CACHE_SIM_HH
#define QMH_CACHE_CACHE_SIM_HH

#include <cstdint>
#include <vector>

#include "circuit/dag.hh"
#include "circuit/program.hh"

namespace qmh {
namespace cache {

/** Instruction selection policy. */
enum class FetchPolicy {
    InOrder,
    OptimizedLookahead
};

/** Human-readable policy name. */
const char *fetchPolicyName(FetchPolicy policy);

/** Fully-associative LRU cache of logical qubits. */
class QubitCache
{
  public:
    explicit QubitCache(std::size_t capacity);

    /**
     * Access @p qubit: returns true on hit. On miss the qubit is
     * brought in, evicting the least-recently-used entry if full.
     * When @p evicted is non-null the victim (if any) is appended to
     * it, so engines can charge writeback traffic for what falls out.
     */
    bool touch(circuit::QubitId qubit,
               std::vector<circuit::QubitId> *evicted = nullptr);

    /** Non-mutating lookup. */
    bool contains(circuit::QubitId qubit) const;

    std::size_t capacity() const { return _capacity; }
    std::size_t size() const { return _nodes.size(); }
    std::uint64_t evictions() const { return _evictions; }

    /**
     * Resident qubits in recency order, most recent first. Read from
     * the LRU list — a deterministic function of the access history —
     * never from the unordered index, so persisting or printing the
     * residency set cannot leak hash-map layout.
     */
    std::vector<circuit::QubitId> residents() const;

  private:
    static constexpr std::uint32_t npos = ~0u;

    /** One resident qubit threaded into the recency list. */
    struct Node {
        circuit::QubitId qubit;
        std::uint32_t prev;
        std::uint32_t next;
    };

    void unlink(std::uint32_t n);
    void linkFront(std::uint32_t n);

    std::size_t _capacity;
    // Flat intrusive LRU: prev/next indices threaded through one node
    // array (MRU at _head), with a dense qubit-id -> node index map.
    // touch() is O(1) with zero allocation once the id map is sized;
    // eviction reuses the victim's node slot in place.
    std::vector<Node> _nodes;
    std::vector<std::uint32_t> _where;
    std::uint32_t _head = npos;
    std::uint32_t _tail = npos;
    std::uint64_t _evictions = 0;
};

/**
 * Steppable cache residency: the LRU cache, the per-qubit
 * cacheability mask and the access counters, decoupled from any
 * instruction-selection loop. Callers decide which instruction issues
 * next (a fetch policy, or the trace engine's list scheduler) and
 * step the state with accessInto().
 */
class CacheState
{
  public:
    /**
     * @param capacity cached logical qubits (must be nonzero)
     * @param cacheable per-qubit mask: qubits outside the mask are
     *        compute-block-local scratch that never crosses the
     *        memory hierarchy; empty means every qubit is cacheable
     */
    CacheState(std::size_t capacity, std::vector<bool> cacheable);

    /** True when @p qubit participates in the memory hierarchy. */
    bool
    isCacheable(circuit::QubitId qubit) const
    {
        return _cacheable.empty() || _cacheable[qubit.value()];
    }

    /** True when @p qubit is cacheable and currently resident. */
    bool
    resident(circuit::QubitId qubit) const
    {
        return isCacheable(qubit) && _cache.contains(qubit);
    }

    /**
     * Cacheable operands of @p inst not currently resident — the
     * transfers an issue of @p inst would trigger — into a
     * caller-owned scratch vector (cleared first), so per-gate issue
     * loops reuse capacity instead of allocating per instruction.
     * Non-mutating.
     */
    void missingOperandsInto(const circuit::Instruction &inst,
                             std::vector<circuit::QubitId> &out) const;

    /**
     * Issue @p inst against the cache: touch every cacheable operand,
     * counting hits and misses; missing operands are brought in
     * (evicting LRU entries when full). @p evicted (a caller-owned
     * scratch vector, cleared first) receives the qubits evicted by
     * this access, in eviction order — the writeback traffic the
     * issue generated. Callers that do not model writebacks may
     * ignore it.
     */
    void accessInto(const circuit::Instruction &inst,
                    std::vector<circuit::QubitId> &evicted);

    /**
     * missingOperandsInto() then accessInto() in one inline call, for
     * per-gate issue loops: @p missing receives the cacheable
     * operands not resident before the issue touched anything, and
     * @p evicted the qubits its touches evicted (both cleared first).
     */
    void issueInto(const circuit::Instruction &inst,
                   std::vector<circuit::QubitId> &missing,
                   std::vector<circuit::QubitId> &evicted);

    /** Reset the access counters, keeping residency (warm start). */
    void resetCounters();

    std::uint64_t accesses() const { return _accesses; }
    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    /** Cumulative evictions over the cache's whole lifetime. */
    std::uint64_t evictions() const { return _cache.evictions(); }

    const QubitCache &cache() const { return _cache; }

  private:
    QubitCache _cache;
    std::vector<bool> _cacheable;
    std::uint64_t _accesses = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

inline void
QubitCache::unlink(std::uint32_t n)
{
    const auto &node = _nodes[n];
    if (node.prev != npos)
        _nodes[node.prev].next = node.next;
    else
        _head = node.next;
    if (node.next != npos)
        _nodes[node.next].prev = node.prev;
    else
        _tail = node.prev;
}

inline void
QubitCache::linkFront(std::uint32_t n)
{
    auto &node = _nodes[n];
    node.prev = npos;
    node.next = _head;
    if (_head != npos)
        _nodes[_head].prev = n;
    else
        _tail = n;
    _head = n;
}

inline bool
QubitCache::touch(circuit::QubitId qubit,
                  std::vector<circuit::QubitId> *evicted)
{
    const auto id = qubit.value();
    if (id >= _where.size())
        _where.resize(id + 1, npos);
    auto n = _where[id];
    if (n != npos) {
        if (_head != n) {
            unlink(n);
            linkFront(n);
        }
        return true;
    }
    if (_nodes.size() >= _capacity) {
        // Evict the LRU entry and reuse its node slot in place.
        n = _tail;
        const auto victim = _nodes[n].qubit;
        _where[victim.value()] = npos;
        ++_evictions;
        if (evicted)
            evicted->push_back(victim);
        unlink(n);
        _nodes[n].qubit = qubit;
    } else {
        n = static_cast<std::uint32_t>(_nodes.size());
        _nodes.push_back({qubit, npos, npos});
    }
    _where[id] = n;
    linkFront(n);
    return false;
}

inline bool
QubitCache::contains(circuit::QubitId qubit) const
{
    return qubit.value() < _where.size() &&
           _where[qubit.value()] != npos;
}

inline void
CacheState::missingOperandsInto(const circuit::Instruction &inst,
                                std::vector<circuit::QubitId> &out) const
{
    out.clear();
    for (const auto &q : inst.operands())
        if (isCacheable(q) && !_cache.contains(q))
            out.push_back(q);
}

inline void
CacheState::accessInto(const circuit::Instruction &inst,
                       std::vector<circuit::QubitId> &evicted)
{
    evicted.clear();
    for (const auto &q : inst.operands()) {
        if (!isCacheable(q))
            continue;
        ++_accesses;
        if (_cache.touch(q, &evicted))
            ++_hits;
        else
            ++_misses;
    }
}

inline void
CacheState::issueInto(const circuit::Instruction &inst,
                      std::vector<circuit::QubitId> &missing,
                      std::vector<circuit::QubitId> &evicted)
{
    missingOperandsInto(inst, missing);
    accessInto(inst, evicted);
}

/** Result of a cache simulation run. */
struct CacheSimResult
{
    std::uint64_t accesses = 0;   ///< operand touches
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    FetchPolicy policy{};
    std::size_t capacity = 0;

    /** Order in which instructions were issued. */
    std::vector<std::uint32_t> issue_order;

    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * Run the cache simulation of @p program with a cache of
 * @p capacity logical qubits under @p policy.
 *
 * @param warm_start when true the program is run once beforehand to
 *        warm the cache (steady-state behaviour of repeated additions
 *        in modular exponentiation)
 * @param cacheable optional per-qubit mask: qubits outside the mask
 *        are compute-block-local scratch (Toffoli workspace, carry
 *        ancilla) that never crosses the memory hierarchy; empty means
 *        every qubit is cacheable
 */
CacheSimResult simulateCache(const circuit::Program &program,
                             std::size_t capacity, FetchPolicy policy,
                             bool warm_start = false,
                             const std::vector<bool> &cacheable = {});

} // namespace cache
} // namespace qmh

#endif // QMH_CACHE_CACHE_SIM_HH
