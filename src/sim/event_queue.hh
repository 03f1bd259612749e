/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The queue dispatches callables in (tick, priority, insertion-order)
 * order. Components schedule lambdas; there is deliberately no global
 * singleton queue — every simulation owns its own EventQueue so tests
 * and benches can run many independent simulations in one process.
 *
 * Internally the queue is one implicit binary min-heap:
 *
 *  - Event records live in a per-queue arena (blocks of frames strung
 *    on a free list), so steady-state scheduling performs no heap
 *    allocation. Handlers are stored in a small-buffer-optimized
 *    callable inline in the frame; closures beyond the inline budget
 *    spill to the heap and are counted (spilledHandlers()) so tests
 *    can pin the hot path to zero spills.
 *
 *  - Each heap entry carries its dispatch key inline — the tick and
 *    one word packing the priority above the insertion sequence
 *    number — next to a pointer to its arena frame, so sifting
 *    compares keys without touching the frames. Simulations keep few
 *    events pending (tens in a trace run), so the log-depth heap stays
 *    a few cache lines deep.
 *
 * Dispatch order is governed solely by the strict total order
 * (tick, priority, seq). Packing bounds the inputs: priorities must
 * lie in [-128, 127] and one queue accepts at most 2^56 schedule()
 * calls over its lifetime; both are checked, and a violation panics.
 */

#ifndef QMH_SIM_EVENT_QUEUE_HH
#define QMH_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/small_function.hh"
#include "common/units.hh"

namespace qmh {
namespace sim {

/** Dispatch priority for events scheduled at the same tick. */
enum class Priority : int {
    Stat = -10,    ///< sampled before any same-tick state change
    Default = 0,
    Late = 10      ///< runs after all Default events of the tick
};

/**
 * Time-ordered event queue. Events may schedule further events while
 * executing (including at the current tick).
 */
class EventQueue
{
  public:
    /** Inline closure budget per event frame, bytes. */
    static constexpr std::size_t event_inline_bytes = 64;

    using Handler = std::function<void()>;
    using EventFn = common::SmallFunction<event_inline_bytes>;

    /** Current simulation time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn at absolute time @p when (>= now()).
     * @return a monotonically increasing sequence id (for debugging).
     */
    std::uint64_t schedule(Tick when, Handler fn,
                           Priority prio = Priority::Default);

    /**
     * Schedule any callable at absolute time @p when (>= now()).
     * Closures up to event_inline_bytes are stored inline in the
     * arena frame; larger ones spill to the heap (counted).
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Handler> &&
                  std::is_invocable_v<std::decay_t<F> &>>>
    std::uint64_t
    schedule(Tick when, F &&fn, Priority prio = Priority::Default)
    {
        return scheduleImpl(when, EventFn(std::forward<F>(fn)), prio);
    }

    /** Schedule @p fn @p delay ticks after now(). */
    template <typename F>
    std::uint64_t
    scheduleAfter(Tick delay, F &&fn,
                  Priority prio = Priority::Default)
    {
        return schedule(_now + delay, std::forward<F>(fn), prio);
    }

    /** True when no events remain. */
    bool empty() const { return _heap.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return _heap.size(); }

    /** Execute the single next event; returns false if none remain. */
    bool step();

    /**
     * Run until the queue drains or simulated time would pass
     * @p limit. Returns the final simulation time.
     */
    Tick run(Tick limit = max_tick);

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Arena blocks allocated over the queue's lifetime. */
    std::size_t arenaBlocks() const { return _blocks.size(); }

    /** Event frames the arena can hold without growing. */
    std::size_t
    arenaCapacity() const
    {
        return _blocks.size() * block_events;
    }

    /** Handlers too large for the inline budget (heap spills). */
    std::uint64_t spilledHandlers() const { return _spilled; }

  private:
    /// Event frames per arena block.
    static constexpr std::size_t block_events = 128;
    /// Low bits of the packed order word holding the sequence number;
    /// the biased priority fills the top byte.
    static constexpr unsigned seq_bits = 56;

    /// An arena frame: the handler, and the free-list link when idle.
    struct Event {
        EventFn fn;
        Event *next_free = nullptr;
    };

    /// A pending event: its dispatch key inline, its frame by pointer.
    struct Entry {
        Tick when;
        std::uint64_t order;  ///< (priority + 128) << seq_bits | seq
        Event *event;
    };

    /// "a dispatches before b" under the (tick, priority, seq) order;
    /// bitwise, not short-circuit, so the compare stays branch-free.
    static bool
    before(const Entry &a, const Entry &b)
    {
        return (a.when < b.when) |
               ((a.when == b.when) & (a.order < b.order));
    }

    std::uint64_t scheduleImpl(Tick when, EventFn fn, Priority prio);
    /// Move @p x into the heap at or above the vacant slot @p hole.
    void siftUp(std::size_t hole, Entry x);
    void dispatchTop();
    Event *allocEvent();
    void recycle(Event *e);

    Tick _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _executed = 0;

    std::vector<Entry> _heap;  ///< pending events, min-heap by key

    std::vector<std::unique_ptr<Event[]>> _blocks;
    Event *_free = nullptr;
    std::uint64_t _spilled = 0;
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_EVENT_QUEUE_HH
