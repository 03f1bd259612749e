/**
 * @file
 * Component kernel for the discrete-event simulator.
 *
 * The EventQueue dispatches bare callables; everything above it in
 * the hierarchy stack is built from three small pieces modeled on
 * mgsim's component/port architecture (ParallelMemory/BankedMemory):
 *
 *  - Component: a named simulation object attached to one EventQueue.
 *    Components never share state across queues, so every simulation
 *    run stays an isolated, deterministic world.
 *
 *  - Port: a named service point owned by a component. A port has
 *    `width` identical servers, a *bounded* request deque, and an
 *    overflow queue that models backpressure to the requester: a
 *    submission that finds the buffer full waits outside the
 *    component and is admitted — in strict FIFO order — only when a
 *    slot frees. Requests in flight are parked in a flat store keyed
 *    by submission seq (the mgsim in-flight map, reduced to a reused
 *    vector) until their completion event fires. Arbitration is
 *    deterministic: same-tick submissions are served in submission
 *    order, never in hash or pointer order.
 *
 *  - TokenPool: a counted issue-width shared by several ports of one
 *    component (e.g. the memory ports in front of the banks). A port
 *    that cannot take a token parks itself in the pool's FIFO and is
 *    woken in parking order when a token returns.
 *
 * Every port keeps the contention statistics the honest-contention
 * models need: busy server-time, peak and time-weighted mean queue
 * occupancy, conflict-stall counts (requests whose service start was
 * delayed) and the total ticks those requests waited.
 */

#ifndef QMH_SIM_COMPONENT_HH
#define QMH_SIM_COMPONENT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/small_function.hh"
#include "event_queue.hh"

namespace qmh {
namespace sim {

/**
 * Completion callback for component requests. Small-buffer-optimized:
 * closures up to 48 bytes (a handful of pointers plus a claim record)
 * are stored inline; anything larger spills to the heap, so hot-path
 * callers keep their captures within the budget.
 */
using CompletionFn = common::SmallFunction<48>;

/** A named simulation object attached to one EventQueue. */
class Component
{
  public:
    Component(EventQueue &eq, std::string name);
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &queue() { return _eq; }
    Tick now() const { return _eq.now(); }

  private:
    EventQueue &_eq;
    std::string _name;
};

class Port;

/**
 * Busy fraction of @p servers servers over @p makespan ticks: @p busy
 * server-ticks / (makespan x servers), 0 when either is zero. The one
 * expression behind every utilization column, so a figure recomputed
 * from kept busy ticks is the figure the run itself reported.
 */
double busyFraction(Tick busy, Tick makespan, unsigned servers);

/**
 * A counted pool of issue tokens shared by the ports of one
 * component. Ports that find the pool empty park in FIFO order and
 * are woken — in that order — as tokens return.
 */
class TokenPool
{
  public:
    /** @param capacity concurrent tokens (must be nonzero) */
    explicit TokenPool(unsigned capacity);

    unsigned capacity() const { return _capacity; }
    unsigned inUse() const { return _in_use; }
    /** Most tokens ever held at once. */
    unsigned peakInUse() const { return _peak_in_use; }

  private:
    friend class Port;

    /** Take a token if one is free. */
    bool tryAcquire();

    /** Return a token and wake the longest-parked port. */
    void release();

    /** Park @p port until a token returns (idempotent). */
    void enlist(Port &port);

    unsigned _capacity;
    unsigned _in_use = 0;
    unsigned _peak_in_use = 0;
    std::deque<Port *> _waiters;
};

/**
 * A service point with @p width identical servers, a bounded request
 * buffer and deterministic FIFO arbitration.
 *
 * submit() places a request; when a server (and, if the port shares a
 * TokenPool, a token) is available the request is served for its
 * @p service ticks, then its completion callback runs. Requests are
 * always served in submission order. A submission that finds the
 * bounded buffer full waits in the overflow queue — the component's
 * backpressure to the requester — and both the occurrence and the
 * waiting time are counted.
 */
class Port
{
  public:
    /** Contention statistics of one port. */
    struct Stats
    {
        std::uint64_t requests = 0;   ///< submissions accepted
        std::uint64_t served = 0;     ///< completions delivered
        /** Requests whose service start was delayed (> 0 ticks). */
        std::uint64_t conflict_stalls = 0;
        /** Submissions that found the bounded buffer full. */
        std::uint64_t buffer_overflows = 0;
        Tick stall_ticks = 0;         ///< total queued waiting time
        Tick busy_ticks = 0;          ///< total server-time held
        /**
         * Max waiting (buffer+overflow). Zero exactly when every
         * submission took the uncontended fast path.
         */
        std::size_t peak_queue = 0;
        unsigned peak_in_service = 0; ///< most requests served at once
        double queue_integral = 0.0;  ///< time-weighted queued requests
    };

    /**
     * @param owner        component this port belongs to
     * @param name         port name (diagnostics only)
     * @param width        identical servers (must be nonzero)
     * @param buffer_limit bounded request-deque size (must be nonzero)
     * @param tokens       optional shared issue-width pool
     */
    Port(Component &owner, std::string name, unsigned width,
         std::size_t buffer_limit, TokenPool *tokens = nullptr);

    Port(const Port &) = delete;
    Port &operator=(const Port &) = delete;
    Port(Port &&) = delete;
    Port &operator=(Port &&) = delete;

    /**
     * Submit a request that holds one server for @p service ticks and
     * then invokes @p on_done (which may be empty for fire-and-forget
     * traffic such as writebacks).
     */
    void submit(Tick service, CompletionFn on_done);

    const std::string &name() const { return _name; }
    unsigned width() const { return _width; }
    std::size_t bufferLimit() const { return _buffer_limit; }

    /** Requests waiting to start (bounded buffer + overflow). */
    std::size_t queued() const
    {
        return _buffer.size() + _overflow.size();
    }

    /** Requests currently holding a server. */
    unsigned inService() const { return _in_service; }

    /** Requests awaiting their completion event (== inService()). */
    std::size_t inFlight() const { return _in_flight.size(); }

    const Stats &stats() const { return _stats; }

    /**
     * Busy fraction of total server capacity over @p makespan.
     * Returns 0 when the makespan (or the width) is zero — a port
     * that never ran has no utilization, not a division by zero.
     */
    double utilization(Tick makespan) const;

    /**
     * Time-weighted mean queue occupancy over @p makespan (0 when the
     * makespan is zero).
     */
    double meanQueue(Tick makespan) const;

  private:
    struct Request
    {
        Tick service;
        Tick submitted;
        std::uint64_t seq;
        CompletionFn on_done;
    };

    /** A started request parked until its completion event fires. */
    struct InFlight
    {
        std::uint64_t seq;
        CompletionFn on_done;
    };

    friend class TokenPool;

    /** Start as many queued requests as servers/tokens allow. */
    void pump();
    void startFront();
    void complete(std::uint64_t seq);
    void noteQueueChange();

    Component &_owner;
    std::string _name;
    unsigned _width;
    std::size_t _buffer_limit;
    TokenPool *_tokens;

    std::deque<Request> _buffer;    ///< bounded request deque
    std::deque<Request> _overflow;  ///< backpressured submissions
    /**
     * Started requests keyed by seq. The callback stays here — not in
     * the scheduled closure — so the completion event captures only
     * {port, seq} and always fits an inline arena frame. The vector's
     * capacity is reused across the run; lookup is by unique seq, so
     * its internal order is unobservable.
     */
    std::vector<InFlight> _in_flight;

    unsigned _in_service = 0;
    bool _parked = false;           ///< enlisted in the token pool
    std::uint64_t _next_seq = 0;
    Tick _last_queue_change = 0;
    Stats _stats;
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_COMPONENT_HH
