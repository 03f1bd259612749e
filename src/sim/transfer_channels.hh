/**
 * @file
 * Counted code-transfer channels as a simulation component.
 *
 * A Component owning one Port whose width is the channel count: a
 * client requests a channel, holds it for the transfer's latency, and
 * the port tracks how much channel-time was kept busy so utilization
 * falls out of the makespan at the end. The port's request buffer is
 * bounded — submissions past the limit wait in the port's overflow
 * queue (deterministic backpressure) instead of growing an unbounded
 * FIFO — and the port's contention statistics (conflict stalls, stall
 * ticks, peak/mean queue occupancy) are surfaced directly.
 *
 * Shared by the abstract adder-stream hierarchy model
 * (cqla::runHierarchySim, paper Table 5) and the instruction-level
 * trace engine (trace/engine.hh) so the two charge transfer capacity
 * identically.
 */

#ifndef QMH_SIM_TRANSFER_CHANNELS_HH
#define QMH_SIM_TRANSFER_CHANNELS_HH

#include <cstdint>

#include "component.hh"
#include "event_queue.hh"

namespace qmh {
namespace sim {

/** A pool of parallel transfer channels with busy accounting. */
class TransferChannels : public Component
{
  public:
    /**
     * @param eq       event queue the component runs on
     * @param capacity parallel channels (port width, must be nonzero)
     * @param buffer   bounded request-buffer depth before submissions
     *                 spill to the backpressure overflow queue
     */
    TransferChannels(EventQueue &eq, unsigned capacity,
                     std::size_t buffer = 64);

    /**
     * Request one channel (FIFO when all are busy), hold it for
     * @p hold ticks once granted, then release it and invoke
     * @p on_done. @p busy ticks are charged to the busy accounting at
     * request time — a pipelined batch holds one channel for its wave
     * latency while keeping every wire of the batch busy, so the two
     * can legitimately differ (single transfers pass hold == busy).
     */
    void transfer(Tick hold, Tick busy, CompletionFn on_done);

    unsigned capacity() const { return _port.width(); }

    /** Transfers started so far. */
    std::uint64_t transfers() const { return _port.stats().requests; }

    /** Channel-time charged busy so far. */
    Tick busyTicks() const { return _busy; }

    /** Transfers whose channel grant was delayed by contention. */
    std::uint64_t conflicts() const
    {
        return _port.stats().conflict_stalls;
    }

    /** Total ticks transfers spent waiting for a channel. */
    Tick stallTicks() const { return _port.stats().stall_ticks; }

    /** Submissions that found the bounded buffer full. */
    std::uint64_t bufferOverflows() const
    {
        return _port.stats().buffer_overflows;
    }

    /** Highest queue occupancy the channel port reached. */
    std::size_t peakQueue() const { return _port.stats().peak_queue; }

    /** Most channels ever held at once. */
    unsigned peakInService() const
    {
        return _port.stats().peak_in_service;
    }

    /**
     * Time-weighted mean queued transfers over @p makespan (0 when
     * the makespan is zero).
     */
    double meanQueue(Tick makespan) const
    {
        return _port.meanQueue(makespan);
    }

    /**
     * Busy fraction of total channel capacity over @p makespan.
     * Returns 0 when makespan or capacity is zero — never a division
     * by zero.
     */
    double utilization(Tick makespan) const;

    /** The underlying channel port (introspection/tests). */
    const Port &port() const { return _port; }

  private:
    Port _port;
    Tick _busy = 0;
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_TRANSFER_CHANNELS_HH
