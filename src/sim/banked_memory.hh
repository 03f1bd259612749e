/**
 * @file
 * Banked memory component: per-bank queueing, bounded buffers, a
 * shared port issue-width, and deterministic bank-conflict
 * accounting.
 *
 * This is the ported mgsim BankedMemory/ParallelMemory shape on the
 * component kernel (component.hh): a request for @p address hashes to
 * bank `address % banks`; each bank is a width-1 Port that serves one
 * request at a time for `cycles_per_request + cycles_per_line x
 * lines` ticks out of a bounded request deque. All banks share a
 * TokenPool of `ports` issue tokens — the pin/bus width between the
 * requesters and the banks — so at most `ports` requests are in
 * service at once however many banks exist. Full bank buffers apply
 * deterministic backpressure: the submission waits at the requester
 * and is admitted in strict FIFO order when a slot frees.
 *
 * Everything above the cache boundary reads its contention truth from
 * here: per-bank busy ticks, peak and time-weighted mean queue
 * occupancy, conflict-stall counts (requests whose service start was
 * delayed) and the total stall ticks. A run without contention —
 * enough banks, ports and buffer for the traffic — reports zero
 * conflict stalls, which tests pin.
 */

#ifndef QMH_SIM_BANKED_MEMORY_HH
#define QMH_SIM_BANKED_MEMORY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "component.hh"

namespace qmh {
namespace sim {

/** Static configuration of a BankedMemory. */
struct BankedMemoryConfig
{
    unsigned banks = 8;    ///< independent banks (address % banks)
    unsigned ports = 4;    ///< concurrent requests in service overall
    std::size_t buffer = 8;///< bounded request deque per bank
    /** Base service ticks charged to every request. */
    Tick cycles_per_request = 1;
    /** Additional service ticks per line transferred. */
    Tick cycles_per_line = 0;
};

/** Banked memory with bounded per-bank buffers and FIFO arbitration. */
class BankedMemory : public Component
{
  public:
    BankedMemory(EventQueue &eq, std::string name,
                 const BankedMemoryConfig &config);

    /**
     * Request @p lines lines at @p address; @p on_done (which may be
     * empty for fire-and-forget traffic such as writebacks) runs when
     * the owning bank completes the service.
     */
    void request(std::uint64_t address, unsigned lines,
                 CompletionFn on_done);

    unsigned banks() const
    {
        return static_cast<unsigned>(_banks.size());
    }
    unsigned ports() const { return _tokens.capacity(); }
    const BankedMemoryConfig &config() const { return _config; }

    /** Bank a request for @p address is served by. */
    unsigned
    bankOf(std::uint64_t address) const
    {
        return static_cast<unsigned>(address % _banks.size());
    }

    /** The bank port itself (stats, queue introspection). */
    const Port &bank(unsigned index) const { return *_banks[index]; }

    // --- aggregated contention statistics ---

    /** Requests submitted so far. */
    std::uint64_t requests() const;

    /** Requests completed so far. */
    std::uint64_t served() const;

    /** Requests whose service start was delayed by contention. */
    std::uint64_t bankConflicts() const;

    /** Submissions that found a bank buffer full (backpressure). */
    std::uint64_t bufferOverflows() const;

    /** Total ticks requests spent waiting for a bank to serve them. */
    Tick stallTicks() const;

    /** Total bank service time charged so far. */
    Tick busyTicks() const;

    /**
     * Highest queue occupancy any single bank reached: zero exactly
     * when every request found its bank idle and a port token free.
     */
    std::size_t peakQueue() const;

    /** Most requests in service at once across all banks. */
    unsigned peakInService() const { return _tokens.peakInUse(); }

    /**
     * Time-weighted mean queued requests across the whole memory over
     * @p makespan (0 when the makespan is zero).
     */
    double meanQueue(Tick makespan) const;

    /**
     * Busy fraction of total bank capacity over @p makespan (0 when
     * the makespan is zero — never a division by zero).
     */
    double utilization(Tick makespan) const;

  private:
    BankedMemoryConfig _config;
    TokenPool _tokens;
    // unique_ptr: Ports pin their address (scheduled completions
    // capture `this`), so the vector must never relocate them.
    std::vector<std::unique_ptr<Port>> _banks;
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_BANKED_MEMORY_HH
