#include "component.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace qmh {
namespace sim {

Component::Component(EventQueue &eq, std::string name)
    : _eq(eq), _name(std::move(name))
{
}

double
busyFraction(Tick busy, Tick makespan, unsigned servers)
{
    const double capacity_ticks = static_cast<double>(makespan) *
                                  static_cast<double>(servers);
    return capacity_ticks > 0.0
               ? static_cast<double>(busy) / capacity_ticks
               : 0.0;
}

// ---------------------------------------------------------------------------
// TokenPool
// ---------------------------------------------------------------------------

TokenPool::TokenPool(unsigned capacity) : _capacity(capacity)
{
    if (capacity == 0)
        qmh_fatal("token pool must have nonzero capacity");
}

bool
TokenPool::tryAcquire()
{
    if (_in_use >= _capacity)
        return false;
    _peak_in_use = std::max(_peak_in_use, ++_in_use);
    return true;
}

void
TokenPool::release()
{
    if (_in_use == 0)
        qmh_panic("token pool: release without acquire");
    --_in_use;
    // Wake parked ports in parking order until one actually takes the
    // token (a parked port may have drained its queue meanwhile).
    while (!_waiters.empty() && _in_use < _capacity) {
        Port *next = _waiters.front();
        _waiters.pop_front();
        next->_parked = false;
        next->pump();
    }
}

void
TokenPool::enlist(Port &port)
{
    if (port._parked)
        return;
    port._parked = true;
    _waiters.push_back(&port);
}

// ---------------------------------------------------------------------------
// Port
// ---------------------------------------------------------------------------

Port::Port(Component &owner, std::string name, unsigned width,
           std::size_t buffer_limit, TokenPool *tokens)
    : _owner(owner), _name(std::move(name)), _width(width),
      _buffer_limit(buffer_limit), _tokens(tokens)
{
    if (width == 0)
        qmh_fatal("port '", _owner.name(), ".", _name,
                  "' must have nonzero width");
    if (buffer_limit == 0)
        qmh_fatal("port '", _owner.name(), ".", _name,
                  "' must have a nonzero buffer limit");
}

void
Port::submit(Tick service, CompletionFn on_done)
{
    ++_stats.requests;

    // Uncontended fast path: nothing queued, a service slot free and
    // a token in hand — start immediately without the buffer
    // round-trip. Observably identical to queue-then-pump: the
    // request would be popped right back in the same call, with zero
    // wait and zero queue occupancy either way.
    if (_buffer.empty() && _overflow.empty() && _in_service < _width &&
        (_tokens == nullptr || _tokens->tryAcquire())) {
        const auto seq = _next_seq++;
        _stats.peak_in_service =
            std::max(_stats.peak_in_service, ++_in_service);
        _stats.busy_ticks += service;
        // Park the callback in the in-flight store so the scheduled
        // closure is two words and never spills out of its arena
        // frame.
        _in_flight.push_back({seq, std::move(on_done)});
        _owner.queue().scheduleAfter(
            service, [this, seq] { complete(seq); });
        return;
    }

    Request request;
    request.service = service;
    request.submitted = _owner.now();
    request.seq = _next_seq++;
    request.on_done = std::move(on_done);

    noteQueueChange();
    if (_buffer.size() < _buffer_limit) {
        _buffer.push_back(std::move(request));
    } else {
        // Bounded buffer full: the request waits at the requester's
        // side of the port and is admitted FIFO when a slot frees.
        ++_stats.buffer_overflows;
        _overflow.push_back(std::move(request));
    }
    pump();
    // Peak is measured after the pump so an uncontended request that
    // went straight into service never counts as queue occupancy.
    _stats.peak_queue = std::max(_stats.peak_queue, queued());
}

void
Port::pump()
{
    while (_in_service < _width && !_buffer.empty()) {
        if (_tokens && !_tokens->tryAcquire()) {
            _tokens->enlist(*this);
            return;
        }
        startFront();
    }
}

void
Port::startFront()
{
    noteQueueChange();
    Request request = std::move(_buffer.front());
    _buffer.pop_front();
    if (!_overflow.empty()) {
        // A buffer slot freed: admit the longest-waiting overflow
        // request so overall service order stays submission order.
        _buffer.push_back(std::move(_overflow.front()));
        _overflow.pop_front();
    }

    const Tick waited = _owner.now() - request.submitted;
    if (waited > 0) {
        ++_stats.conflict_stalls;
        _stats.stall_ticks += waited;
    }
    _stats.peak_in_service =
        std::max(_stats.peak_in_service, ++_in_service);
    _stats.busy_ticks += request.service;

    // Park the callback in the in-flight store so the scheduled
    // closure is two words and never spills out of its arena frame.
    _in_flight.push_back({request.seq, std::move(request.on_done)});
    _owner.queue().scheduleAfter(
        request.service,
        [this, seq = request.seq] { complete(seq); });
}

void
Port::complete(std::uint64_t seq)
{
    CompletionFn on_done;
    for (auto &entry : _in_flight) {
        if (entry.seq == seq) {
            on_done = std::move(entry.on_done);
            entry = std::move(_in_flight.back());
            _in_flight.pop_back();
            break;
        }
    }
    if (_in_service == 0)
        qmh_panic("port '", _owner.name(), ".", _name,
                  "': completion without a request in service");
    --_in_service;
    ++_stats.served;
    if (_tokens)
        _tokens->release();
    if (on_done)
        on_done();
    pump();
}

void
Port::noteQueueChange()
{
    const Tick now = _owner.now();
    _stats.queue_integral += static_cast<double>(queued()) *
                             static_cast<double>(now -
                                                 _last_queue_change);
    _last_queue_change = now;
}

double
Port::utilization(Tick makespan) const
{
    return busyFraction(_stats.busy_ticks, makespan, _width);
}

double
Port::meanQueue(Tick makespan) const
{
    if (makespan == 0)
        return 0.0;
    // The integral is only maintained up to the last queue change;
    // after that the queue is whatever is still pending (usually 0 at
    // the end of a run).
    const double tail = static_cast<double>(queued()) *
                        static_cast<double>(makespan -
                                            std::min(makespan,
                                                     _last_queue_change));
    return (_stats.queue_integral + tail) /
           static_cast<double>(makespan);
}

} // namespace sim
} // namespace qmh
