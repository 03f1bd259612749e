#include "event_queue.hh"

#include "common/logging.hh"

namespace qmh {
namespace sim {

std::uint64_t
EventQueue::schedule(Tick when, Handler fn, Priority prio)
{
    if (!fn)
        qmh_panic("scheduling empty handler");
    return scheduleImpl(when, EventFn(std::move(fn)), prio);
}

void
EventQueue::siftUp(std::size_t hole, Entry x)
{
    while (hole > 0 && before(x, _heap[(hole - 1) / 2])) {
        _heap[hole] = _heap[(hole - 1) / 2];
        hole = (hole - 1) / 2;
    }
    _heap[hole] = x;
}

std::uint64_t
EventQueue::scheduleImpl(Tick when, EventFn fn, Priority prio)
{
    if (when < _now)
        qmh_panic("scheduling event in the past: when=", when,
                  " now=", _now);
    const auto biased =
        static_cast<std::uint64_t>(static_cast<int>(prio) + 128);
    if (biased > 0xff)
        qmh_panic("event priority out of range: ",
                  static_cast<int>(prio));
    const auto seq = _next_seq++;
    if ((seq >> seq_bits) != 0)
        qmh_panic("event sequence numbers exhausted");
    if (fn.heapAllocated())
        ++_spilled;
    Event *e = allocEvent();
    e->fn = std::move(fn);
    // New events usually dispatch after most pending ones, so the
    // sift stops after a compare or two.
    _heap.push_back({});
    siftUp(_heap.size() - 1, {when, biased << seq_bits | seq, e});
    return seq;
}

void
EventQueue::dispatchTop()
{
    const Entry top = _heap.front();
    const Entry last = _heap.back();
    _heap.pop_back();
    const auto n = _heap.size();
    if (n > 0) {
        // Floyd's pop: walk the hole down to a leaf along the earlier
        // child (a branch-free pick), then sift the old last entry up.
        std::size_t hole = 0;
        for (auto c = std::size_t{1}; c < n; c = 2 * hole + 1) {
            if (c + 1 < n)
                c += before(_heap[c + 1], _heap[c]);
            _heap[hole] = _heap[c];
            hole = c;
        }
        siftUp(hole, last);
    }
    _now = top.when;
    ++_executed;
    top.event->fn();
    recycle(top.event);
}

bool
EventQueue::step()
{
    if (_heap.empty())
        return false;
    dispatchTop();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (!_heap.empty() && _heap.front().when <= limit)
        dispatchTop();
    if (_now < limit && limit != max_tick)
        _now = limit;
    return _now;
}

EventQueue::Event *
EventQueue::allocEvent()
{
    if (_free == nullptr) {
        auto block = std::make_unique<Event[]>(block_events);
        for (auto i = block_events; i-- > 0;) {
            block[i].next_free = _free;
            _free = &block[i];
        }
        _blocks.push_back(std::move(block));
    }
    Event *e = _free;
    _free = e->next_free;
    return e;
}

void
EventQueue::recycle(Event *e)
{
    e->fn = EventFn{};
    e->next_free = _free;
    _free = e;
}

} // namespace sim
} // namespace qmh
