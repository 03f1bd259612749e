#include "transfer_channels.hh"

#include <utility>

namespace qmh {
namespace sim {

TransferChannels::TransferChannels(EventQueue &eq, unsigned capacity,
                                   std::size_t buffer)
    : Component(eq, "transfer-channels"),
      _port(*this, "wire", capacity, buffer)
{
}

void
TransferChannels::transfer(Tick hold, Tick busy, CompletionFn on_done)
{
    _busy += busy;
    _port.submit(hold, std::move(on_done));
}

double
TransferChannels::utilization(Tick makespan) const
{
    return busyFraction(_busy, makespan, capacity());
}

} // namespace sim
} // namespace qmh
