#include "compiled.hh"

#include <optional>
#include <utility>

#include "common/logging.hh"

namespace qmh {
namespace trace {

namespace {

circuit::Workload
checkedMask(circuit::Workload workload)
{
    if (!workload.cacheable.empty() &&
        workload.cacheable.size() !=
            static_cast<std::size_t>(workload.program.qubitCount()))
        qmh_fatal("trace: cacheable mask size ",
                  workload.cacheable.size(), " != qubit count ",
                  workload.program.qubitCount());
    return workload;
}

} // namespace

CompiledWorkload::CompiledWorkload(circuit::Workload workload,
                                   const sched::LatencyModel &latency)
    : _workload(checkedMask(std::move(workload))),
      _dag(_workload.program),
      _latency(latency),
      _tables(_workload.program, _dag, latency)
{
}

std::uint64_t
CompiledWorkload::flatMakespan(unsigned blocks,
                               const sched::LatencyModel &latency) const
{
    {
        std::lock_guard<std::mutex> lock(_flat_mutex);
        for (const auto &entry : _flat)
            if (entry.blocks == blocks && entry.latency == latency)
                return entry.makespan;
    }
    // Compute outside the lock: a racing duplicate is the same value.
    std::optional<sched::ScheduleTables> other;
    const auto &tables =
        latency == _latency
            ? _tables
            : other.emplace(_workload.program, _dag, latency);
    const auto makespan =
        sched::listScheduleMakespan(_dag, tables, blocks);
    std::lock_guard<std::mutex> lock(_flat_mutex);
    for (const auto &entry : _flat)
        if (entry.blocks == blocks && entry.latency == latency)
            return entry.makespan;
    _flat.push_back({blocks, latency, makespan});
    return makespan;
}

} // namespace trace
} // namespace qmh
