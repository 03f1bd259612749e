#include "compiled.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "trace/engine.hh"

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

std::size_t
CompiledWorkload::footprint() const
{
    std::call_once(_footprint_once, [this] {
        const auto &mask = _workload.cacheable;
        std::vector<bool> seen(
            static_cast<std::size_t>(program().qubitCount()));
        for (const auto &inst : program().instructions())
            for (const auto &q : inst.operands())
                if ((mask.empty() || mask[q.value()]) &&
                    !seen[q.value()]) {
                    seen[q.value()] = true;
                    ++_footprint;
                }
    });
    return _footprint;
}

TraceResult
CompiledWorkload::traceResult(const TraceConfig &config,
                              const iontrap::Params &params) const
{
    // Capacity 0 keeps its own key, so runTrace still refuses it.
    auto key = config;
    key.capacity = std::min(config.capacity,
                            std::max<std::size_t>(1, footprint()));
    // The runs kept under @p params; call with _run_mutex held.
    const auto results = [&]() -> std::map<TraceConfig, TraceResult> & {
        for (auto &entry : _runs)
            if (entry.params == params)
                return entry.results;
        return _runs.emplace_back(RunEntry{params, {}}).results;
    };
    {
        std::lock_guard<std::mutex> lock(_run_mutex);
        const auto &kept = results();
        if (const auto it = kept.find(key); it != kept.end())
            return it->second;
    }
    // Compute outside the lock: a racing duplicate is the same value.
    const auto result = runTrace(*this, config, params);
    std::lock_guard<std::mutex> lock(_run_mutex);
    results().emplace(key, result);
    return result;
}

} // namespace trace
} // namespace qmh
