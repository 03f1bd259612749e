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

bool
CompiledWorkload::KeptRun::covers(unsigned to_transfers,
                                  unsigned to_banks) const
{
    const bool channels =
        to_transfers == transfers ||
        (!slack.transfers_waited && slack.peak_transfers <= to_transfers);
    const bool memory =
        to_banks == banks ||
        (!slack.banks_waited &&
         (to_banks % banks == 0 || slack.peak_banks <= 1));
    return channels && memory;
}

TraceResult
CompiledWorkload::traceResult(const TraceConfig &config,
                              const iontrap::Params &params) const
{
    if (config.capacity == 0 || config.transfers == 0 ||
        config.mem_banks == 0)
        return runTrace(*this, config, params);
    auto key = config;
    key.capacity = std::min(config.capacity,
                            std::max<std::size_t>(1, footprint()));
    key.transfers = 0;
    key.mem_banks = 0;
    // The runs kept under (@p params, key); call with _run_mutex held.
    const auto kept = [&]() -> std::vector<KeptRun> & {
        for (auto &entry : _runs)
            if (entry.params == params)
                return entry.runs[key];
        return _runs.emplace_back(RunEntry{params, {}}).runs[key];
    };
    const auto covering = [&]() -> const KeptRun * {
        for (const auto &run : kept())
            if (run.covers(config.transfers, config.mem_banks))
                return &run;
        return nullptr;
    };
    {
        std::lock_guard<std::mutex> lock(_run_mutex);
        if (const auto *run = covering()) {
            auto result = run->result;
            setUtilization(result, run->slack, config.transfers,
                           config.mem_banks);
            return result;
        }
    }
    // Compute outside the lock: a racing duplicate is the same value.
    TraceSlack slack;
    const auto result = runTrace(*this, config, params, &slack);
    std::lock_guard<std::mutex> lock(_run_mutex);
    if (covering() == nullptr)
        kept().push_back(
            {config.transfers, config.mem_banks, result, slack});
    return result;
}

std::size_t
CompiledWorkload::keptRuns() const
{
    std::lock_guard<std::mutex> lock(_run_mutex);
    std::size_t count = 0;
    for (const auto &entry : _runs)
        for (const auto &[key, runs] : entry.runs)
            count += runs.size();
    return count;
}

} // namespace trace
} // namespace qmh
