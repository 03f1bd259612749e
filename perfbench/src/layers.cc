/**
 * @file
 * Layer replays of the traced run. Each replay calls one module's
 * public entry points on the workload's own inputs, after the timed
 * job, with a span around every call (or every batch of calls too
 * short to time alone); a per-layer metric is its spans' self time
 * over the work items they cover.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "api/service.hh"
#include "api/workload.hh"
#include "bench.hh"
#include "cache/cache_sim.hh"
#include "circuit/dag.hh"
#include "common/units.hh"
#include "ecc/code.hh"
#include "net/transfer.hh"
#include "opt/result_cache.hh"
#include "sched/scheduler.hh"
#include "server/client.hh"
#include "sim/banked_memory.hh"
#include "sim/event_queue.hh"
#include "sim/transfer_channels.hh"
#include "trace/engine.hh"

namespace perfbench {

using namespace qmh;

CacheReplay
replayKeyStream(const std::vector<std::vector<std::string>> &key_stream,
                const server::SharedCacheConfig &shape,
                std::uint64_t base_seed, SpanRecorder *spans)
{
    server::SharedCache cache(base_seed, shape);
    CacheReplay out;
    for (std::size_t r = 0; r < key_stream.size(); ++r) {
        const auto &keys = key_stream[r];
        std::vector<std::string> misses;
        bool all_hit = true;
        {
            const int span =
                spans ? spans->open("server.cache_lookup", r, -1,
                                    keys.size())
                      : -1;
            for (const auto &key : keys) {
                if (cache.lookup(key))
                    continue;
                all_hit = false;
                // A key repeated within one request is simulated once.
                if (std::find(misses.begin(), misses.end(), key) ==
                    misses.end())
                    misses.push_back(key);
            }
            if (spans)
                spans->close(span);
        }
        {
            const int span =
                spans ? spans->open("server.cache_insert", r, -1,
                                    misses.size())
                      : -1;
            for (const auto &key : misses)
                cache.insert(key, opt::specSeed(base_seed, key),
                             {sweep::Cell(std::int64_t{0})});
            if (spans)
                spans->close(span);
        }
        out.simulated += misses.size();
        out.all_hit.push_back(all_hit);
        out.simulated_keys.push_back(std::move(misses));
    }
    out.stats = cache.stats();
    return out;
}

namespace {

/** Self time per item of every span called @p name, in @p scale units. */
double
perItem(const std::vector<Span> &spans, const std::vector<double> &self,
        const std::string &name, double scale)
{
    const auto total = totalByName(spans, self, name);
    return ratio(total.self_s, static_cast<double>(total.items)) * scale;
}

double
cellNumber(const std::vector<std::string> &columns,
           const std::vector<sweep::Cell> &row, const std::string &name)
{
    for (std::size_t i = 0; i < columns.size(); ++i)
        if (columns[i] == name)
            if (const auto v = row[i].asNumber())
                return *v;
    throw std::runtime_error("row has no numeric column " + name);
}

/** Cache traffic of one gate in program order. */
struct GateTraffic
{
    std::vector<std::uint64_t> fills;
    std::vector<std::uint64_t> writebacks;
};

/** Counters the trace-path replays accumulate over sample points. */
struct TraceTotals
{
    std::uint64_t gates = 0;
    std::uint64_t events = 0;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    double bank_conflicts = 0.0;
    double mem_stall_ticks = 0.0;
    double mem_requests = 0.0;
};

constexpr int build_repeats = 3;

void
replayTracePoint(const api::ExperimentSpec &spec, std::uint64_t seed,
                 SpanRecorder &spans, TraceTotals &totals, Report &report)
{
    // The row is the reference the replays must agree with.
    Random row_rng(seed);
    const auto experiment = api::makeExperiment(spec);
    const auto columns = experiment->columns();
    const auto row = experiment->run(row_rng);

    circuit::Workload workload;
    for (int r = 0; r < build_repeats; ++r) {
        Random rng(seed);
        ScopedSpan span(spans, "gen.build");
        workload = api::buildWorkload(spec, rng);
        span.setItems(workload.program.size());
    }
    const auto &program = workload.program;
    const std::uint64_t gates = program.size();
    for (int r = 0; r < build_repeats; ++r) {
        ScopedSpan span(spans, "circuit.dag", 0, -1, gates);
        const circuit::DependencyGraph dag(program);
    }
    const circuit::DependencyGraph dag(program);
    for (int r = 0; r < build_repeats; ++r) {
        ScopedSpan span(spans, "sched.flat", 0, -1, gates);
        const auto flat =
            sched::listSchedule(program, dag, sched::LatencyModel{},
                                spec.blocks);
        if (flat.start.size() != gates)
            report.fail("sched replay scheduled a partial program");
    }

    trace::TraceConfig config;
    config.code = spec.code;
    config.blocks = spec.blocks;
    config.transfers = spec.transfers;
    config.capacity =
        static_cast<std::size_t>(cellNumber(columns, row, "capacity"));
    config.mem_banks = spec.mem_banks;
    config.mem_ports = spec.mem_ports;
    config.mem_buffer = static_cast<std::size_t>(spec.mem_buffer);
    config.cycles_per_line = spec.cycles_per_line;
    const auto params = spec.params();
    trace::TraceResult result;
    // The row above filled runTrace's flat-baseline memo for this
    // program, so this span leaves out the flat schedule (sched.flat
    // times it) and keeps the DAG build and the simulation.
    {
        ScopedSpan span(spans, "trace.run", 0, -1, gates);
        result = trace::runTrace(workload, config, params);
    }
    if (static_cast<double>(result.events_executed) !=
        cellNumber(columns, row, "events_executed"))
        report.fail("trace replay of " + api::printSpec(spec) +
                    " diverged from its row");

    // Cache residency in program order; its traffic feeds the sim
    // replays below.
    cache::CacheState cache(config.capacity, workload.cacheable);
    std::vector<GateTraffic> traffic(gates);
    std::vector<circuit::QubitId> missing;
    std::vector<circuit::QubitId> evicted;
    {
        ScopedSpan span(spans, "cache.access", 0, -1, gates);
        for (std::size_t g = 0; g < gates; ++g) {
            cache.missingOperandsInto(program[g], missing);
            cache.accessInto(program[g], evicted);
            for (const auto q : missing)
                traffic[g].fills.push_back(q.value());
            for (const auto q : evicted)
                traffic[g].writebacks.push_back(q.value());
        }
    }

    const auto code = ecc::Code::byKind(spec.code);
    const Tick step1 = std::max<Tick>(
        1, units::secondsToTicks(code.gateStepTime(1, params)));
    const Tick per_transfer = std::max<Tick>(
        1, units::secondsToTicks(
               net::TransferNetwork(params).transferTime(
                   {spec.code, 2}, {spec.code, 1}) *
               code.transferChannelCost()));
    sim::BankedMemoryConfig bank_config;
    bank_config.banks = spec.mem_banks;
    bank_config.ports = spec.mem_ports;
    bank_config.buffer = static_cast<std::size_t>(spec.mem_buffer);
    bank_config.cycles_per_request = per_transfer;
    bank_config.cycles_per_line = spec.cycles_per_line;

    std::uint64_t requests = 0;
    std::uint64_t transfers = 0;
    for (const auto &gate : traffic) {
        requests += gate.fills.size() + gate.writebacks.size();
        transfers += gate.fills.size();
    }
    // Gate g issues its traffic at tick g * step1.
    {
        ScopedSpan span(spans, "sim.bank", 0, -1, requests);
        sim::EventQueue eq;
        sim::BankedMemory memory(eq, "replay", bank_config);
        for (std::size_t g = 0; g < gates; ++g)
            eq.schedule(g * step1, [&traffic, &memory, g] {
                for (const auto q : traffic[g].writebacks)
                    memory.request(q, 1, {});
                for (const auto q : traffic[g].fills)
                    memory.request(q, 1, {});
            });
        eq.run();
    }
    {
        ScopedSpan span(spans, "sim.channels", 0, -1, transfers);
        sim::EventQueue eq;
        sim::TransferChannels channels(eq, spec.transfers);
        for (std::size_t g = 0; g < gates; ++g)
            eq.schedule(g * step1,
                        [&traffic, &channels, per_transfer, g] {
                            for (std::size_t i = 0;
                                 i < traffic[g].fills.size(); ++i)
                                channels.transfer(per_transfer,
                                                  per_transfer, [] {});
                        });
        eq.run();
    }
    {
        const int span = spans.open("sim.events");
        sim::EventQueue eq;
        sim::BankedMemory memory(eq, "replay", bank_config);
        sim::TransferChannels channels(eq, spec.transfers);
        for (std::size_t g = 0; g < gates; ++g)
            eq.schedule(g * step1, [&traffic, &memory, &channels,
                                    per_transfer, g] {
                for (const auto q : traffic[g].writebacks)
                    memory.request(q, 1, {});
                for (const auto q : traffic[g].fills)
                    memory.request(q, 1, [&channels, per_transfer] {
                        channels.transfer(per_transfer, per_transfer,
                                          [] {});
                    });
            });
        eq.run();
        spans.close(span, eq.executed());
    }

    totals.gates += gates;
    totals.events += result.events_executed;
    totals.accesses += cache.accesses();
    totals.hits += cache.hits();
    totals.evictions += cache.evictions();
    totals.bank_conflicts += cellNumber(columns, row, "bank_conflicts");
    totals.mem_stall_ticks += cellNumber(columns, row, "mem_stall_ticks");
    totals.mem_requests += cellNumber(columns, row, "mem_requests");
}

/** Engines the sweeps never call are timed on these fixed points. */
const std::map<std::string, std::vector<std::string>> &
probePoints()
{
    static const std::map<std::string, std::vector<std::string>> probes = {
        {"hierarchy",
         {"experiment=hierarchy n=32 adders=40 transfers=2 blocks=9",
          "experiment=hierarchy n=32 adders=40 transfers=8 blocks=49",
          "experiment=hierarchy n=64 adders=40 transfers=4 blocks=16",
          "experiment=hierarchy n=16 adders=40 transfers=16 blocks=4"}},
        {"montecarlo",
         {"experiment=montecarlo trials=500 p0=0.0001",
          "experiment=montecarlo trials=500 p0=0.001",
          "experiment=montecarlo trials=500 p0=0.0005 code=bacon-shor",
          "experiment=montecarlo trials=500 p0=0.002 code=bacon-shor"}},
        {"bandwidth",
         {"experiment=bandwidth blocks=16",
          "experiment=bandwidth blocks=49 utilization=0.5",
          "experiment=bandwidth blocks=100 level=1",
          "experiment=bandwidth blocks=9 utilization=0.25"}},
    };
    return probes;
}

/** Time Experiment::run of up to @p limit points of @p kind. */
void
replayEngine(const LayerInputs &inputs, const std::string &kind,
             const std::string &span_name, int repeats, std::size_t limit,
             SpanRecorder &spans)
{
    std::vector<std::pair<api::ExperimentSpec, std::uint64_t>> points;
    for (std::size_t i = 0; i < inputs.points.size(); ++i)
        if (points.size() < limit &&
            api::kindName(inputs.points[i].kind) == kind)
            points.emplace_back(inputs.points[i], inputs.seeds[i]);
    if (points.empty())
        for (const auto &text : probePoints().at(kind))
            points.emplace_back(parseOrThrow(text), 1);
    for (const auto &[spec, seed] : points) {
        const auto experiment = api::makeExperiment(spec);
        const std::uint64_t items =
            kind == "montecarlo" ? spec.trials : 1;
        for (int r = 0; r < repeats; ++r) {
            Random rng(seed);
            ScopedSpan span(spans, span_name, 0, -1, items);
            experiment->run(rng);
        }
    }
}

/** Latency of a cached one-point bandwidth request on a fresh server. */
void
replayServerFloor(SpanRecorder &spans, Report &report)
{
    server::ServerConfig config;
    config.threads = 2;
    auto created = server::Server::create(config);
    if (!created.ok())
        throw std::runtime_error("server: " + created.error().describe());
    auto server = std::move(created).value();
    std::thread loop([raw = server.get()]() { raw->serve(); });
    {
        auto client = server::Client::connect("127.0.0.1", server->port());
        if (!client.ok()) {
            server->stop();
            loop.join();
            throw std::runtime_error("connect: " +
                                     client.error().describe());
        }
        const std::string line =
            "{\"id\":\"floor\",\"seed_mode\":\"spec\",\"specs\":"
            "[\"experiment=bandwidth blocks=16\"]}";
        for (int r = 0; r < 65; ++r) {
            // Request 0 fills the cache; the rest are served from it.
            const int span = r ? spans.open("server.floor", r) : -1;
            const auto records = client.value().request(line);
            if (span >= 0)
                spans.close(span);
            if (!records.ok() || records.value().size() != 3)
                report.fail("server floor request failed");
        }
    }
    server->stop();
    loop.join();
}

void
printSelfTimes(const std::vector<Span> &spans,
               const std::vector<double> &self)
{
    std::map<std::string, SpanTotal> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &total = by_name[spans[i].name];
        total.self_s += self[i];
        total.items += spans[i].items;
        ++total.count;
    }
    std::printf("%-22s %8s %12s %12s %14s\n", "span", "count", "items",
                "self_ms", "self_ns/item");
    for (const auto &[name, total] : by_name)
        std::printf("%-22s %8zu %12llu %12.3f %14.1f\n", name.c_str(),
                    total.count,
                    static_cast<unsigned long long>(total.items),
                    total.self_s * 1e3,
                    ratio(total.self_s, static_cast<double>(total.items)) *
                        1e9);
}

} // namespace

void
runLayerReplays(const LayerInputs &inputs, const RunOptions &options,
                SpanRecorder &spans, Report &report)
{
    // api: spec parse and per-point validation.
    constexpr int api_repeats = 4;
    std::vector<std::string> texts;
    for (const auto &spec : inputs.points)
        texts.push_back(api::printSpec(spec));
    for (int r = 0; r < api_repeats; ++r)
        for (const auto &text : texts) {
            ScopedSpan span(spans, "api.parse");
            if (!api::parseSpec(text).ok())
                report.fail("api replay: " + text + " does not parse");
        }
    for (int r = 0; r < api_repeats; ++r)
        for (const auto &spec : inputs.points) {
            ScopedSpan span(spans, "api.validate");
            if (!api::validateExperiments({spec}).ok())
                report.fail("api replay: " + api::printSpec(spec) +
                            " does not validate");
        }

    // gen, circuit, sched, trace, cache, sim on sample trace points.
    constexpr std::size_t trace_samples = 8;
    TraceTotals totals;
    std::size_t sampled = 0;
    for (std::size_t i = 0;
         i < inputs.points.size() && sampled < trace_samples; ++i)
        if (inputs.points[i].kind == api::ExperimentKind::Trace) {
            replayTracePoint(inputs.points[i], inputs.seeds[i], spans,
                             totals, report);
            ++sampled;
        }

    // service codec.
    constexpr std::size_t codec_samples = 256;
    for (std::size_t i = 0;
         i < std::min(codec_samples, inputs.request_lines.size()); ++i) {
        ScopedSpan span(spans, "service.decode");
        if (!api::parseServiceRequest(inputs.request_lines[i]).ok())
            report.fail("service replay: request line does not decode");
    }
    std::uint64_t record_bytes = 0;
    std::size_t records = 0;
    for (std::size_t i = 0;
         i < std::min(codec_samples, inputs.sample_rows.size()); ++i) {
        const auto &row = inputs.sample_rows[i];
        ScopedSpan span(spans, "service.record_row");
        record_bytes += api::recordRow("r", i, row.columns, row.cells).size();
        ++records;
    }

    // server: the key stream on a standalone SharedCache, and the floor.
    const auto replay = replayKeyStream(inputs.key_stream, inputs.cache_shape,
                                        inputs.cache_seed, &spans);
    replayServerFloor(spans, report);

    // Analytic engines.
    replayEngine(inputs, "hierarchy", "cqla.hierarchy", 2, 16, spans);
    replayEngine(inputs, "montecarlo", "ecc.montecarlo", 2, 16, spans);
    replayEngine(inputs, "bandwidth", "net.bandwidth", 50, 16, spans);

    const auto all = spans.spans();
    const auto self = selfTimes(all);
    const auto per = [&](const char *name, double scale) {
        return perItem(all, self, name, scale);
    };
    report.add("api.parse_us", per("api.parse", 1e6), "us");
    report.add("api.validate_us", per("api.validate", 1e6), "us");
    report.add("gen.build_ns_per_gate", per("gen.build", 1e9), "ns");
    report.add("circuit.dag_ns_per_gate", per("circuit.dag", 1e9), "ns");
    report.add("sched.flat_ns_per_gate", per("sched.flat", 1e9), "ns");
    report.add("trace.run_ns_per_gate", per("trace.run", 1e9), "ns");
    report.add("trace.ns_per_event",
               ratio(totalByName(all, self, "trace.run").self_s,
                     static_cast<double>(totals.events)) *
                   1e9,
               "ns");
    report.add("trace.events_per_gate",
               ratio(static_cast<double>(totals.events),
                     static_cast<double>(totals.gates)),
               "count");
    report.add("cache.access_ns", per("cache.access", 1e9), "ns");
    report.add("cache.hit_ratio",
               ratio(static_cast<double>(totals.hits),
                     static_cast<double>(totals.accesses)),
               "ratio");
    report.add("cache.evictions_per_gate",
               ratio(static_cast<double>(totals.evictions),
                     static_cast<double>(totals.gates)),
               "count");
    report.add("sim.bank_request_ns", per("sim.bank", 1e9), "ns");
    report.add("sim.channel_transfer_ns", per("sim.channels", 1e9), "ns");
    report.add("sim.eq_ns_per_event", per("sim.events", 1e9), "ns");
    report.add("sim.bank_conflicts_per_request",
               ratio(totals.bank_conflicts, totals.mem_requests), "count");
    report.add("sim.mem_stall_ticks_per_request",
               ratio(totals.mem_stall_ticks, totals.mem_requests), "ticks");
    report.add("service.decode_us", per("service.decode", 1e6), "us");
    report.add("service.record_row_us", per("service.record_row", 1e6),
               "us");
    report.add("service.bytes_per_row",
               ratio(static_cast<double>(record_bytes),
                     static_cast<double>(records)),
               "bytes");

    // Server-side ratios: the server's own totals when the workload ran
    // one, otherwise the replay of the workload's key stream.
    std::size_t hits = replay.stats.hits;
    std::size_t misses = replay.stats.misses;
    std::size_t evictions = replay.stats.evictions;
    std::size_t simulated = replay.simulated;
    std::size_t rows = 0;
    for (const auto &keys : inputs.key_stream)
        rows += keys.size();
    if (inputs.server_stats) {
        hits = inputs.server_stats->cache.hits;
        misses = inputs.server_stats->cache.misses;
        evictions = inputs.server_stats->cache.evictions;
        simulated = inputs.server_stats->simulated;
        rows = inputs.server_stats->rows;
    }
    report.add("server.cache_hit_ratio",
               ratio(static_cast<double>(hits),
                     static_cast<double>(hits + misses)),
               "ratio");
    report.add("server.simulated_per_row",
               ratio(static_cast<double>(simulated),
                     static_cast<double>(rows)),
               "ratio");
    report.add("server.cache_evictions_per_request",
               ratio(static_cast<double>(evictions),
                     static_cast<double>(inputs.key_stream.size())),
               "count");
    report.add("server.cache_lookup_us", per("server.cache_lookup", 1e6),
               "us");
    report.add("server.cache_insert_us", per("server.cache_insert", 1e6),
               "us");
    std::vector<double> floor_ms;
    for (const auto &span : all)
        if (span.name == "server.floor")
            floor_ms.push_back((span.end - span.start) * 1e3);
    report.add("server.floor_ms", median(floor_ms), "ms");
    report.add("cqla.hierarchy_us_per_point", per("cqla.hierarchy", 1e6),
               "us");
    report.add("ecc.mc_ns_per_trial", per("ecc.montecarlo", 1e9), "ns");
    report.add("net.bandwidth_us_per_point", per("net.bandwidth", 1e6),
               "us");

    printSelfTimes(all, self);
    if (!options.spans_out.empty()) {
        std::ofstream out(options.spans_out);
        out << chromeTrace(all);
        if (!out)
            report.fail("cannot write spans to " + options.spans_out);
        else
            std::printf("spans: %zu written to %s\n", all.size(),
                        options.spans_out.c_str());
    }
}

} // namespace perfbench
