/** @file Trace-driven hierarchy engine tests: engine invariants,
 * text-format parity, and pickup by every spec-driven surface
 * (sweeps, sessions, the JSONL service, the cached runner). */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <type_traits>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/service.hh"
#include "api/session.hh"
#include "api/workload.hh"
#include "circuit/text_format.hh"
#include "opt/cached_sweep.hh"
#include "sched/scheduler.hh"
#include "sweep/sweep.hh"
#include "trace/compiled.hh"
#include "trace/engine.hh"

namespace qmh {
namespace trace {
namespace {

std::string
csvOf(const sweep::ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

api::Workload
draperWorkload(int n)
{
    Random rng(1);
    api::ExperimentSpec spec;
    spec.workload = "draper";
    spec.n = n;
    return api::buildWorkload(spec, rng);
}

TEST(TraceEngine, ReportsConsistentCounters)
{
    const auto workload = draperWorkload(32);
    TraceConfig config;
    config.blocks = 16;
    config.transfers = 4;
    config.capacity = 24;
    const auto result =
        runTrace(workload, config, iontrap::Params::future());

    EXPECT_EQ(result.instructions, workload.program.size());
    EXPECT_EQ(result.hits + result.misses, result.accesses);
    EXPECT_GT(result.accesses, 0u);
    EXPECT_GT(result.makespan_s, 0.0);
    EXPECT_GT(result.baseline_s, 0.0);
    EXPECT_DOUBLE_EQ(result.speedup,
                     result.baseline_s / result.makespan_s);
    EXPECT_DOUBLE_EQ(result.hit_rate,
                     static_cast<double>(result.hits) /
                         static_cast<double>(result.accesses));
    EXPECT_EQ(result.blocks_used, 16u);
    EXPECT_LE(result.peak_in_flight, 16u);
    EXPECT_GT(result.peak_in_flight, 0u);
    EXPECT_GT(result.mean_in_flight, 0.0);
    EXPECT_LE(result.block_utilization, 1.0 + 1e-9);
    EXPECT_LE(result.transfer_utilization, 1.0 + 1e-9);
    EXPECT_GT(result.events_executed, 0u);
}

TEST(TraceEngine, MoreChannelsAndCapacityNeverSlower)
{
    const auto workload = draperWorkload(64);
    TraceConfig starved;
    starved.blocks = 49;
    starved.transfers = 1;
    starved.capacity = 16;
    TraceConfig generous = starved;
    generous.transfers = 32;
    generous.capacity = 512;
    const auto params = iontrap::Params::future();
    const auto slow = runTrace(workload, starved, params);
    const auto fast = runTrace(workload, generous, params);
    EXPECT_LT(fast.makespan_s, slow.makespan_s);
    EXPECT_GE(fast.hit_rate, slow.hit_rate);
    // The flat baseline does not depend on cache or channels.
    EXPECT_DOUBLE_EQ(fast.baseline_s, slow.baseline_s);
}

TEST(TraceEngine, WholeProgramCachedMeansOnlyColdMisses)
{
    // Capacity >= qubit count: every miss is compulsory (first
    // touch), there are no evictions, and every later access hits.
    const auto workload = draperWorkload(16);
    TraceConfig config;
    config.blocks = 8;
    config.transfers = 4;
    config.capacity =
        static_cast<std::size_t>(workload.program.qubitCount());
    const auto result =
        runTrace(workload, config, iontrap::Params::future());
    EXPECT_EQ(result.evictions, 0u);
    // Cacheable qubits touched at least once = the compulsory misses.
    std::uint64_t cacheable = 0;
    for (const auto used : workload.cacheable)
        cacheable += used ? 1 : 0;
    EXPECT_LE(result.misses, cacheable);
}

TEST(TraceEngine, EmptyProgramIsAnEmptyRun)
{
    api::Workload workload;
    workload.program = circuit::Program("empty", 4);
    const auto result =
        runTrace(workload, TraceConfig{}, iontrap::Params::future());
    EXPECT_EQ(result.instructions, 0u);
    EXPECT_DOUBLE_EQ(result.makespan_s, 0.0);
    EXPECT_DOUBLE_EQ(result.speedup, 0.0);
}

TEST(TraceEngine, TextFormatCircuitMatchesGeneratorBuiltProgram)
{
    // A circuit that round-trips through the text format is the same
    // workload: parse -> run must reproduce the generator-built run
    // bit for bit.
    const auto original = draperWorkload(32);
    const auto text = circuit::writeText(original.program);
    const auto parsed = circuit::parseText(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;

    api::Workload from_text;
    from_text.program = parsed.program;
    from_text.cacheable = original.cacheable;
    from_text.pe_qubits = original.pe_qubits;

    TraceConfig config;
    config.blocks = 12;
    config.transfers = 3;
    config.capacity = 32;
    const auto params = iontrap::Params::future();
    const auto a = runTrace(original, config, params);
    const auto b = runTrace(from_text, config, params);

    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.baseline_s, b.baseline_s);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.transfer_utilization, b.transfer_utilization);
    EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
    EXPECT_EQ(a.mean_in_flight, b.mean_in_flight);
    EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(TraceExperimentApi, RowMatchesDirectEngineCall)
{
    // The facade is a veneer: a trace row must equal the engine's
    // result for the same config, text-format path included.
    const auto parsed = api::parseSpec(
        "experiment=trace workload=draper n=32 blocks=12 transfers=3 "
        "capacity=32");
    ASSERT_TRUE(parsed.ok());
    const auto table =
        api::runSpecSweep({parsed.spec}, {.threads = 1});

    TraceConfig config;
    config.blocks = 12;
    config.transfers = 3;
    config.capacity = 32;
    const auto direct = runTrace(draperWorkload(32), config,
                                 iontrap::Params::future());

    const auto speedup = table.findColumn("speedup");
    const auto hits = table.findColumn("hits");
    const auto events = table.findColumn("events_executed");
    ASSERT_TRUE(speedup && hits && events);
    EXPECT_EQ(table.cell(0, *speedup).asNumber().value(),
              direct.speedup);
    EXPECT_EQ(table.cell(0, *hits).toString(),
              std::to_string(direct.hits));
    EXPECT_EQ(table.cell(0, *events).toString(),
              std::to_string(direct.events_executed));
}

TEST(TraceExperimentApi, ValidateCatchesBadRanges)
{
    auto spec = api::parseSpec("experiment=trace").spec;
    spec.workload = "not-a-workload";
    EXPECT_FALSE(api::makeExperiment(spec)->validate().empty());
    spec = api::parseSpec("experiment=trace capacity_x=0").spec;
    EXPECT_FALSE(api::makeExperiment(spec)->validate().empty());
    spec = api::parseSpec("experiment=trace workload=draper n=16 "
                          "capacity_x=1e30")
               .spec;
    EXPECT_FALSE(api::makeExperiment(spec)->validate().empty());
    spec.capacity_x = 1000000;
    EXPECT_TRUE(api::makeExperiment(spec)->validate().empty());
    // The parser bounds transfers, but a C++-built spec can hold 0;
    // it must stay a typed diagnostic, not an engine fatal.
    spec = api::parseSpec("experiment=trace").spec;
    spec.transfers = 0;
    EXPECT_FALSE(api::makeExperiment(spec)->validate().empty());
    // Each generator's own minimum n: random needs three qubits.
    spec = api::parseSpec("experiment=trace workload=random n=2").spec;
    const auto errors = api::makeExperiment(spec)->validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors.front(), "trace: workload random needs n >= 3");
    spec.n = 3;
    EXPECT_TRUE(api::makeExperiment(spec)->validate().empty());
    spec = api::parseSpec("experiment=trace workload=qft n=2").spec;
    EXPECT_TRUE(api::makeExperiment(spec)->validate().empty());
    spec = api::parseSpec("experiment=trace").spec;
    EXPECT_TRUE(api::makeExperiment(spec)->validate().empty());
}

api::SpecGrid
traceGrid()
{
    api::SpecGrid grid;
    // The random workload makes rows seed-sensitive, so determinism
    // failures cannot hide behind a seed-independent experiment.
    grid.base = api::parseSpec(
                    "experiment=trace workload=random n=24 gates=300 "
                    "blocks=8 capacity=12")
                    .spec;
    grid.axis("transfers", {"1", "4"});
    grid.axis("capacity", {"8", "16"});
    grid.axis("code", {"steane", "bacon-shor"});
    return grid;
}

TEST(TraceSweep, BitIdenticalAcrossThreadCounts)
{
    const auto specs = traceGrid().expand();
    ASSERT_EQ(specs.size(), 8u);
    const auto serial =
        api::runSpecSweep(specs, {.threads = 1, .base_seed = 21});
    for (const unsigned threads : {2u, 4u, 8u}) {
        const auto parallel = api::runSpecSweep(
            specs, {.threads = threads, .base_seed = 21});
        EXPECT_EQ(csvOf(serial), csvOf(parallel))
            << threads << " threads diverged";
    }
    // Seed sensitivity: a different base seed must change the table.
    const auto other =
        api::runSpecSweep(specs, {.threads = 2, .base_seed = 22});
    EXPECT_NE(csvOf(serial), csvOf(other));
}

TEST(TraceSweep, CancelledSessionJobReturnsDeterministicPrefix)
{
    const auto specs = traceGrid().expand();
    const std::uint64_t seed = 33;
    const auto reference =
        api::runSpecSweep(specs, {.threads = 1, .base_seed = seed});

    api::Session session({.threads = 4, .base_seed = seed});
    auto submitted = session.submit(specs);
    ASSERT_TRUE(submitted.ok());
    auto job = submitted.value();
    for (int consumed = 0; consumed < 2; ++consumed)
        ASSERT_TRUE(job.nextRow().has_value());
    job.cancel();
    const auto result = job.wait();

    ASSERT_GE(result.completed, 2u);
    for (std::size_t r = 0; r < result.completed; ++r)
        for (std::size_t c = 0; c < result.table.columns(); ++c)
            EXPECT_EQ(result.table.cell(r, c).toString(),
                      reference.cell(r, c).toString())
                << "prefix row " << r << " diverged";
}

TEST(TraceSweep, CachedRunnerReplaysWarmRunWithZeroSimulations)
{
    const auto specs = traceGrid().expand();
    sweep::SweepRunner runner({.threads = 2, .base_seed = 5});
    opt::ResultCache cache;
    const auto cold = opt::runSpecSweepCached(runner, specs, &cache);
    EXPECT_EQ(cold.simulated, specs.size());
    const auto warm = opt::runSpecSweepCached(runner, specs, &cache);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cached, specs.size());
    EXPECT_EQ(csvOf(cold.table), csvOf(warm.table));
}

TEST(TraceService, SweepRequestStreamsRowsAndDone)
{
    api::Session session({.threads = 2});
    std::istringstream in(
        "{\"id\":\"t\",\"seed\":9,\"specs\":["
        "\"experiment=trace workload=draper n=16 blocks=4 "
        "transfers=2 capacity=16\","
        "\"experiment=trace workload=qft n=12 blocks=4 transfers=2 "
        "capacity=12\"]}\n");
    std::ostringstream out;
    api::runService(session, in, out);
    const auto output = out.str();
    EXPECT_NE(output.find("\"type\":\"accepted\",\"id\":\"t\","
                          "\"total\":2"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("\"type\":\"row\""), std::string::npos);
    EXPECT_NE(output.find("\"hit_rate\""), std::string::npos);
    EXPECT_NE(output.find("\"rows\":2,\"total\":2,"
                          "\"cancelled\":false"),
              std::string::npos)
        << output;
}

TEST(TraceErrors, UnknownWorkloadListsRegistryAndSuggests)
{
    // The typed Outcome path must make the mistake actionable: list
    // the registry and point at the nearest name.
    auto spec = api::parseSpec("experiment=trace").spec;
    spec.workload = "drapr";
    const auto outcome = api::validateExperiments({spec});
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, api::ErrorCode::InvalidSpec);
    ASSERT_EQ(outcome.error().details.size(), 1u);
    const auto &detail = outcome.error().details.front();
    EXPECT_NE(detail.find("unknown workload 'drapr'"),
              std::string::npos)
        << detail;
    EXPECT_NE(detail.find(
                  "draper, ripple, modexp, qft, random"),
              std::string::npos)
        << detail;
    EXPECT_NE(detail.find("did you mean 'draper'?"),
              std::string::npos)
        << detail;
}

TEST(TraceErrors, UnknownExperimentKindListsKindsAndSuggests)
{
    const auto parsed = api::parseSpec("experiment=tracee n=64");
    ASSERT_EQ(parsed.errors.size(), 1u);
    const auto &message = parsed.errors.front();
    EXPECT_NE(message.find("unknown experiment 'tracee'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("hierarchy, cache, bandwidth, montecarlo, "
                           "trace"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'trace'?"),
              std::string::npos)
        << message;
    // A name nothing like the vocabulary gets the list, no guess.
    const auto wild = api::parseSpec("experiment=zzzzzzzzz");
    ASSERT_EQ(wild.errors.size(), 1u);
    EXPECT_EQ(wild.errors.front().find("did you mean"),
              std::string::npos)
        << wild.errors.front();
}

TEST(TraceMemory, ConflictColumnIsZeroWithoutContention)
{
    // Structural zero, not luck: capacity >= qubit count means no
    // evictions (no writebacks), one bank per qubit means no two
    // concurrent fills share a bank, and ports cover every bank. The
    // conflict-stall column must be exactly zero on such a run.
    const auto workload = draperWorkload(16);
    const auto qubits = static_cast<unsigned>(
        workload.program.qubitCount());
    TraceConfig config;
    config.blocks = 8;
    config.transfers = 8;
    config.capacity = qubits;
    config.mem_banks = qubits;
    config.mem_ports = qubits;
    const auto result =
        runTrace(workload, config, iontrap::Params::future());
    EXPECT_GT(result.mem_requests, 0u);
    EXPECT_EQ(result.writebacks, 0u);
    EXPECT_EQ(result.bank_conflicts, 0u);
    EXPECT_EQ(result.mem_stall_ticks, 0u);
    EXPECT_EQ(result.mem_peak_queue, 0u);
}

TEST(TraceMemory, BankContentionSlowsTheRunAndIsCounted)
{
    // The acceptance pin for the banked path: the same workload under
    // a one-bank one-port memory runs measurably longer than under a
    // wide one, and the gap is visible in the conflict counters.
    const auto workload = draperWorkload(64);
    TraceConfig starved;
    starved.blocks = 16;
    starved.transfers = 8;
    starved.capacity = 16;  // small cache: misses and writebacks
    starved.mem_banks = 1;
    starved.mem_ports = 1;
    TraceConfig banked = starved;
    banked.mem_banks = 64;
    banked.mem_ports = 32;
    const auto params = iontrap::Params::future();
    const auto slow = runTrace(workload, starved, params);
    const auto fast = runTrace(workload, banked, params);

    EXPECT_LT(fast.makespan_s, slow.makespan_s);
    EXPECT_GT(slow.bank_conflicts, 0u);
    EXPECT_GT(slow.mem_stall_ticks, 0u);
    EXPECT_GT(slow.mem_peak_queue, 0u);
    EXPECT_GT(slow.writebacks, 0u);
    EXPECT_GT(slow.mem_requests, slow.writebacks);
    EXPECT_LT(fast.bank_conflicts, slow.bank_conflicts);
}

TEST(TraceMemoryApi, MemoryKnobsAndColumnsFlowThroughTheSpec)
{
    // One spec string drives every surface: the mem_* knobs must
    // reach the engine and the contention columns must round-trip the
    // engine's numbers untouched.
    const auto parsed = api::parseSpec(
        "experiment=trace workload=draper n=64 blocks=16 transfers=8 "
        "capacity=16 mem_banks=1 mem_ports=1");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.spec.mem_banks, 1u);
    EXPECT_EQ(parsed.spec.mem_ports, 1u);
    const auto table =
        api::runSpecSweep({parsed.spec}, {.threads = 1});

    TraceConfig config;
    config.blocks = 16;
    config.transfers = 8;
    config.capacity = 16;
    config.mem_banks = 1;
    config.mem_ports = 1;
    const auto direct = runTrace(draperWorkload(64), config,
                                 iontrap::Params::future());

    const auto banks = table.findColumn("mem_banks");
    const auto conflicts = table.findColumn("bank_conflicts");
    const auto stalls = table.findColumn("mem_stall_ticks");
    const auto writebacks = table.findColumn("writebacks");
    const auto mean_queue = table.findColumn("mem_mean_queue");
    ASSERT_TRUE(banks && conflicts && stalls && writebacks &&
                mean_queue);
    EXPECT_EQ(table.cell(0, *banks).toString(), "1");
    EXPECT_EQ(table.cell(0, *conflicts).toString(),
              std::to_string(direct.bank_conflicts));
    EXPECT_EQ(table.cell(0, *stalls).toString(),
              std::to_string(direct.mem_stall_ticks));
    EXPECT_EQ(table.cell(0, *writebacks).toString(),
              std::to_string(direct.writebacks));
    EXPECT_EQ(table.cell(0, *mean_queue).asNumber().value(),
              direct.mem_mean_queue);
    EXPECT_GT(direct.bank_conflicts, 0u);
    // The canonical spec cell reparses to the same knob values.
    const auto reparsed = api::parseSpec(
        table.cell(0, 0).toString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.spec.mem_banks, 1u);
    EXPECT_EQ(reparsed.spec.mem_ports, 1u);
}

TEST(TraceMemoryApi, ValidateCatchesBadMemoryKnobs)
{
    // A C++-built spec can hold zeros the parser would reject; the
    // facade must turn them into typed diagnostics, not engine
    // fatals, for both experiments that own a banked memory.
    for (const char *kind : {"trace", "hierarchy"}) {
        auto spec = api::parseSpec(std::string("experiment=") + kind)
                        .spec;
        spec.mem_banks = 0;
        EXPECT_FALSE(api::makeExperiment(spec)->validate().empty())
            << kind;
        spec = api::parseSpec(std::string("experiment=") + kind).spec;
        spec.mem_ports = 0;
        EXPECT_FALSE(api::makeExperiment(spec)->validate().empty())
            << kind;
        spec = api::parseSpec(std::string("experiment=") + kind).spec;
        spec.mem_buffer = 0;
        EXPECT_FALSE(api::makeExperiment(spec)->validate().empty())
            << kind;
    }
}

TEST(TraceGolden, MidSizeRunReproducesCheckedInRowExactly)
{
    // Golden-row determinism guard: the full CSV of a mid-size run —
    // every counter and every formatted double — is pinned against a
    // checked-in string, so *any* behavioral drift from a hot-path
    // data-structure swap fails loudly on its own, not only when it
    // happens to skew a 1-vs-N-thread comparison. The spec exercises
    // the whole pipeline: list-scheduler batching, cache misses and
    // evictions, bank contention (2 banks, 1 port) and transfer-
    // channel queueing.
    const auto parsed = api::parseSpec(
        "experiment=trace workload=draper n=48 blocks=16 transfers=4 "
        "capacity=40 mem_banks=2 mem_ports=1 mem_buffer=4");
    ASSERT_TRUE(parsed.errors.empty());
    const auto table =
        api::runSpecSweep({parsed.spec}, {.threads = 1, .base_seed = 9});
    const std::string golden =
        "spec,workload,n,blocks,transfers,capacity,mem_banks,"
        "mem_ports,makespan_s,baseline_s,speedup,accesses,hits,misses,"
        "evictions,hit_rate,transfer_utilization,mem_requests,"
        "writebacks,bank_conflicts,mem_stall_ticks,mem_peak_queue,"
        "mem_mean_queue,mem_utilization,block_utilization,"
        "peak_in_flight,mean_in_flight,events_executed,seed\n"
        "experiment=trace n=48 transfers=4 blocks=16 mem_banks=2 "
        "mem_ports=1 mem_buffer=4 capacity=40,draper,48,16,4,40,2,1,"
        "862.93227,123.31232999999999,0.1428991987980702,382,33,349,"
        "309,0.08638743455497382,0.1310531126620169,658,309,651,"
        "32053375620000,32,37.144717765624875,0.4941716225306999,"
        "0.0007917517385228855,12,0.012668027816366167,1354,"
        "12587370737594032228\n";
    EXPECT_EQ(csvOf(table), golden);
}

/** FNV-1a 64 over every field of @p r, doubles by bit pattern. */
std::uint64_t
mixResult(std::uint64_t hash, const TraceResult &r)
{
    const auto mix = [&hash](auto value) {
        std::uint64_t bits = 0;
        if constexpr (std::is_floating_point_v<decltype(value)>)
            bits = std::bit_cast<std::uint64_t>(value);
        else
            bits = static_cast<std::uint64_t>(value);
        for (int i = 0; i < 8; ++i) {
            hash ^= (bits >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    };
    mix(r.makespan_s);
    mix(r.baseline_s);
    mix(r.speedup);
    mix(r.instructions);
    mix(r.accesses);
    mix(r.hits);
    mix(r.misses);
    mix(r.evictions);
    mix(r.hit_rate);
    mix(r.transfer_utilization);
    mix(r.mem_requests);
    mix(r.writebacks);
    mix(r.bank_conflicts);
    mix(r.mem_stall_ticks);
    mix(r.mem_peak_queue);
    mix(r.mem_mean_queue);
    mix(r.mem_utilization);
    mix(r.blocks_used);
    mix(r.block_utilization);
    mix(r.peak_in_flight);
    mix(r.mean_in_flight);
    mix(r.events_executed);
    return hash;
}

TEST(TraceGolden, GridDigestIsPinned)
{
    // Every field of every run over a grid of circuits, capacities
    // (under pressure to past the footprint), channel, bank and block
    // counts, hashed into one pinned value. Kernel changes that must
    // keep rows byte-identical (event ordering, completion lanes, the
    // cache pass) fail here on any drift, eviction paths included.
    const auto params = iontrap::Params::future();
    std::uint64_t hash = 1469598103934665603ull;
    std::size_t runs = 0, evicting = 0, contended = 0;
    const auto sweep = [&](const circuit::Workload &workload,
                           const sched::LatencyModel &latency,
                           std::vector<double> capacity_x,
                           std::vector<unsigned> transfers,
                           std::vector<unsigned> banks,
                           std::vector<unsigned> blocks) {
        const CompiledWorkload compiled(workload);
        const auto pe = std::max<unsigned>(workload.pe_qubits, 4);
        for (const auto x : capacity_x)
            for (const auto t : transfers)
                for (const auto b : banks)
                    for (const auto k : blocks) {
                        TraceConfig config;
                        config.capacity = std::max<std::size_t>(
                            1, static_cast<std::size_t>(x * pe));
                        config.transfers = t;
                        config.mem_banks = b;
                        config.blocks = k;
                        config.latency = latency;
                        const auto r = runTrace(compiled, config, params);
                        hash = mixResult(hash, r);
                        ++runs;
                        evicting += r.evictions > 0;
                        contended += r.bank_conflicts > 0;
                    }
    };
    const std::vector<double> all_x = {0.25, 0.5, 1, 2};
    const std::vector<unsigned> all_t = {1, 2, 5};
    const std::vector<unsigned> all_b = {1, 2, 8};
    const std::vector<unsigned> all_k = {4, 16, 49,
                                         sched::unlimited_blocks};
    std::vector<circuit::Workload> workloads;
    for (const char *text : {"workload=random n=32 gates=600",
                             "workload=draper n=32",
                             "workload=qft n=24"}) {
        Random rng(5);
        workloads.push_back(api::buildWorkload(
            api::parseSpec(std::string("experiment=trace ") + text).spec,
            rng));
        sweep(workloads.back(), {}, all_x, all_t, all_b, all_k);
    }

    // Barriers (zero-duration gates) interleaved with real ones.
    const auto parsed = circuit::parseText(
        "name barriers\nqubits 6\nh q0\ncnot q0 q1\nbarrier\n"
        "toffoli q1 q2 q3\nx q4\nbarrier\nbarrier\nswap q3 q4\n"
        "cphase 3 q0 q2\nbarrier\nt q1\ncnot q5 q0\nbarrier\n"
        "toffoli q0 q4 q5\nh q2\n");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    workloads.push_back({parsed.program, {}, 4});
    sweep(workloads.back(), {}, all_x, all_t, all_b, all_k);

    // Two equal fields, and a Toffoli past the flat baseline's
    // completion wheel; then zero-step CNOTs.
    sched::LatencyModel odd;
    odd.single = 2;
    odd.cnot = 3;
    odd.cphase = 3;
    odd.swap = 5;
    odd.toffoli = 4096;
    sched::LatencyModel zero_cnot;
    zero_cnot.cnot = 0;
    for (const auto &latency : {odd, zero_cnot})
        for (const auto &workload : workloads)
            sweep(workload, latency, {0.25, 1}, {1, 5}, {1, 8},
                  {4, sched::unlimited_blocks});

    EXPECT_EQ(runs, 4 * 144u + 2 * 4 * 16u);
    // The grid reaches the eviction and bank-contention paths.
    EXPECT_GT(evicting, runs / 4);
    EXPECT_GT(contended, runs / 4);
    EXPECT_EQ(hash, 0x26bdda4d68eda79dull) << std::hex << hash;
}

TEST(TraceSweep, MemoryAxesAreBitIdenticalAcrossThreadCounts)
{
    // The mem knobs join the determinism contract: sweeping them over
    // a seed-sensitive workload must stay bit-identical however many
    // threads run the grid.
    api::SpecGrid grid;
    grid.base = api::parseSpec(
                    "experiment=trace workload=random n=24 gates=300 "
                    "blocks=8 capacity=12")
                    .spec;
    grid.axis("mem_banks", {"1", "8"});
    grid.axis("mem_ports", {"1", "4"});
    grid.axis("cycles_per_line", {"0", "3"});
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    const auto serial =
        api::runSpecSweep(specs, {.threads = 1, .base_seed = 17});
    for (const unsigned threads : {2u, 8u}) {
        const auto parallel = api::runSpecSweep(
            specs, {.threads = threads, .base_seed = 17});
        EXPECT_EQ(csvOf(serial), csvOf(parallel))
            << threads << " threads diverged";
    }
}

TEST(KindSweep, EveryExperimentKindIsBitIdenticalAcrossThreads)
{
    // The 1-vs-N contract holds for all five experiment kinds, not
    // just trace: each kind's small grid renders the same CSV from a
    // serial and a parallel run.
    const struct
    {
        const char *base;
        const char *axis;
    } kinds[] = {
        {"experiment=hierarchy n=64 adders=8 mem_banks=2 mem_ports=1",
         "blocks=4,9"},
        {"experiment=cache workload=random n=24 gates=300",
         "capacity=8,16"},
        {"experiment=bandwidth", "blocks=16,36"},
        {"experiment=montecarlo trials=500", "p0=0.001,0.01"},
        {"experiment=trace workload=random n=24 gates=300 blocks=8 "
         "capacity=12 mem_banks=1 mem_ports=1",
         "transfers=1,4"},
    };
    for (const auto &kind : kinds) {
        api::SpecGrid grid;
        grid.base = api::parseSpec(kind.base).spec;
        ASSERT_EQ(grid.addAxis(kind.axis), "") << kind.base;
        const auto specs = grid.expand();
        const auto serial = api::runSpecSweep(
            specs, {.threads = 1, .base_seed = 11});
        const auto wide = api::runSpecSweep(
            specs, {.threads = 4, .base_seed = 11});
        EXPECT_EQ(csvOf(serial), csvOf(wide)) << kind.base;
    }
}

TEST(TraceErrors, UnknownMemKnobSuggestsTheNearestKey)
{
    // Satellite of the banked-memory PR: a typo'd memory knob gets
    // the shared did-you-mean diagnostic, same as every other name
    // vocabulary in the api.
    const auto parsed = api::parseSpec("experiment=trace mem_bank=4");
    ASSERT_EQ(parsed.errors.size(), 1u);
    const auto &message = parsed.errors.front();
    EXPECT_NE(message.find("unknown spec key 'mem_bank'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("mem_banks"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'mem_banks'?"),
              std::string::npos)
        << message;
}

/** Every registry workload at a small size, a barrier-heavy text
 * circuit and an empty program. */
std::vector<std::pair<std::string, circuit::Program>>
flatPrograms()
{
    std::vector<std::pair<std::string, circuit::Program>> programs;
    for (const auto &name : api::workloadNames()) {
        api::ExperimentSpec spec;
        spec.workload = name;
        spec.n = 16;
        spec.gates = 400;
        spec.reps = 2;
        Random rng(3);
        programs.emplace_back(name, api::buildWorkload(spec, rng).program);
    }
    const auto parsed = circuit::parseText(
        "name barriers\nqubits 5\nh q0\ncnot q0 q1\nbarrier\n"
        "toffoli q1 q2 q3\nx q4\nbarrier\nbarrier\nswap q3 q4\n"
        "cphase 3 q0 q2\nbarrier\nt q1\n");
    EXPECT_TRUE(parsed.ok) << parsed.error;
    programs.emplace_back("barriers", parsed.program);
    programs.emplace_back("empty", circuit::Program("empty", 4));
    return programs;
}

TEST(FlatBaseline, MakespanOnlyLoopMatchesListSchedule)
{
    // Default latencies; zero-latency CNOTs with a wheel-sized
    // Toffoli; and latencies past both the wheel (listSchedule
    // fallback) and 32-bit busy steps (dense-rank fallback).
    sched::LatencyModel zero_cnot;
    zero_cnot.cnot = 0;
    zero_cnot.toffoli = 4095;
    sched::LatencyModel huge;
    huge.single = 1000000007;
    huge.cnot = 2000000011;
    huge.swap = 4000000000u;
    const std::vector<sched::LatencyModel> models = {
        sched::LatencyModel{}, zero_cnot, huge};
    for (const auto &[name, program] : flatPrograms()) {
        const circuit::DependencyGraph dag(program);
        const CompiledWorkload compiled(api::Workload{program, {}, 0});
        for (const auto &latency : models) {
            const sched::ScheduleTables tables(program, dag, latency);
            for (const unsigned blocks :
                 {1u, 16u, 49u, sched::unlimited_blocks}) {
                const auto expected =
                    sched::listSchedule(program, dag, latency, blocks)
                        .makespan;
                EXPECT_EQ(sched::listScheduleMakespan(dag, tables, blocks),
                          expected)
                    << name << " blocks=" << blocks
                    << " toffoli=" << latency.toffoli;
                EXPECT_EQ(compiled.flatMakespan(blocks, latency), expected)
                    << name << " blocks=" << blocks;
            }
        }
    }
}

TEST(FlatBaseline, CompiledRunMatchesPerRunCompile)
{
    // runTrace over a compiled workload is the same run as the
    // Workload overload, which compiles for that one call — the
    // borrowed tables and the kept flat makespan change nothing.
    const auto workload = draperWorkload(32);
    const CompiledWorkload compiled(workload);
    const auto params = iontrap::Params::future();
    for (const unsigned blocks : {4u, 16u, sched::unlimited_blocks}) {
        TraceConfig config;
        config.blocks = blocks;
        config.transfers = 3;
        config.capacity = 24;
        for (int pass = 0; pass < 2; ++pass) {
            const auto a = runTrace(compiled, config, params);
            const auto b = runTrace(workload, config, params);
            EXPECT_EQ(a.makespan_s, b.makespan_s);
            EXPECT_EQ(a.baseline_s, b.baseline_s);
            EXPECT_EQ(a.misses, b.misses);
            EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
            EXPECT_EQ(a.mean_in_flight, b.mean_in_flight);
            EXPECT_EQ(a.events_executed, b.events_executed);
        }
        // A latency model other than the compiled one rebuilds the
        // tables for that run instead of borrowing the wrong ones.
        config.latency.toffoli = 7;
        const auto a = runTrace(compiled, config, params);
        const auto b = runTrace(workload, config, params);
        EXPECT_EQ(a.makespan_s, b.makespan_s);
        EXPECT_EQ(a.baseline_s, b.baseline_s);
    }
}

/** Every field of two trace runs is equal. */
void
expectSameRun(const TraceResult &a, const TraceResult &b,
              const std::string &label)
{
    EXPECT_EQ(a.makespan_s, b.makespan_s) << label;
    EXPECT_EQ(a.baseline_s, b.baseline_s) << label;
    EXPECT_EQ(a.speedup, b.speedup) << label;
    EXPECT_EQ(a.instructions, b.instructions) << label;
    EXPECT_EQ(a.accesses, b.accesses) << label;
    EXPECT_EQ(a.hits, b.hits) << label;
    EXPECT_EQ(a.misses, b.misses) << label;
    EXPECT_EQ(a.evictions, b.evictions) << label;
    EXPECT_EQ(a.hit_rate, b.hit_rate) << label;
    EXPECT_EQ(a.transfer_utilization, b.transfer_utilization) << label;
    EXPECT_EQ(a.mem_requests, b.mem_requests) << label;
    EXPECT_EQ(a.writebacks, b.writebacks) << label;
    EXPECT_EQ(a.bank_conflicts, b.bank_conflicts) << label;
    EXPECT_EQ(a.mem_stall_ticks, b.mem_stall_ticks) << label;
    EXPECT_EQ(a.mem_peak_queue, b.mem_peak_queue) << label;
    EXPECT_EQ(a.mem_mean_queue, b.mem_mean_queue) << label;
    EXPECT_EQ(a.mem_utilization, b.mem_utilization) << label;
    EXPECT_EQ(a.blocks_used, b.blocks_used) << label;
    EXPECT_EQ(a.block_utilization, b.block_utilization) << label;
    EXPECT_EQ(a.peak_in_flight, b.peak_in_flight) << label;
    EXPECT_EQ(a.mean_in_flight, b.mean_in_flight) << label;
    EXPECT_EQ(a.events_executed, b.events_executed) << label;
}

TEST(TracePlateau, CapacitiesAtOrAboveTheFootprintRunOneSimulation)
{
    // The rule CompiledWorkload::traceResult keys its memo on: an LRU
    // with a slot for every cacheable qubit the circuit touches never
    // evicts, so every larger capacity runs the identical simulation,
    // while one slot fewer must evict.
    const auto params = iontrap::Params::future();
    const int n = 32;
    // Draper and ripple cache their two data registers (the scratch
    // qubits are masked out); the QFT caches its one register.
    for (const auto &[name, expected] :
         std::vector<std::pair<std::string, std::size_t>>{
             {"draper", 2 * n}, {"ripple", 2 * n}, {"qft", n}}) {
        Random rng(1);
        api::ExperimentSpec spec;
        spec.workload = name;
        spec.n = n;
        const CompiledWorkload compiled(api::buildWorkload(spec, rng));
        const auto footprint = compiled.footprint();
        EXPECT_EQ(footprint, expected) << name;
        if (name == "draper") {
            EXPECT_LT(footprint, static_cast<std::size_t>(
                                     compiled.program().qubitCount()));
        }

        TraceConfig config;
        config.blocks = 16;
        config.transfers = 3;
        config.mem_banks = 2;
        config.capacity = footprint;
        const auto at = runTrace(compiled, config, params);
        EXPECT_EQ(at.evictions, 0u) << name;
        for (const auto capacity : {footprint + 1, 4 * footprint}) {
            config.capacity = capacity;
            expectSameRun(at, runTrace(compiled, config, params),
                          name + " capacity=" + std::to_string(capacity));
        }
        config.capacity = footprint - 1;
        EXPECT_GT(runTrace(compiled, config, params).evictions, 0u)
            << name;
    }
}

/** @p items in a Fisher-Yates order drawn from @p seed. */
template <typename T>
void
shuffleWith(std::vector<T> &items, std::uint64_t seed)
{
    Random rng(seed);
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.uniformInt(i)]);
}

/**
 * Look every transfers x mem_banks point of @p config up through one
 * fresh CompiledWorkload, in an order drawn from @p order_seed, and
 * expect each to equal a direct run field for field. Returns
 * {points, runs kept}.
 */
std::pair<std::size_t, std::size_t>
expectLookupsEqualDirectRuns(const circuit::Workload &workload,
                             TraceConfig config, std::uint64_t order_seed,
                             const std::string &label)
{
    const CompiledWorkload compiled(workload);
    const auto params = iontrap::Params::future();
    std::vector<std::pair<unsigned, unsigned>> points;
    for (const unsigned transfers : {1u, 2u, 3u, 5u, 10u, 20u})
        for (const unsigned banks : {1u, 2u, 3u, 4u, 6u, 8u, 16u})
            points.emplace_back(transfers, banks);
    shuffleWith(points, order_seed);
    for (const auto &[transfers, banks] : points) {
        config.transfers = transfers;
        config.mem_banks = banks;
        expectSameRun(compiled.traceResult(config, params),
                      runTrace(compiled, config, params),
                      label + " transfers=" + std::to_string(transfers) +
                          " mem_banks=" + std::to_string(banks));
    }
    return {points.size(), compiled.keptRuns()};
}

TEST(TracePlateau, CoveredLookupsEqualDirectRuns)
{
    // A kept run serves every channel and bank count its slack
    // covers. Each lookup must be exactly the run it stands for, its
    // recomputed utilizations included, with the cache holding the
    // working set and under pressure.
    std::size_t points = 0, kept = 0, pressure_points = 0,
                pressure_kept = 0;
    std::uint64_t order = 0;
    for (const std::string name :
         {"workload=draper n=32", "workload=ripple n=32",
          "workload=qft n=24", "workload=random n=32 gates=600",
          "workload=draper n=24 mem_ports=2"}) {
        const auto spec = api::parseSpec("experiment=trace " + name).spec;
        Random rng(7);
        const auto workload = api::buildWorkload(spec, rng);
        const auto footprint = CompiledWorkload(workload).footprint();
        for (const auto divisor : {1u, 2u, 4u})
            for (const unsigned blocks : {4u, 16u}) {
                TraceConfig config;
                config.blocks = blocks;
                config.mem_ports = spec.mem_ports;
                config.capacity = footprint / divisor;
                const auto [p, k] = expectLookupsEqualDirectRuns(
                    workload, config, ++order,
                    name + " capacity=" +
                        std::to_string(config.capacity) +
                        " blocks=" + std::to_string(blocks));
                (divisor == 1 ? points : pressure_points) += p;
                (divisor == 1 ? kept : pressure_kept) += k;
            }
    }
    // Both grids must actually reach covered lookups.
    EXPECT_LT(kept, points / 2);
    EXPECT_LT(pressure_kept, pressure_points);
}

TEST(TracePlateau, SlackCoversOnlyWhatReplaysTheRun)
{
    // Hand-sized circuits that pin each branch of the covering rule.
    // cnot q0 q3 fills q0 and q3 at once: two channels and two bank
    // requests in service together. At 2 banks they take banks 0 and
    // 1 and never wait; at 3 banks both hash to bank 0 and one waits,
    // so the run at 2 banks covers 4 (2 divides 4) but not 3.
    const auto workload = [](const std::string &gates) {
        const auto parsed =
            circuit::parseText("name slack\nqubits 6\n" + gates);
        EXPECT_TRUE(parsed.ok) << parsed.error;
        return circuit::Workload{parsed.program, {}, 0};
    };
    const auto params = iontrap::Params::future();
    TraceConfig config;
    config.blocks = 4;
    config.capacity = 6;
    config.mem_ports = 4;
    const auto lookup = [&](const CompiledWorkload &compiled,
                            unsigned transfers, unsigned banks) {
        config.transfers = transfers;
        config.mem_banks = banks;
        const auto direct = runTrace(compiled, config, params);
        expectSameRun(compiled.traceResult(config, params), direct,
                      "transfers=" + std::to_string(transfers) +
                          " mem_banks=" + std::to_string(banks));
        return direct;
    };

    const CompiledWorkload pair(workload("cnot q0 q3\n"));
    EXPECT_EQ(lookup(pair, 4, 2).bank_conflicts, 0u);
    lookup(pair, 4, 4);
    lookup(pair, 2, 2);
    EXPECT_EQ(pair.keptRuns(), 1u);
    EXPECT_EQ(lookup(pair, 4, 3).bank_conflicts, 1u);
    EXPECT_EQ(pair.keptRuns(), 2u);
    // Two transfers at once: one channel makes the second wait.
    lookup(pair, 1, 2);
    EXPECT_EQ(pair.keptRuns(), 3u);

    // One fill at a time: any bank count finds every bank idle, even
    // where q0 and q3 share a bank.
    const CompiledWorkload serial(workload("h q0\ncnot q0 q3\n"));
    for (const unsigned banks : {2u, 3u, 5u, 1u})
        lookup(serial, 1, banks);
    EXPECT_EQ(serial.keptRuns(), 1u);
}

/** perfbench's sweep-shared grid: 72 points over three circuits. */
std::vector<api::ExperimentSpec>
sweepSharedGrid()
{
    std::vector<api::ExperimentSpec> specs;
    for (const char *base : {"experiment=trace workload=draper n=256",
                             "experiment=trace workload=ripple n=256",
                             "experiment=trace workload=qft n=128"}) {
        api::SpecGrid grid;
        grid.base = api::parseSpec(base).spec;
        grid.axis("blocks", {"16", "49"});
        grid.axis("transfers", {"2", "5", "10"});
        grid.axis("capacity_x", {"1.5", "2"});
        grid.axis("mem_banks", {"1", "8"});
        for (auto &spec : grid.expand())
            specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(TracePlateau, SweepSharedGridSimulatesFourteenRuns)
{
    // Grouping sweep-shared's points by every non-derived result
    // field leaves 14 distinct outcomes (draper 6, ripple 6, qft 2).
    // One worker simulates exactly those, in any point order, and the
    // rows at one and four workers equal each point run on its own.
    const std::uint64_t seed = 9;
    for (const std::uint64_t order : {1u, 2u, 3u}) {
        auto specs = sweepSharedGrid();
        ASSERT_EQ(specs.size(), 72u);
        shuffleWith(specs, order);

        auto batch = api::validateExperiments(specs);
        ASSERT_TRUE(batch.ok()) << batch.error().describe();
        const auto &experiments = batch.value();
        auto columns = experiments.front()->columns();
        columns.emplace_back("seed");
        sweep::ResultTable serial(columns);
        for (std::size_t i = 0; i < experiments.size(); ++i) {
            const auto point_seed = sweep::pointSeed(seed, i);
            Random rng(point_seed);
            auto row = experiments[i]->run(rng);
            row.emplace_back(point_seed);
            serial.addRow(std::move(row));
        }
        std::vector<const CompiledWorkload *> compiled;
        for (const auto &experiment : experiments) {
            const auto *shared = api::sharedCompiledWorkload(*experiment);
            ASSERT_NE(shared, nullptr);
            if (std::find(compiled.begin(), compiled.end(), shared) ==
                compiled.end())
                compiled.push_back(shared);
        }
        ASSERT_EQ(compiled.size(), 3u);
        std::size_t runs = 0;
        for (const auto *workload : compiled)
            runs += workload->keptRuns();
        EXPECT_EQ(runs, 14u) << "order " << order;

        sweep::ResultTable alone(columns);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto point_seed = sweep::pointSeed(seed, i);
            Random rng(point_seed);
            auto row = api::makeExperiment(specs[i])->run(rng);
            row.emplace_back(point_seed);
            alone.addRow(std::move(row));
        }
        const auto expected = csvOf(alone);
        EXPECT_EQ(csvOf(serial), expected) << "order " << order;
        for (const unsigned threads : {1u, 4u})
            EXPECT_EQ(csvOf(api::runSpecSweep(
                          specs, {.threads = threads, .base_seed = seed})),
                      expected)
                << "order " << order << ", " << threads << " worker(s)";
    }
}

/**
 * A mixed trace grid: shared adders and QFT, per-point random, at
 * capacities below and past each circuit's footprint on both
 * machines.
 */
std::vector<api::ExperimentSpec>
mixedCompileGrid()
{
    std::vector<api::ExperimentSpec> specs;
    for (const char *workload : {"draper", "qft", "random", "modexp"}) {
        api::SpecGrid grid;
        grid.base = api::parseSpec(std::string("experiment=trace n=16 "
                                               "gates=200 reps=2 "
                                               "workload=") +
                                   workload)
                        .spec;
        grid.axis("transfers", {"1", "4"});
        grid.axis("blocks", {"4", "16"});
        // Straddles every footprint (at most 32 cacheable qubits): the
        // larger capacities are twins served from the batch memo,
        // kept apart per machine.
        grid.axis("capacity", {"12", "64", "256"});
        grid.axis("machine", {"future", "now"});
        for (auto &spec : grid.expand())
            specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(CompiledSharing, SharedRowsEqualPerPointCompiledRows)
{
    const auto specs = mixedCompileGrid();
    const std::uint64_t seed = 31;
    const auto shared =
        api::runSpecSweep(specs, {.threads = 2, .base_seed = seed});

    // Each point on its own: a fresh experiment, so a fresh compile.
    auto columns = api::makeExperiment(specs.front())->columns();
    columns.emplace_back("seed");
    sweep::ResultTable alone(columns);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto point_seed = sweep::pointSeed(seed, i);
        Random rng(point_seed);
        auto row = api::makeExperiment(specs[i])->run(rng);
        row.emplace_back(point_seed);
        alone.addRow(std::move(row));
    }
    EXPECT_EQ(csvOf(shared), csvOf(alone));
}

TEST(CompiledSharing, SameCircuitSpecsShareOneCompileAndRandomNever)
{
    const auto spec = [](const std::string &text) {
        return api::parseSpec(text).spec;
    };
    const std::vector<api::ExperimentSpec> specs = {
        spec("experiment=trace workload=draper n=16 transfers=1"),
        spec("experiment=trace workload=draper n=16 transfers=4 "
             "blocks=8 capacity_x=2"),
        spec("experiment=trace workload=draper n=24"),
        spec("experiment=trace workload=draper n=16 mask_data=0"),
        spec("experiment=trace workload=random n=16 gates=100"),
        spec("experiment=trace workload=random n=16 gates=100 "
             "transfers=4"),
        spec("experiment=trace workload=qft n=16"),
        spec("experiment=trace workload=qft n=16 blocks=4"),
    };
    auto batch = api::validateExperiments(specs);
    ASSERT_TRUE(batch.ok()) << batch.error().describe();
    const auto &experiments = batch.value();
    const auto compiled = [&](std::size_t i) {
        return api::sharedCompiledWorkload(*experiments[i]);
    };
    ASSERT_NE(compiled(0), nullptr);
    EXPECT_EQ(compiled(0), compiled(1));
    EXPECT_NE(compiled(0), compiled(2));
    EXPECT_NE(compiled(0), compiled(3));
    EXPECT_EQ(compiled(4), nullptr);
    EXPECT_EQ(compiled(5), nullptr);
    ASSERT_NE(compiled(6), nullptr);
    EXPECT_EQ(compiled(6), compiled(7));
    EXPECT_EQ(compiled(0)->program().size(),
              draperWorkload(16).program.size());

    // Another batch compiles its own: nothing outlives a batch.
    auto again = api::validateExperiments(specs);
    ASSERT_TRUE(again.ok());
    EXPECT_NE(api::sharedCompiledWorkload(*again.value()[0]),
              compiled(0));

    // Other kinds have nothing to share.
    const auto cache = api::makeExperiment(
        spec("experiment=cache workload=draper n=16"));
    EXPECT_EQ(api::sharedCompiledWorkload(*cache), nullptr);
}

TEST(CompiledSharing, EightThreadSweepOverOneWorkloadMatchesOneThread)
{
    // Every point races for the one compiled draper and its flat
    // makespans at three block counts.
    api::SpecGrid grid;
    grid.base =
        api::parseSpec("experiment=trace workload=draper n=32").spec;
    grid.axis("transfers", {"1", "2", "4", "8"});
    grid.axis("capacity_x", {"0.5", "1", "2"});
    grid.axis("blocks", {"4", "16", "49"});
    const auto specs = grid.expand();
    const auto serial =
        api::runSpecSweep(specs, {.threads = 1, .base_seed = 5});
    const auto parallel =
        api::runSpecSweep(specs, {.threads = 8, .base_seed = 5});
    EXPECT_EQ(csvOf(serial), csvOf(parallel));
}

TEST(TraceEngineDeath, MalformedConfigPanics)
{
    const auto workload = draperWorkload(16);
    TraceConfig config;
    config.capacity = 0;
    EXPECT_DEATH(
        runTrace(workload, config, iontrap::Params::future()),
        "capacity must be nonzero");
    config.capacity = 8;
    config.transfers = 0;
    EXPECT_DEATH(
        runTrace(workload, config, iontrap::Params::future()),
        "at least one transfer channel");
}

} // namespace
} // namespace trace
} // namespace qmh
