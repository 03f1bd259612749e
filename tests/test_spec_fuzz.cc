/**
 * @file
 * Validated-spec fuzz. A fixed-seed generator draws small random
 * batches over all five experiment kinds from the spec key table,
 * with ordinary and edge values per key. Every batch that validates
 * must run through api::runSpecSweep to one row per point, with no
 * panic, fatal or hang. Trace batches repeat effective
 * configurations (capacities past the circuit's footprint, exact
 * repeats), and their shared-compile rows must equal each point run
 * on its own.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/spec.hh"
#include "api/workload.hh"
#include "common/random.hh"
#include "sweep/sweep.hh"

namespace qmh {
namespace api {
namespace {

/**
 * The values drawn for each spec key: small in-range values plus the
 * edges each kind's validate() accepts or just refuses. Keys that
 * drive run time (n, gates, reps, adders, trials) stay small; the
 * others reach their bounds.
 */
std::map<std::string, std::vector<std::string>>
valuePools()
{
    auto workloads = workloadNames();
    workloads.push_back("no-such-workload");
    return {
        {"experiment", experimentKindNames()},
        {"machine", {"now", "future"}},
        {"code", {"steane", "bacon-shor"}},
        {"workload", workloads},
        {"n", {"1", "2", "3", "8", "13", "16", "24", "4097"}},
        {"gates", {"1", "7", "64", "300"}},
        {"reps", {"1", "2", "3"}},
        {"transfers", {"1", "2", "10", "100000"}},
        {"blocks", {"1", "2", "16", "100000", "1000000"}},
        {"mem_banks", {"1", "3", "8", "4096"}},
        {"mem_ports", {"1", "2", "4096"}},
        {"mem_buffer", {"1", "2", "65536"}},
        {"cycles_per_line", {"0", "1", "1000000000"}},
        {"adders", {"0", "1", "10", "60"}},
        {"l1_fraction", {"0", "1e-9", "0.5", "1", "1.5"}},
        {"chain_fraction", {"-0.5", "0", "0.5", "1"}},
        {"capacity", {"0", "1", "2", "3", "17", "1000000", "1000001"}},
        {"capacity_x",
         {"0", "1e-9", "0.25", "1", "1.5", "1000000", "1e30"}},
        {"policy", {"inorder", "optimized"}},
        {"warm", {"0", "1"}},
        {"mask_data", {"0", "1"}},
        {"level", {"1", "2", "3", "4", "5"}},
        {"utilization", {"0", "0.5", "1"}},
        {"p0", {"0", "1e-4", "0.01", "0.25", "0.5"}},
        {"trials", {"0", "1", "50"}},
        {"noise_factor", {"0", "1", "2", "100"}},
    };
}

/** The keys set in every spec: they bound its run time. */
bool
alwaysDrawn(const std::string &key)
{
    return key == "n" || key == "gates" || key == "reps" ||
           key == "adders" || key == "trials";
}

class SpecFuzzer
{
  public:
    SpecFuzzer() : _rng(20261017), _pools(valuePools()) {}

    /** The pools cover exactly the spec key table. */
    void
    checkCoverage() const
    {
        for (const auto &key : specKeys())
            EXPECT_TRUE(_pools.count(key)) << "no fuzz values for " << key;
        EXPECT_EQ(_pools.size(), specKeys().size());
    }

    /** One random spec: a kind, its cost keys and half the others. */
    ExperimentSpec
    spec()
    {
        ExperimentSpec spec;
        set(spec, "experiment");
        for (const auto &key : specKeys())
            if (key != "experiment" &&
                (alwaysDrawn(key) || _rng.bernoulli(0.5)))
                set(spec, key);
        return spec;
    }

    /**
     * A batch of one kind: a spec and up to three variants of it. A
     * trace variant redraws its capacity knobs, so points land on
     * both sides of the footprint; others redraw one key. Some
     * variants repeat an earlier point exactly.
     */
    std::vector<ExperimentSpec>
    batch()
    {
        std::vector<ExperimentSpec> specs = {spec()};
        const auto variants = _rng.uniformInt(4);
        for (std::uint64_t i = 0; i < variants; ++i) {
            auto next = specs[_rng.uniformInt(specs.size())];
            if (_rng.bernoulli(0.25)) {
                // An exact repeat.
            } else if (next.kind == ExperimentKind::Trace) {
                set(next, "capacity");
                set(next, "capacity_x");
            } else {
                // Any key but the kind, which must stay the batch's.
                const auto &keys = specKeys();
                auto key = keys[_rng.uniformInt(keys.size())];
                if (key != "experiment")
                    set(next, key);
            }
            specs.push_back(next);
        }
        return specs;
    }

  private:
    void
    set(ExperimentSpec &spec, const std::string &key)
    {
        const auto &pool = _pools.at(key);
        const auto &value = pool[_rng.uniformInt(pool.size())];
        const auto error = specSet(spec, key, value);
        ASSERT_EQ(error, "") << key << "=" << value;
    }

    Random _rng;
    std::map<std::string, std::vector<std::string>> _pools;
};

std::string
csvOf(const sweep::ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

/** @p specs run one at a time, each on a fresh experiment. */
std::string
perPointCsv(const std::vector<ExperimentSpec> &specs, std::uint64_t seed)
{
    auto columns = makeExperiment(specs.front())->columns();
    columns.emplace_back("seed");
    sweep::ResultTable alone(columns);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto point_seed = sweep::pointSeed(seed, i);
        Random rng(point_seed);
        auto row = makeExperiment(specs[i])->run(rng);
        row.emplace_back(point_seed);
        alone.addRow(std::move(row));
    }
    return csvOf(alone);
}

std::string
describe(const std::vector<ExperimentSpec> &specs)
{
    std::string out;
    for (const auto &spec : specs)
        out += "\n  " + printSpec(spec);
    return out;
}

TEST(SpecFuzz, EveryValidatedBatchRunsToOneRowPerPoint)
{
    SpecFuzzer fuzzer;
    fuzzer.checkCoverage();

    std::map<ExperimentKind, int> ran;
    std::size_t points_run = 0;
    int trace_repeats = 0;
    for (std::uint64_t round = 0; round < 400; ++round) {
        const auto specs = fuzzer.batch();
        if (!validateExperiments(specs).ok())
            continue;
        const auto table =
            runSpecSweep(specs, {.threads = 2, .base_seed = round});
        ASSERT_EQ(table.rows(), specs.size()) << describe(specs);
        points_run += specs.size();
        ++ran[specs.front().kind];
        if (specs.front().kind == ExperimentKind::Trace &&
            specs.size() > 1) {
            ++trace_repeats;
            EXPECT_EQ(csvOf(table), perPointCsv(specs, round))
                << describe(specs);
        }
    }
    // The draw must stay a real sample of every kind, not a stream of
    // rejected specs.
    EXPECT_GE(points_run, 300u);
    for (const auto &kind : experimentKindNames())
        EXPECT_GE(ran[*parseKind(kind)], 5) << kind;
    EXPECT_GE(trace_repeats, 5);
}

} // namespace
} // namespace api
} // namespace qmh
