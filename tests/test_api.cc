/** @file Unit tests for the qmh::api experiment facade. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/spec.hh"
#include "api/workload.hh"
#include "cqla/hierarchy_sim.hh"

namespace qmh {
namespace api {
namespace {

std::string
csvOf(const sweep::ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

TEST(Spec, DefaultsPrintAsKindOnly)
{
    EXPECT_EQ(printSpec(ExperimentSpec{}), "experiment=hierarchy");
}

TEST(Spec, PrintParsesBackExactly)
{
    ExperimentSpec spec;
    spec.kind = ExperimentKind::Cache;
    spec.code = ecc::CodeKind::BaconShor913;
    spec.workload = "random";
    spec.n = 96;
    spec.gates = 777;
    spec.warm = true;
    spec.policy = cache::FetchPolicy::InOrder;
    spec.capacity_x = 0.1 + 0.2;  // not representable as "0.3"
    spec.l1_fraction = 2.0 / 3.0;
    const auto text = printSpec(spec);
    const auto parsed = parseSpec(text);
    ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
    EXPECT_TRUE(parsed.spec == spec) << text;
    // And printing the reparsed spec is a fixed point.
    EXPECT_EQ(printSpec(parsed.spec), text);
}

TEST(Spec, RoundTripsEveryKind)
{
    for (const auto kind :
         {ExperimentKind::Hierarchy, ExperimentKind::Cache,
          ExperimentKind::Bandwidth, ExperimentKind::MonteCarlo,
          ExperimentKind::Trace}) {
        ExperimentSpec spec;
        spec.kind = kind;
        spec.machine = "now";
        spec.trials = 12345;
        spec.p0 = 3.7e-4;
        const auto parsed = parseSpec(printSpec(spec));
        ASSERT_TRUE(parsed.ok());
        EXPECT_TRUE(parsed.spec == spec);
    }
}

TEST(Spec, DoubleRoundTripFuzz)
{
    // The result cache is keyed on canonical spec strings, so the
    // printer must round-trip *every* finite double bit-exactly —
    // including subnormals, negative zero and values with no short
    // decimal form. Drive random bit patterns through print -> parse.
    Random rng(0xF00DF00DULL);
    int tested = 0;
    while (tested < 5000) {
        const std::uint64_t bits = rng.next();
        double value;
        static_assert(sizeof(value) == sizeof(bits));
        std::memcpy(&value, &bits, sizeof(value));
        if (!std::isfinite(value))
            continue;  // the spec layer rejects non-finite values
        ++tested;
        const auto reparsed = parseDouble(formatDouble(value));
        ASSERT_TRUE(reparsed.has_value()) << formatDouble(value);
        EXPECT_EQ(std::memcmp(&*reparsed, &value, sizeof(value)), 0)
            << formatDouble(value);

        ExperimentSpec spec;
        spec.l1_fraction = value;
        const auto parsed = parseSpec(printSpec(spec));
        ASSERT_TRUE(parsed.ok()) << printSpec(spec);
        EXPECT_TRUE(parsed.spec == spec) << printSpec(spec);
        EXPECT_EQ(printSpec(parsed.spec), printSpec(spec));
    }
}

TEST(Spec, NonRepresentableDecimalRoundTrips)
{
    // 0.1 has no exact binary representation; the canonical printer
    // must still emit a string that parses back to the same bits (and
    // stays the human-friendly shortest form, not 0.1000000000000000055…).
    ExperimentSpec spec;
    ASSERT_EQ(specSet(spec, "l1_fraction", "0.1"), "");
    EXPECT_EQ(specGet(spec, "l1_fraction"), "0.1");
    EXPECT_EQ(spec.l1_fraction, 0.1);
    const auto parsed = parseSpec(printSpec(spec));
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.spec == spec);
}

TEST(Spec, RejectsNonFiniteReals)
{
    // NaN breaks parse(print(s)) == s (NaN != NaN) and inf corrupts
    // the casts that size caches from capacity_x, so the field
    // setters must refuse what parseDouble itself accepts.
    ExperimentSpec spec;
    EXPECT_NE(specSet(spec, "capacity_x", "inf"), "");
    EXPECT_NE(specSet(spec, "l1_fraction", "-inf"), "");
    EXPECT_NE(specSet(spec, "p0", "nan"), "");
    EXPECT_NE(specSet(spec, "noise_factor", "NAN"), "");
    EXPECT_TRUE(spec == ExperimentSpec{});
}

TEST(Spec, EveryKeyReportsItsKind)
{
    for (const auto &key : specKeys())
        EXPECT_TRUE(specKeyKind(key).has_value()) << key;
    EXPECT_EQ(specKeyKind("l1_fraction"), SpecKeyKind::Real);
    EXPECT_EQ(specKeyKind("transfers"), SpecKeyKind::Int);
    EXPECT_EQ(specKeyKind("adders"), SpecKeyKind::UInt);
    EXPECT_EQ(specKeyKind("warm"), SpecKeyKind::Bool);
    EXPECT_EQ(specKeyKind("policy"), SpecKeyKind::Text);
    EXPECT_EQ(specKeyKind("no_such_key"), std::nullopt);
}

TEST(Spec, ParseReportsEveryProblem)
{
    const auto parsed =
        parseSpec("experiment=warp n=alpha bogus_key=1 justatoken");
    EXPECT_EQ(parsed.errors.size(), 4u);
    // Valid tokens in the same string still apply.
    const auto partial = parseSpec("n=128 experiment=warp");
    EXPECT_EQ(partial.spec.n, 128);
    EXPECT_EQ(partial.errors.size(), 1u);
}

TEST(Spec, StrictParsingRejectsAtoiGarbage)
{
    // Everything std::atoi would silently coerce to an integer.
    EXPECT_FALSE(parseInt("12abc").has_value());
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt(" 12").has_value());
    EXPECT_FALSE(parseInt("1.5").has_value());
    EXPECT_FALSE(parseUInt("-3").has_value());
    EXPECT_FALSE(parseDouble("1e").has_value());
    EXPECT_EQ(parseInt("-12"), -12);
    EXPECT_EQ(parseUInt("18446744073709551615"),
              18446744073709551615ULL);
    EXPECT_DOUBLE_EQ(parseDouble("2.5e-3").value(), 2.5e-3);
}

TEST(Spec, GetAndSetCoverEveryKey)
{
    ExperimentSpec spec;
    for (const auto &key : specKeys()) {
        const auto value = specGet(spec, key);
        ASSERT_TRUE(value.has_value()) << key;
        // Setting a field to its own canonical value is always legal.
        EXPECT_EQ(specSet(spec, key, *value), "") << key;
        EXPECT_NE(specKeyHelp(key), nullptr) << key;
    }
    EXPECT_FALSE(specGet(spec, "no_such_key").has_value());
    EXPECT_NE(specSet(spec, "no_such_key", "1"), "");
}

TEST(Workloads, RegistryHasThePaperGenerators)
{
    for (const char *name :
         {"draper", "ripple", "modexp", "qft", "random"})
        EXPECT_NE(findWorkload(name), nullptr) << name;
    EXPECT_EQ(findWorkload("bogus"), nullptr);
}

TEST(Workloads, BuildsProgramsWithMetadata)
{
    Random rng(7);
    ExperimentSpec spec;
    spec.workload = "draper";
    spec.n = 32;
    const auto draper = buildWorkload(spec, rng);
    EXPECT_GT(draper.program.size(), 0u);
    ASSERT_EQ(draper.cacheable.size(),
              static_cast<std::size_t>(draper.program.qubitCount()));
    // The data registers are cacheable, the scratch is not.
    EXPECT_TRUE(draper.cacheable[0]);
    EXPECT_FALSE(draper.cacheable.back());
    EXPECT_GT(draper.pe_qubits, 0u);

    spec.workload = "modexp";
    spec.reps = 3;
    const auto modexp = buildWorkload(spec, rng);
    EXPECT_EQ(modexp.program.size(), 3 * draper.program.size());

    spec.workload = "random";
    spec.n = 16;
    spec.gates = 64;
    const auto random = buildWorkload(spec, rng);
    EXPECT_EQ(random.program.size(), 64u);
    EXPECT_TRUE(random.cacheable.empty());
}

TEST(Experiments, ValidateCatchesBadRanges)
{
    ExperimentSpec spec;
    spec.kind = ExperimentKind::Hierarchy;
    spec.l1_fraction = 0.0;
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());

    spec = ExperimentSpec{};
    spec.kind = ExperimentKind::Cache;
    spec.workload = "unknown-generator";
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());
    // capacity_x * PE is cast to an integer capacity: a product past
    // its range must be a diagnostic, not a silent 1-qubit cache.
    spec = parseSpec("experiment=cache workload=draper n=16 "
                     "capacity_x=1e30")
               .spec;
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());
    spec.capacity_x = 1000000;
    EXPECT_TRUE(makeExperiment(spec)->validate().empty());
    // The random generator needs three qubits: n=2 is a diagnostic,
    // not a generator fatal at run time.
    spec = parseSpec("experiment=cache workload=random n=2").spec;
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());
    spec.n = 3;
    EXPECT_TRUE(makeExperiment(spec)->validate().empty());

    spec = ExperimentSpec{};
    spec.kind = ExperimentKind::MonteCarlo;
    spec.p0 = 0.9;
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());

    spec = ExperimentSpec{};
    spec.kind = ExperimentKind::Bandwidth;
    EXPECT_TRUE(makeExperiment(spec)->validate().empty());
}

TEST(Experiments, EveryKindRunsAndMatchesItsColumns)
{
    for (const char *text :
         {"experiment=hierarchy n=64 adders=40",
          "experiment=cache workload=draper n=32",
          "experiment=bandwidth blocks=36",
          "experiment=montecarlo trials=2000",
          "experiment=trace workload=draper n=32 blocks=8 "
          "transfers=4 capacity=24"}) {
        const auto parsed = parseSpec(text);
        ASSERT_TRUE(parsed.ok()) << text;
        const auto experiment = makeExperiment(parsed.spec);
        EXPECT_TRUE(experiment->validate().empty()) << text;
        Random rng(42);
        const auto row = experiment->run(rng);
        EXPECT_EQ(row.size(), experiment->columns().size()) << text;
        EXPECT_EQ(experiment->columns().front(), "spec");
        // The first cell re-parses to the spec that produced it.
        const auto reparsed = parseSpec(row.front().toString());
        ASSERT_TRUE(reparsed.ok()) << text;
        EXPECT_TRUE(reparsed.spec == parsed.spec) << text;
    }
}

TEST(SpecGrid, ExpandsCrossProductInAxisOrder)
{
    SpecGrid grid;
    grid.base = parseSpec("experiment=cache workload=draper").spec;
    grid.axis("n", {"16", "32"});
    grid.axis("policy", {"inorder", "optimized"});
    grid.axis("warm", {"0", "1"});
    EXPECT_EQ(grid.points(), 8u);
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    // First axis slowest, last fastest.
    EXPECT_EQ(specs[0].n, 16);
    EXPECT_FALSE(specs[0].warm);
    EXPECT_TRUE(specs[1].warm);
    EXPECT_EQ(specs[1].policy, cache::FetchPolicy::InOrder);
    EXPECT_EQ(specs[2].policy, cache::FetchPolicy::OptimizedLookahead);
    EXPECT_EQ(specs[4].n, 32);
    // Un-swept axes keep the base value everywhere.
    for (const auto &spec : specs)
        EXPECT_EQ(spec.workload, "draper");
}

TEST(SpecGrid, AddAxisParsesAndRejects)
{
    SpecGrid grid;
    EXPECT_EQ(grid.addAxis("n=64,128,256"), "");
    ASSERT_EQ(grid.axes.size(), 1u);
    EXPECT_EQ(grid.axes[0].values.size(), 3u);
    EXPECT_NE(grid.addAxis("n=64,,128"), "");
    EXPECT_NE(grid.addAxis("bogus=1"), "");
    EXPECT_NE(grid.addAxis("n=notanumber"), "");
    EXPECT_NE(grid.addAxis("justatoken"), "");
    EXPECT_EQ(grid.axes.size(), 1u);
    EXPECT_TRUE(grid.validate().empty());
}

TEST(SpecGrid, ValidateFlagsBadValues)
{
    SpecGrid grid;
    grid.axis("n", {"16", "oops"});
    grid.axis("unknown", {"1"});
    EXPECT_EQ(grid.validate().size(), 2u);
}

TEST(SpecSweep, CacheGridBitIdenticalAcrossThreadCounts)
{
    // The acceptance sweep: a *cache* experiment grid (random
    // workload, so the per-point RNG stream matters) must emit a
    // bit-identical table on 1 vs N threads.
    SpecGrid grid;
    grid.base =
        parseSpec("experiment=cache workload=random n=24 gates=400")
            .spec;
    grid.axis("capacity", {"6", "12", "18"});
    grid.axis("policy", {"inorder", "optimized"});
    grid.axis("warm", {"0", "1"});
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 12u);

    const auto serial =
        runSpecSweep(specs, {.threads = 1, .base_seed = 99});
    for (const unsigned threads : {2u, 4u, 8u}) {
        const auto parallel = runSpecSweep(
            specs, {.threads = threads, .base_seed = 99});
        EXPECT_EQ(csvOf(serial), csvOf(parallel))
            << threads << " threads diverged";
    }
    // The random workload really is seed-sensitive: a different base
    // seed must change the table (hit counts differ).
    const auto other =
        runSpecSweep(specs, {.threads = 2, .base_seed = 100});
    EXPECT_NE(csvOf(serial), csvOf(other));
}

TEST(Sweep, HierarchySweepBitIdenticalAcrossThreadCounts)
{
    // The Table-5 hierarchy pin: every row of a hierarchy grid must
    // come out bit-identical on 1 vs N threads.
    SpecGrid grid;
    grid.base = parseSpec("experiment=hierarchy adders=40").spec;
    grid.axis("code", {"steane", "bacon-shor"});
    grid.axis("n", {"64", "128"});
    grid.axis("transfers", {"5", "10"});
    grid.axis("blocks", {"25", "49"});
    // 1/3 and 2/3 in shortest round-trip form.
    grid.axis("l1_fraction", {"0.3333333333333333", "0.6666666666666666"});
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 32u);

    const auto serial =
        runSpecSweep(specs, {.threads = 1, .base_seed = 99});
    ASSERT_EQ(serial.rows(), specs.size());
    for (const unsigned threads : {2u, 4u, 8u}) {
        const auto parallel = runSpecSweep(
            specs, {.threads = threads, .base_seed = 99});
        EXPECT_EQ(csvOf(serial), csvOf(parallel))
            << threads << " threads diverged";
    }
}

TEST(SpecSweep, TableShapeAndSeeds)
{
    SpecGrid grid;
    grid.base = parseSpec("experiment=bandwidth").spec;
    grid.axis("blocks", {"10", "20", "30"});
    const auto table =
        runSpecSweep(grid.expand(), {.threads = 2, .base_seed = 5});
    ASSERT_EQ(table.rows(), 3u);
    EXPECT_EQ(table.columnNames().front(), "spec");
    EXPECT_EQ(table.columnNames().back(), "seed");
    const auto seed_col = table.findColumn("seed");
    ASSERT_TRUE(seed_col.has_value());
    for (std::size_t r = 0; r < table.rows(); ++r)
        EXPECT_EQ(table.cell(r, *seed_col).toString(),
                  std::to_string(sweep::pointSeed(5, r)));
    const auto blocks_col = table.findColumn("blocks");
    ASSERT_TRUE(blocks_col.has_value());
    EXPECT_EQ(table.cell(2, *blocks_col).toString(), "30");
}

TEST(SpecSweep, EmptySpecListYieldsEmptyTable)
{
    const auto table = runSpecSweep({}, {.threads = 1});
    EXPECT_EQ(table.rows(), 0u);
}

TEST(SpecSweepDeath, InvalidSpecPanics)
{
    ExperimentSpec bad;
    bad.kind = ExperimentKind::Cache;
    bad.workload = "bogus";
    EXPECT_DEATH(runSpecSweep({bad}, {.threads = 1}),
                 "validation error.*unknown workload 'bogus'");
}

TEST(SpecSweepDeath, MixedKindsPanic)
{
    const auto a = parseSpec("experiment=bandwidth").spec;
    const auto b = parseSpec("experiment=montecarlo trials=10").spec;
    EXPECT_DEATH(runSpecSweep({a, b}, {.threads = 1}),
                 "mixed experiment kinds");
}

TEST(SpecSweep, HierarchyMatchesDirectEngineCall)
{
    // The facade is a veneer: a hierarchy row must equal the internal
    // engine's result for the same config.
    const auto parsed = parseSpec(
        "experiment=hierarchy code=bacon-shor n=64 adders=40 "
        "transfers=5 blocks=25 l1_fraction=0.5");
    ASSERT_TRUE(parsed.ok());
    const auto table = runSpecSweep({parsed.spec}, {.threads = 1});

    cqla::HierarchySimConfig config;
    config.code = ecc::CodeKind::BaconShor913;
    config.n_bits = 64;
    config.total_adders = 40;
    config.parallel_transfers = 5;
    config.blocks = 25;
    config.level1_fraction = 0.5;
    const auto direct =
        cqla::runHierarchySim(config, iontrap::Params::future());

    const auto speedup_col = table.findColumn("makespan_speedup");
    ASSERT_TRUE(speedup_col.has_value());
    EXPECT_EQ(table.cell(0, *speedup_col).asNumber().value(),
              direct.makespan_speedup);
}

} // namespace
} // namespace api
} // namespace qmh
