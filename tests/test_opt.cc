/** @file Unit and property tests for the opt:: optimizer stack. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "api/grid.hh"
#include "opt/cached_sweep.hh"
#include "opt/frontier.hh"
#include "opt/result_cache.hh"

namespace qmh {
namespace opt {
namespace {

std::string
csvOf(const sweep::ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

std::string
tempPath(const char *name)
{
    const auto path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

TEST(SpecSeed, IsAFunctionOfTheSpecAlone)
{
    const auto seed = specSeed(42, "experiment=cache n=64");
    EXPECT_EQ(seed, specSeed(42, "experiment=cache n=64"));
    EXPECT_NE(seed, specSeed(43, "experiment=cache n=64"));
    EXPECT_NE(seed, specSeed(42, "experiment=cache n=65"));
}

TEST(CellTags, RoundTripEveryAlternative)
{
    const sweep::Cell cells[] = {
        sweep::Cell(std::string("text, with \"quotes\"\n")),
        sweep::Cell(0.1), sweep::Cell(-0.0),
        sweep::Cell(std::int64_t(-7)),
        sweep::Cell(std::uint64_t(18446744073709551615ULL))};
    for (const auto &cell : cells) {
        const auto back =
            sweep::Cell::fromTagged(cell.typeTag(), cell.toString());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->typeTag(), cell.typeTag());
        EXPECT_EQ(back->toString(), cell.toString());
    }
    EXPECT_FALSE(sweep::Cell::fromTagged('i', "12abc").has_value());
    EXPECT_FALSE(sweep::Cell::fromTagged('u', "-1").has_value());
    EXPECT_FALSE(sweep::Cell::fromTagged('x', "1").has_value());
}

TEST(ResultCache, InMemoryInsertAndLookup)
{
    ResultCache cache;
    EXPECT_FALSE(cache.backed());
    EXPECT_EQ(cache.lookup("k"), nullptr);
    EXPECT_TRUE(cache.insert("k", 7, {sweep::Cell(1.5)}));
    EXPECT_FALSE(cache.insert("k", 7, {sweep::Cell(9.9)}));
    const auto *hit = cache.lookup("k");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->seed, 7u);
    EXPECT_EQ(hit->row.at(0).toString(), "1.5");
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, PersistsAndReloadsJsonl)
{
    const auto path = tempPath("opt_cache_roundtrip.jsonl");
    const std::string key = "experiment=cache n=64";
    const std::string nasty = "experiment=cache workload=x\"y,z";
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, 42), "");
        cache.insert(key, specSeed(42, key),
                     {sweep::Cell("Steane [[7,1,3]]"), sweep::Cell(0.1),
                      sweep::Cell(std::int64_t(-3)),
                      sweep::Cell(std::uint64_t(11))});
        cache.insert(nasty, specSeed(42, nasty),
                     {sweep::Cell("line\nbreak\tand \"quotes\"")});
    }
    // Every line of the backing file must be standalone JSON.
    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(lines, 3u);  // header + two entries

    ResultCache warm;
    ASSERT_EQ(warm.open(path, 42), "");
    EXPECT_EQ(warm.size(), 2u);
    const auto *hit = warm.lookup(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->seed, specSeed(42, key));
    ASSERT_EQ(hit->row.size(), 4u);
    EXPECT_EQ(hit->row[0].toString(), "Steane [[7,1,3]]");
    EXPECT_EQ(hit->row[1].typeTag(), 'd');
    EXPECT_EQ(hit->row[1].toString(), "0.1");
    EXPECT_EQ(hit->row[2].typeTag(), 'i');
    EXPECT_EQ(hit->row[3].typeTag(), 'u');
    const auto *other = warm.lookup(nasty);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->row[0].toString(),
              "line\nbreak\tand \"quotes\"");
}

TEST(ResultCache, RefusesForeignAndMismatchedFiles)
{
    const auto path = tempPath("opt_cache_bad.jsonl");
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, 1), "");
        cache.insert("k", specSeed(1, "k"), {sweep::Cell(1.0)});
    }
    ResultCache wrong_seed;
    EXPECT_NE(wrong_seed.open(path, 2), "");

    const auto foreign = tempPath("opt_cache_foreign.jsonl");
    std::ofstream(foreign) << "{\"not\":\"a cache\"}\n";
    ResultCache not_ours;
    EXPECT_NE(not_ours.open(foreign, 1), "");

    const auto corrupt = tempPath("opt_cache_corrupt.jsonl");
    {
        std::ifstream src(path);
        std::ofstream dst(corrupt);
        std::string line;
        std::getline(src, line);
        dst << line << "\n" << "{\"spec\":oops}\n";
    }
    ResultCache truncated;
    EXPECT_NE(truncated.open(corrupt, 1), "");

    // A cache opened once cannot be re-pointed.
    ResultCache once;
    ASSERT_EQ(once.open(path, 1), "");
    EXPECT_NE(once.open(path, 1), "");

    // A directory must be refused up front, not treated as an empty
    // cache that silently never persists anything.
    ResultCache dir;
    EXPECT_NE(dir.open(::testing::TempDir(), 1), "");
}

TEST(ResultCache, StaleEntryIsRepairedNotShadowedForever)
{
    // An entry written before a schema change (wrong row width) must
    // be re-simulated once and then *replaced* — otherwise it forces
    // a re-simulation on every future run while the file pretends to
    // be warm.
    const auto path = tempPath("opt_cache_stale.jsonl");
    api::SpecGrid grid;
    grid.base = api::parseSpec("experiment=bandwidth").spec;
    grid.axis("blocks", {"10", "20"});
    const auto specs = grid.expand();
    sweep::SweepRunner runner({.threads = 2});
    const auto key = api::printSpec(specs.front());
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, runner.options().base_seed), "");
        cache.insert(key,
                     specSeed(runner.options().base_seed, key),
                     {sweep::Cell("stale")});  // wrong width
        const auto outcome = runSpecSweepCached(runner, specs, &cache);
        EXPECT_EQ(outcome.simulated, specs.size());  // stale = miss
    }
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, runner.options().base_seed), "");
        const auto *hit = cache.lookup(key);
        ASSERT_NE(hit, nullptr);
        EXPECT_GT(hit->row.size(), 1u);  // the repaired row won
        const auto outcome = runSpecSweepCached(runner, specs, &cache);
        EXPECT_EQ(outcome.simulated, 0u);
    }
}

std::vector<api::ExperimentSpec>
montecarloSpecs()
{
    api::SpecGrid grid;
    grid.base =
        api::parseSpec("experiment=montecarlo trials=300 level=1")
            .spec;
    grid.axis("p0", {"0.0001", "0.001"});
    grid.axis("code", {"steane", "bacon-shor"});
    return grid.expand();
}

TEST(CachedSweep, WarmRunReplaysColdRowsBitIdentically)
{
    const auto path = tempPath("opt_cache_replay.jsonl");
    const auto specs = montecarloSpecs();

    sweep::SweepRunner runner({.threads = 2});
    std::string cold_csv;
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, runner.options().base_seed), "");
        const auto cold = runSpecSweepCached(runner, specs, &cache);
        EXPECT_EQ(cold.simulated, specs.size());
        EXPECT_EQ(cold.cached, 0u);
        cold_csv = csvOf(cold.table);
    }
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, runner.options().base_seed), "");
        EXPECT_EQ(cache.size(), specs.size());
        const auto warm = runSpecSweepCached(runner, specs, &cache);
        EXPECT_EQ(warm.simulated, 0u);
        EXPECT_EQ(warm.cached, specs.size());
        EXPECT_EQ(csvOf(warm.table), cold_csv);
    }
}

TEST(CachedSweep, RowsAreIndependentOfThreadCountAndBatchOrder)
{
    const auto specs = montecarloSpecs();
    sweep::SweepRunner one({.threads = 1});
    sweep::SweepRunner many({.threads = 4});
    const auto a = runSpecSweepCached(one, specs, nullptr);
    const auto b = runSpecSweepCached(many, specs, nullptr);
    EXPECT_EQ(csvOf(a.table), csvOf(b.table));

    // Spec-addressed seeding: the same spec must produce the same row
    // when evaluated from a differently ordered (and smaller) batch —
    // the property index-addressed runSpecSweep does not have, and
    // the one that makes cached replay sound.
    std::vector<api::ExperimentSpec> reversed(specs.rbegin(),
                                              specs.rend());
    const auto c = runSpecSweepCached(many, reversed, nullptr);
    const auto spec_col = *a.table.findColumn("spec");
    for (std::size_t r = 0; r < specs.size(); ++r) {
        const std::size_t rr = specs.size() - 1 - r;
        for (std::size_t col = 0; col < a.table.columns(); ++col)
            EXPECT_EQ(a.table.cell(r, col).toString(),
                      c.table.cell(rr, col).toString())
                << a.table.cell(r, spec_col).toString();
    }
}

TEST(CachedSweep, DuplicateSpecsEvaluateOnce)
{
    auto specs = montecarloSpecs();
    const auto unique_points = specs.size();
    specs.push_back(specs.front());
    specs.push_back(specs.front());
    sweep::SweepRunner runner({.threads = 2});
    const auto outcome = runSpecSweepCached(runner, specs, nullptr);
    EXPECT_EQ(outcome.simulated, unique_points);
    EXPECT_EQ(outcome.cached, 2u);
    for (std::size_t col = 0; col < outcome.table.columns(); ++col) {
        EXPECT_EQ(outcome.table.cell(0, col).toString(),
                  outcome.table.cell(unique_points, col).toString());
        EXPECT_EQ(outcome.table.cell(0, col).toString(),
                  outcome.table.cell(unique_points + 1, col).toString());
    }
}

TEST(CachedSweep, RowLimitCutsADeterministicPrefix)
{
    const auto specs = montecarloSpecs();
    sweep::SweepRunner runner({.threads = 4});
    const auto full = runSpecSweepCached(runner, specs, nullptr);
    ASSERT_EQ(full.table.rows(), specs.size());
    EXPECT_FALSE(full.cancelled);

    CachedSweepControl control;
    control.row_limit = 2;
    const auto cut =
        runSpecSweepCached(runner, specs, nullptr, control);
    EXPECT_TRUE(cut.cancelled);
    EXPECT_EQ(cut.simulated, 2u);
    ASSERT_EQ(cut.table.rows(), 2u);
    // The cut result is exactly the leading rows of the full sweep,
    // bit for bit — the in-flight points beyond the limit were
    // discarded, not reordered in.
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < full.table.columns(); ++c)
            EXPECT_EQ(cut.table.cell(r, c).toString(),
                      full.table.cell(r, c).toString());
}

TEST(CachedSweep, OnRowObservesAndCancels)
{
    const auto specs = montecarloSpecs();
    sweep::SweepRunner runner({.threads = 2});
    std::vector<std::size_t> seen;
    CachedSweepControl control;
    control.on_row = [&seen, &specs](std::size_t done,
                                     std::size_t total) {
        EXPECT_EQ(total, specs.size());
        seen.push_back(done);
        return done < 3;  // cancel after the third row
    };
    const auto outcome =
        runSpecSweepCached(runner, specs, nullptr, control);
    EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_TRUE(outcome.cancelled);
    EXPECT_EQ(outcome.table.rows(), 3u);
}

TEST(CachedSweep, CancelledRunCachesOnlyTheIncorporatedPrefix)
{
    // Cache content must be a function of the incorporated prefix
    // alone: points that were in flight when the cutoff hit are
    // never upserted, so a warm rerun of the same limited sweep is
    // all hits and a rerun of the full sweep simulates exactly the
    // tail.
    const auto path = tempPath("opt_cache_cutoff.jsonl");
    const auto specs = montecarloSpecs();
    sweep::SweepRunner runner({.threads = 4});
    CachedSweepControl control;
    control.row_limit = 2;
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, runner.options().base_seed), "");
        const auto cold =
            runSpecSweepCached(runner, specs, &cache, control);
        EXPECT_EQ(cold.simulated, 2u);
    }
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, runner.options().base_seed), "");
        EXPECT_EQ(cache.size(), 2u);
        const auto warm =
            runSpecSweepCached(runner, specs, &cache, control);
        EXPECT_EQ(warm.simulated, 0u);
        EXPECT_EQ(warm.cached, 2u);
        const auto rest = runSpecSweepCached(runner, specs, &cache);
        EXPECT_EQ(rest.simulated, specs.size() - 2);
        EXPECT_EQ(rest.cached, 2u);
    }
}

TEST(Frontier, LatticeIsTheCoarseGridPlusDyadicMidpoints)
{
    const FrontierAxis real{"l1_fraction", 0.25, 1.0, 3};
    const auto lattice = frontierAxisLattice(real, false, 2);
    ASSERT_EQ(lattice.size(), 9u);
    EXPECT_EQ(lattice.front(), 0.25);
    EXPECT_EQ(lattice.back(), 1.0);
    for (std::size_t i = 0; i + 1 < lattice.size(); ++i)
        EXPECT_LT(lattice[i], lattice[i + 1]);

    const FrontierAxis ints{"transfers", 2, 16, 3};
    const auto int_lattice = frontierAxisLattice(ints, true, 10);
    for (const double v : int_lattice)
        EXPECT_EQ(v, std::floor(v));
    // Depth 10 far exceeds what [2, 16] can absorb; integer rounding
    // must terminate the refinement instead of duplicating values.
    EXPECT_LE(int_lattice.size(), 15u);
}

TEST(Frontier, ValidationCatchesBadConfigurations)
{
    const auto base = api::parseSpec("experiment=hierarchy").spec;
    FrontierOptions options;
    options.objective = "mean_adder_speedup";
    EXPECT_FALSE(validateFrontier(base, {}, options).empty());
    EXPECT_FALSE(
        validateFrontier(base, {{"bogus", 0, 1, 3}}, options).empty());
    EXPECT_FALSE(
        validateFrontier(base, {{"policy", 0, 1, 3}}, options).empty());
    EXPECT_FALSE(
        validateFrontier(base, {{"l1_fraction", 0.8, 0.2, 3}}, options)
            .empty());
    FrontierOptions bad_objective = options;
    bad_objective.objective = "hit_rate";  // a cache column
    EXPECT_FALSE(
        validateFrontier(base, {{"l1_fraction", 0.2, 0.8, 3}},
                         bad_objective)
            .empty());
    FrontierOptions deep = options;
    deep.max_depth = 20;  // 64 * 2^20 + 1 lattice values: rejected
    EXPECT_FALSE(
        validateFrontier(base, {{"l1_fraction", 0.0, 1.0, 65}}, deep)
            .empty());
    // The same depth is fine on an integer axis with a narrow range:
    // the lattice saturates at the integer spacing.
    EXPECT_TRUE(
        validateFrontier(base, {{"transfers", 2, 16, 3}}, deep)
            .empty());
    EXPECT_TRUE(
        validateFrontier(base, {{"l1_fraction", 0.2, 0.8, 3}}, options)
            .empty());
}

/**
 * The exhaustive-mode property from the issue: with frontier = 0 and
 * a budget covering the whole lattice, the adaptive search must
 * enumerate exactly the brute-force SpecGrid over the per-axis
 * lattices and return its optimum.
 */
TEST(Frontier, ExhaustiveBudgetEqualsBruteForce)
{
    const auto base = api::parseSpec("experiment=bandwidth").spec;
    const FrontierAxis util{"utilization", 0.25, 1.0, 3};
    const FrontierAxis blocks{"blocks", 10, 80, 3};
    FrontierOptions options;
    options.objective = "required_draper_qps";
    options.max_depth = 2;
    options.budget = 10000;
    options.frontier = 0;  // refine everything: exhaustive mode

    api::SpecGrid brute;
    brute.base = base;
    std::vector<std::string> util_values;
    for (const double v :
         frontierAxisLattice(util, false, options.max_depth))
        util_values.push_back(frontierAxisValueText(v, false));
    std::vector<std::string> block_values;
    for (const double v :
         frontierAxisLattice(blocks, true, options.max_depth))
        block_values.push_back(frontierAxisValueText(v, true));
    brute.axis("utilization", util_values);
    brute.axis("blocks", block_values);

    sweep::SweepRunner runner({.threads = 2});
    const auto brute_table =
        runSpecSweepCached(runner, brute.expand(), nullptr).table;
    const auto obj = *brute_table.findColumn("required_draper_qps");
    const auto spec_col = *brute_table.findColumn("spec");
    double brute_best = -1.0;
    std::string brute_best_key;
    for (std::size_t r = 0; r < brute_table.rows(); ++r) {
        const double v = *brute_table.cell(r, obj).asNumber();
        if (v > brute_best) {
            brute_best = v;
            brute_best_key = brute_table.cell(r, spec_col).toString();
        }
    }

    const auto found =
        frontierSearch(runner, base, {util, blocks}, options, nullptr);
    EXPECT_EQ(found.evaluated, brute_table.rows());
    EXPECT_EQ(found.simulated, brute_table.rows());
    EXPECT_EQ(found.rounds > 1, true);
    EXPECT_DOUBLE_EQ(found.best_objective, brute_best);
    EXPECT_EQ(found.best_key, brute_best_key);
}

/**
 * The acceptance property: on the reference hierarchy design space
 * the default greedy frontier reaches the brute-force optimum with
 * strictly fewer simulated points than the exhaustive sweep.
 */
TEST(Frontier, GreedySearchReachesBruteOptimumWithFewerPoints)
{
    const auto base =
        api::parseSpec("experiment=hierarchy adders=60 n=64").spec;
    const FrontierAxis fraction{"l1_fraction", 0.2, 0.8, 3};
    const FrontierAxis transfers{"transfers", 2, 16, 3};
    FrontierOptions options;
    options.objective = "mean_adder_speedup";
    options.max_depth = 2;
    options.budget = 40;
    options.frontier = 3;

    api::SpecGrid brute;
    brute.base = base;
    std::vector<std::string> fraction_values;
    for (const double v :
         frontierAxisLattice(fraction, false, options.max_depth))
        fraction_values.push_back(frontierAxisValueText(v, false));
    std::vector<std::string> transfer_values;
    for (const double v :
         frontierAxisLattice(transfers, true, options.max_depth))
        transfer_values.push_back(frontierAxisValueText(v, true));
    brute.axis("l1_fraction", fraction_values);
    brute.axis("transfers", transfer_values);

    sweep::SweepRunner runner({.threads = 2});
    const auto brute_table =
        runSpecSweepCached(runner, brute.expand(), nullptr).table;
    const auto obj = *brute_table.findColumn("mean_adder_speedup");
    double brute_best = -1.0;
    for (std::size_t r = 0; r < brute_table.rows(); ++r)
        brute_best =
            std::max(brute_best, *brute_table.cell(r, obj).asNumber());

    const auto found = frontierSearch(runner, base,
                                      {fraction, transfers}, options,
                                      nullptr);
    EXPECT_DOUBLE_EQ(found.best_objective, brute_best);
    EXPECT_LT(found.simulated, brute_table.rows());
}

TEST(Frontier, ProgressStreamsMonotonicallyAndObservesEveryPoint)
{
    const auto base = api::parseSpec("experiment=bandwidth").spec;
    const std::vector<FrontierAxis> axes = {
        {"utilization", 0.25, 1.0, 3}, {"blocks", 10, 80, 3}};
    FrontierOptions options;
    options.objective = "required_draper_qps";
    options.max_depth = 2;
    options.budget = 30;

    std::size_t calls = 0;
    std::size_t last_evaluated = 0;
    options.on_progress = [&](const FrontierProgress &p) {
        ++calls;
        EXPECT_GE(p.round, 1u);
        EXPECT_GE(p.evaluated, last_evaluated);
        EXPECT_LE(p.round_done, p.round_total);
        last_evaluated = p.evaluated;
        return true;
    };
    sweep::SweepRunner runner({.threads = 2});
    const auto found =
        frontierSearch(runner, base, axes, options, nullptr);
    EXPECT_FALSE(found.cancelled);
    EXPECT_EQ(calls, found.evaluated);
    EXPECT_EQ(last_evaluated, found.evaluated);

    // A pure observer does not change the search: same table as the
    // callback-free run.
    FrontierOptions plain = options;
    plain.on_progress = nullptr;
    const auto reference =
        frontierSearch(runner, base, axes, plain, nullptr);
    EXPECT_EQ(csvOf(found.table), csvOf(reference.table));
}

TEST(Frontier, ProgressCallbackCancelsDeterministically)
{
    const auto base = api::parseSpec("experiment=bandwidth").spec;
    const std::vector<FrontierAxis> axes = {
        {"utilization", 0.25, 1.0, 3}, {"blocks", 10, 80, 3}};
    FrontierOptions options;
    options.objective = "required_draper_qps";
    options.max_depth = 2;
    options.budget = 30;

    constexpr std::size_t stop_after = 13;  // mid-round, on purpose
    options.on_progress = [](const FrontierProgress &p) {
        return p.evaluated < stop_after;
    };
    sweep::SweepRunner one({.threads = 1});
    sweep::SweepRunner many({.threads = 4});
    const auto a = frontierSearch(one, base, axes, options, nullptr);
    const auto b = frontierSearch(many, base, axes, options, nullptr);
    EXPECT_TRUE(a.cancelled);
    EXPECT_TRUE(b.cancelled);
    EXPECT_EQ(a.evaluated, stop_after);
    // Cancellation cuts in incorporation order, so the search is as
    // thread-count-independent cancelled as it is when it finishes.
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.best_key, b.best_key);
    EXPECT_EQ(csvOf(a.table), csvOf(b.table));
}

TEST(Frontier, WarmCacheRerunSimulatesNothingAndMatches)
{
    const auto path = tempPath("opt_frontier_warm.jsonl");
    const auto base = api::parseSpec("experiment=bandwidth").spec;
    const std::vector<FrontierAxis> axes = {
        {"utilization", 0.25, 1.0, 3}, {"blocks", 10, 80, 3}};
    FrontierOptions options;
    options.objective = "required_draper_qps";
    options.max_depth = 2;
    options.budget = 30;

    sweep::SweepRunner runner({.threads = 2});
    std::string cold_csv;
    std::size_t cold_evaluated = 0;
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, runner.options().base_seed), "");
        const auto cold =
            frontierSearch(runner, base, axes, options, &cache);
        EXPECT_GT(cold.simulated, 0u);
        cold_csv = csvOf(cold.table);
        cold_evaluated = cold.evaluated;
    }
    {
        ResultCache cache;
        ASSERT_EQ(cache.open(path, runner.options().base_seed), "");
        const auto warm =
            frontierSearch(runner, base, axes, options, &cache);
        EXPECT_EQ(warm.simulated, 0u);
        EXPECT_EQ(warm.cached, warm.evaluated);
        EXPECT_EQ(warm.evaluated, cold_evaluated);
        EXPECT_EQ(csvOf(warm.table), cold_csv);
    }
}

} // namespace
} // namespace opt
} // namespace qmh
