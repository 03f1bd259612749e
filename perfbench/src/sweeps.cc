/**
 * @file
 * sweep-shared, sweep-distinct and sweep-pressure: one closed-loop
 * caller submitting a trace grid to one api::Session, one job in
 * flight at a time.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "api/grid.hh"
#include "api/session.hh"
#include "api/workload.hh"
#include "bench.hh"
#include "platform.hh"

namespace perfbench {

using namespace qmh;

// ---------------------------------------------------------------------
// Shared by every workload
// ---------------------------------------------------------------------

api::ExperimentSpec
parseOrThrow(const std::string &text)
{
    auto parsed = api::parseSpec(text);
    if (!parsed.ok())
        throw std::runtime_error("bad spec '" + text +
                                 "': " + parsed.errors.front());
    return parsed.spec;
}

std::uint64_t
traceGates(const api::ExperimentSpec &spec, std::uint64_t seed)
{
    // The generated program depends on (workload, n, gates, reps) and,
    // for seeded generators, the row seed; memoize the seed-free ones.
    static std::map<std::string, std::uint64_t> memo;
    const auto key = spec.workload + " " + std::to_string(spec.n) + " " +
                     std::to_string(spec.gates) + " " +
                     std::to_string(spec.reps);
    if (spec.workload != "random")
        if (const auto found = memo.find(key); found != memo.end())
            return found->second;
    Random rng(seed);
    const auto gates = api::buildWorkload(spec, rng).program.size();
    if (spec.workload != "random")
        memo.emplace(key, gates);
    return gates;
}

namespace {

/** Delegates to a real experiment, recording each run() as a span. */
class TimedExperiment final : public api::Experiment
{
  public:
    TimedExperiment(std::unique_ptr<api::Experiment> inner,
                    SpanRecorder &spans, int parent, std::uint64_t id)
        : Experiment(inner->spec()), _inner(std::move(inner)),
          _spans(spans), _parent(parent), _id(id)
    {
    }

    std::string name() const override { return _inner->name(); }
    std::vector<std::string> validate() const override
    {
        return _inner->validate();
    }
    std::vector<std::string> columns() const override
    {
        return _inner->columns();
    }
    std::vector<sweep::Cell> run(Random &rng) const override
    {
        ScopedSpan span(_spans, "session.run", _id, _parent);
        return _inner->run(rng);
    }

  private:
    std::unique_ptr<api::Experiment> _inner;
    SpanRecorder &_spans;
    int _parent;
    std::uint64_t _id;
};

} // namespace

void
printSetupSamples(const std::vector<double> &setup_s)
{
    std::printf("setup samples (s):");
    for (const double s : setup_s)
        std::printf(" %.6f", s);
    std::printf("\n");
}

JobOutcome
runSessionJob(api::Session &session,
              const std::vector<api::ExperimentSpec> &specs,
              api::SubmitOptions options, SpanRecorder *spans,
              std::uint64_t job_id, const RowSink &sink)
{
    JobOutcome outcome;
    const double t0 = nowSeconds();
    int job_span = -1;
    std::optional<api::Outcome<api::JobHandle>> submitted;
    if (spans) {
        // The traced path submits delegating wrappers, the untraced
        // path the specs themselves; rows must not differ.
        auto experiments = api::validateExperiments(specs);
        if (!experiments.ok())
            throw std::runtime_error("validate: " +
                                     experiments.error().message);
        job_span = spans->open("session.job", job_id);
        std::vector<std::unique_ptr<api::Experiment>> wrapped;
        auto built = std::move(experiments).value();
        for (std::size_t i = 0; i < built.size(); ++i)
            wrapped.push_back(std::make_unique<TimedExperiment>(
                std::move(built[i]), *spans, job_span,
                job_id * 1000 + i));
        ScopedSpan submit(*spans, "session.submit", job_id, job_span);
        submitted.emplace(
            session.submit(std::move(wrapped), std::move(options)));
    } else {
        submitted.emplace(session.submit(specs, std::move(options)));
    }
    if (!submitted->ok()) {
        outcome.refused = true;
        outcome.failed = specs.size();
        if (spans)
            spans->close(job_span);
        outcome.latency_s = nowSeconds() - t0;
        return outcome;
    }
    auto handle = std::move(*submitted).value();
    const auto &columns = handle.columns();
    std::size_t index = 0;
    while (auto row = handle.nextRow()) {
        if (index == 0 && spans)
            spans->add(Span{"session.first_row", t0, nowSeconds(),
                            job_span, job_id, 1, 0});
        sink(index, columns, *row);
        ++index;
    }
    const auto result = handle.wait();
    outcome.latency_s = nowSeconds() - t0;
    if (spans)
        spans->close(job_span, specs.size());
    outcome.rows = result.completed;
    outcome.failed = specs.size() - result.completed;
    if (index != result.completed)
        outcome.failed = specs.size();
    return outcome;
}

void
addSessionMetrics(const std::vector<Span> &spans, unsigned workers,
                  std::size_t failed_points, Report &report)
{
    const auto self = selfTimes(spans);
    double job_s = 0.0;
    double run_s = 0.0;
    double submit_s = 0.0;
    double first_row_s = 0.0;
    std::size_t jobs = 0;
    std::size_t runs = 0;
    std::size_t submits = 0;
    std::size_t first_rows = 0;
    for (const auto &span : spans) {
        const double d = span.end - span.start;
        if (span.name == "session.job") {
            job_s += d;
            ++jobs;
        } else if (span.name == "session.run") {
            run_s += d;
            ++runs;
        } else if (span.name == "session.submit") {
            submit_s += d;
            ++submits;
        } else if (span.name == "session.first_row") {
            first_row_s += d;
            ++first_rows;
        }
    }
    const double capacity = static_cast<double>(workers) * job_s;
    report.add("session.submit_us", ratio(submit_s, submits) * 1e6, "us");
    report.add("session.first_row_ms", ratio(first_row_s, first_rows) * 1e3,
               "ms");
    report.add("session.busy_share", ratio(run_s, capacity), "ratio");
    report.add("session.overhead_us_per_point",
               ratio(capacity - run_s, static_cast<double>(runs)) * 1e6,
               "us");
    report.add("session.failed_points", static_cast<double>(failed_points),
               "count");
    std::printf("session: %zu job(s), %zu point run(s), job self time "
                "%.3f ms total\n",
                jobs, runs,
                totalByName(spans, self, "session.job").self_s * 1e3);
}

// ---------------------------------------------------------------------
// The two sweeps
// ---------------------------------------------------------------------

namespace {

/** One sweep workload: the grid a job submits and how jobs are seeded. */
struct SweepPlan
{
    std::string name;
    std::vector<api::ExperimentSpec> specs;
    std::vector<std::uint64_t> gates;
    std::uint64_t base_seed = 0;
    /** Every job re-seeds its points, so no two points share a circuit. */
    bool distinct = false;

    std::uint64_t
    jobSeed(std::size_t job) const
    {
        return distinct ? sweep::pointSeed(base_seed, job) : base_seed;
    }
};

using Axes = std::vector<std::pair<std::string, std::vector<std::string>>>;

void
appendGrid(std::vector<api::ExperimentSpec> &out, const std::string &base,
           const Axes &axes)
{
    api::SpecGrid grid;
    grid.base = parseOrThrow(base);
    for (const auto &[key, values] : axes)
        grid.axis(key, values);
    const auto errors = grid.validate();
    if (!errors.empty())
        throw std::runtime_error("grid: " + errors.front());
    for (auto &spec : grid.expand())
        out.push_back(std::move(spec));
}

/** Fisher-Yates with the benchmark's seeded stream. */
template <typename T>
void
shuffle(std::vector<T> &items, Random &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.uniformInt(i)]);
}

SweepPlan
makePlan(const std::string &workload, std::uint64_t seed)
{
    SweepPlan plan;
    plan.name = workload;
    // The gated sweeps size the level-1 cache to hold each circuit's
    // whole working set; sweep-pressure runs the same random circuits
    // under cache pressure, where the engine's rows currently fail the
    // mem_requests = misses + writebacks check (README, "Known
    // failures").
    if (workload == "sweep-shared") {
        const Axes axes = {{"blocks", {"16", "49"}},
                           {"transfers", {"2", "5", "10"}},
                           {"capacity_x", {"1.5", "2"}},
                           {"mem_banks", {"1", "8"}}};
        for (const char *base : {"experiment=trace workload=draper n=256",
                                 "experiment=trace workload=ripple n=256",
                                 "experiment=trace workload=qft n=128"})
            appendGrid(plan.specs, base, axes);
    } else {
        const bool pressure = workload == "sweep-pressure";
        appendGrid(plan.specs,
                   "experiment=trace workload=random n=256 gates=20000 "
                   "mem_ports=1",
                   {{"capacity_x", pressure
                                       ? std::vector<std::string>{"0.25",
                                                                  "0.5"}
                                       : std::vector<std::string>{"1",
                                                                  "2"}},
                    {"mem_banks", {"1", "2"}},
                    {"transfers", {"2", "5"}},
                    {"blocks", {"16", "49"}}});
        plan.distinct = true;
    }
    Random rng(seed);
    plan.base_seed = rng.next();
    shuffle(plan.specs, rng);
    return plan;
}

/** What one phase (setup + timed loop) of a sweep measured. */
struct SweepPhase
{
    SweepPlan plan;
    std::vector<double> setup_s;
    std::vector<double> latency_ms;
    /** Per job: when it ended, its rows and its gates. */
    std::vector<double> job_end;
    std::vector<double> job_rows;
    std::vector<double> job_gates;
    double start = 0.0;
    double wall_s = 0.0;
    std::size_t jobs = 0;
    std::size_t rows = 0;
    /** Rows of job 0 (the warm-up job), cell for cell. */
    RowsDigest digest;
    RowsDigest sample_digest; ///< first sample_points rows of job 0
    std::vector<std::vector<sweep::Cell>> job0_rows;
    std::vector<std::string> columns;
};

constexpr std::size_t sample_points = 8;

/** Check, count and digest every row a job streams. */
struct RowChecker
{
    const SweepPlan &plan;
    Report &report;
    std::size_t job;
    RowsDigest digest;
    RowsDigest sample;
    std::uint64_t gates = 0;
    std::vector<std::vector<sweep::Cell>> *keep = nullptr;
    std::vector<std::string> *columns = nullptr;

    void
    operator()(std::size_t index, const std::vector<std::string> &cols,
               const std::vector<sweep::Cell> &row)
    {
        for (const auto &error : checkTraceRow(cols, row))
            report.fail(plan.name + " job " + std::to_string(job) +
                        " point " + std::to_string(index) + ": " + error);
        if (index < plan.gates.size())
            gates += plan.gates[index];
        digest.add(row);
        if (index < sample_points)
            sample.add(row);
        if (keep) {
            keep->push_back(row);
            *columns = cols;
        }
    }
};

SweepPhase
runSweepPhase(const RunOptions &options, double seconds,
              SpanRecorder *spans, Report &report)
{
    SweepPhase phase;
    // One set-up: plan, validation, gate counts, a Session and its
    // warm-up job (job 0). Returns the Session.
    const auto setUp = [&] {
        phase.job0_rows.clear();
        const double t0 = nowSeconds();
        phase.plan = makePlan(options.workload, options.seed);
        auto &plan = phase.plan;
        const auto validated = api::validateExperiments(plan.specs);
        if (!validated.ok())
            throw std::runtime_error("validate: " +
                                     validated.error().message);
        plan.gates.clear();
        for (std::size_t i = 0; i < plan.specs.size(); ++i) {
            const auto &spec = plan.specs[i];
            // A random circuit has exactly `gates` gates; the seeded
            // build of point 0 proves it once per setup.
            plan.gates.push_back(
                spec.workload == "random" && i > 0
                    ? static_cast<std::uint64_t>(spec.gates)
                    : traceGates(spec,
                                 sweep::pointSeed(plan.jobSeed(0), i)));
        }
        if (plan.distinct &&
            plan.gates.front() !=
                static_cast<std::uint64_t>(plan.specs.front().gates))
            throw std::runtime_error("random workload gate count "
                                     "differs from its spec");
        auto session = std::make_unique<api::Session>(
            sweep::SweepOptions{options.workers, plan.base_seed});
        RowChecker warm{plan, report, 0, {}, {}, 0, &phase.job0_rows,
                        &phase.columns};
        api::SubmitOptions submit;
        submit.base_seed = plan.jobSeed(0);
        const auto outcome = runSessionJob(*session, plan.specs, submit,
                                           spans, 0, std::ref(warm));
        if (outcome.refused || outcome.failed)
            report.fail(plan.name + ": warm-up job failed");
        if (!phase.setup_s.empty() &&
            warm.digest.value() != phase.digest.value())
            report.fail(plan.name + ": warm-up rows differ between "
                                    "set-ups");
        phase.digest = warm.digest;
        phase.sample_digest = warm.sample;
        phase.setup_s.push_back(nowSeconds() - t0);
        return session;
    };
    auto session = setUp();

    const auto &plan = phase.plan;
    // The traced half runs other jobs than the untraced half, so no
    // process-wide memo carries work between the two.
    const std::size_t first_job = spans ? 1000001 : 1;
    const double start = nowSeconds();
    phase.start = start;
    while (nowSeconds() - start < seconds || phase.jobs < min_requests) {
        const std::size_t job = first_job + phase.jobs;
        RowChecker checker{plan, report, job, {}, {}, 0, nullptr, nullptr};
        api::SubmitOptions submit;
        submit.base_seed = plan.jobSeed(job);
        const auto outcome = runSessionJob(*session, plan.specs, submit,
                                           spans, job, std::ref(checker));
        report.tally.record(true, outcome.rows);
        report.tally.record(false, outcome.failed);
        if (outcome.refused)
            report.fail(plan.name + ": job " + std::to_string(job) +
                        " refused");
        if (!plan.distinct &&
            checker.digest.value() != phase.digest.value())
            report.fail(plan.name + ": job " + std::to_string(job) +
                        " rows differ from job 0");
        phase.latency_ms.push_back(outcome.latency_s * 1e3);
        phase.job_end.push_back(nowSeconds());
        phase.job_rows.push_back(static_cast<double>(outcome.rows));
        phase.job_gates.push_back(static_cast<double>(checker.gates));
        phase.rows += outcome.rows;
        ++phase.jobs;
    }
    phase.wall_s = nowSeconds() - start;
    session.reset();
    // A process started on an idle host runs its first second or so up
    // to 3x slower, and set-ups measured back to back at the start all
    // fell in it. So one set-up runs before the timed loop and the rest
    // after it: setup_s, their median, is the warm cost.
    for (int repeat = 1; repeat < setup_repeats; ++repeat)
        setUp();

    // 1 worker against the timed pool on a sample of job 0.
    api::Session single(sweep::SweepOptions{1, plan.base_seed});
    const std::vector<api::ExperimentSpec> sample(
        plan.specs.begin(),
        plan.specs.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(sample_points, plan.specs.size())));
    RowChecker one{plan, report, 0, {}, {}, 0, nullptr, nullptr};
    api::SubmitOptions submit;
    submit.base_seed = plan.jobSeed(0);
    runSessionJob(single, sample, submit, nullptr, 0, std::ref(one));
    if (one.sample.value() != phase.sample_digest.value())
        report.fail(plan.name + ": 1-worker rows differ from the " +
                    std::to_string(options.workers) + "-worker pool");
    return phase;
}

void
printSimulatedSummary(const SweepPhase &phase)
{
    // Deterministic model outputs: informational, never gated.
    const auto column = [&](const char *name) {
        for (std::size_t i = 0; i < phase.columns.size(); ++i)
            if (phase.columns[i] == name)
                return i;
        throw std::runtime_error(std::string("no column ") + name);
    };
    double speedup = 0.0;
    double hit_rate = 0.0;
    double makespan = 0.0;
    for (const auto &row : phase.job0_rows) {
        speedup += row[column("speedup")].asNumber().value_or(0.0);
        hit_rate += row[column("hit_rate")].asNumber().value_or(0.0);
        makespan += row[column("makespan_s")].asNumber().value_or(0.0);
    }
    const double n = static_cast<double>(phase.job0_rows.size());
    std::printf("rows_digest %s (job 0, %zu rows)\n",
                phase.digest.hex().c_str(), phase.job0_rows.size());
    std::printf("simulated (informational): mean speedup %.6g, mean "
                "hit_rate %.6g, mean makespan_s %.6g\n",
                ratio(speedup, n), ratio(hit_rate, n), ratio(makespan, n));
}

} // namespace

void
runSweep(const RunOptions &options, Report &report)
{
    if (!options.trace) {
        const auto phase =
            runSweepPhase(options, options.seconds, nullptr, report);
        const auto tail = windowedTail(phase.job_end, phase.latency_ms,
                                       phase.start, tail_window_s, 90.0);
        std::printf("%s: %zu job(s) x %zu points in %.3f s on %u "
                    "worker(s)\n",
                    phase.plan.name.c_str(), phase.jobs,
                    phase.plan.specs.size(), phase.wall_s, options.workers);
        std::printf("request latency (one job): n=%zu p50 %.4f ms, "
                    "p%g %.4f ms (median over %zu windows of >= %g s; "
                    "highest percentile <= p90 with >= 10 samples beyond "
                    "it in each)\n",
                    tail.samples, tail.p50, tail.percentile, tail.value,
                    tail.windows, tail_window_s);
        printSimulatedSummary(phase);
        printSetupSamples(phase.setup_s);
        const double rate = windowedRate(phase.job_end, phase.job_rows,
                                         phase.start, rate_window_s);
        std::printf("throughput: %.6g points/s over the whole run, %.6g "
                    "as the median of %g s windows\n",
                    ratio(static_cast<double>(phase.rows), phase.wall_s),
                    rate, rate_window_s);
        report.add("setup_s", median(phase.setup_s), "s");
        report.add("points_per_s", rate, "points/s");
        report.add("gates_per_s",
                   windowedRate(phase.job_end, phase.job_gates, phase.start,
                                rate_window_s),
                   "gates/s");
        report.add("request_p50_ms", tail.p50, "ms");
        report.add("request_p99_ms", tail.value, "ms");
        report.add("rows_per_s", rate, "rows/s");
        report.add("peak_rss_mb", peakRssMiB(), "MiB");
        return;
    }

    // Traced run: an untraced half, a traced half over the same
    // setup, then the layer replays.
    const auto plain =
        runSweepPhase(options, options.seconds / 2, nullptr, report);
    SpanRecorder spans;
    const auto traced =
        runSweepPhase(options, options.seconds / 2, &spans, report);
    if (plain.digest.value() != traced.digest.value())
        report.fail(traced.plan.name +
                    ": traced rows_digest differs from untraced");
    printSimulatedSummary(traced);
    const double plain_s =
        ratio(plain.wall_s, static_cast<double>(plain.rows));
    const double traced_s =
        ratio(traced.wall_s, static_cast<double>(traced.rows));
    std::printf("tracing overhead: %.4f us/point untraced, %.4f us/point "
                "traced\n",
                plain_s * 1e6, traced_s * 1e6);
    report.add("tracing.overhead_share", ratio(traced_s, plain_s) - 1.0,
               "ratio");
    addSessionMetrics(spans.spans(), options.workers, report.tally.failed,
                      report);

    LayerInputs inputs;
    const auto &plan = traced.plan;
    for (std::size_t i = 0; i < plan.specs.size(); ++i) {
        inputs.points.push_back(plan.specs[i]);
        inputs.seeds.push_back(sweep::pointSeed(plan.jobSeed(0), i));
    }
    std::vector<std::string> keys;
    for (const auto &spec : plan.specs)
        keys.push_back(api::printSpec(spec));
    for (std::size_t job = 0; job < std::min<std::size_t>(traced.jobs, 16);
         ++job) {
        // A JSON number holds seeds only up to 2^53; the protocol takes
        // the full 64-bit seed as a decimal string.
        std::string line = "{\"id\":\"job" + std::to_string(job) +
                           "\",\"seed\":\"" +
                           std::to_string(plan.jobSeed(job)) +
                           "\",\"specs\":[";
        for (std::size_t i = 0; i < keys.size(); ++i)
            line += (i ? "," : "") + sweep::jsonQuote(keys[i]);
        inputs.request_lines.push_back(line + "]}");
    }
    for (std::size_t job = 0; job < traced.jobs; ++job)
        inputs.key_stream.push_back(keys);
    inputs.cache_seed = plan.base_seed;
    for (const auto &row : traced.job0_rows)
        inputs.sample_rows.push_back({traced.columns, row});
    runLayerReplays(inputs, options, spans, report);
}

} // namespace perfbench
