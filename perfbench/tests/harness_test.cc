/**
 * @file
 * Unit tests of the benchmark's own logic: the percentile rule, span
 * self-time arithmetic, the trace-row invariant checker, the response
 * framing check and failure accounting. Plain asserts that stay on in
 * every build; exits non-zero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/service.hh"
#include "harness.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool condition, const char *what, int line)
{
    if (!condition) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
percentileRule()
{
    // p99 of n samples leaves n - ceil(0.99 n) beyond it: 10 at 1000.
    EXPECT(samplesBeyond(1000, 99.0) == 10);
    EXPECT(samplesBeyond(999, 99.0) == 9);
    EXPECT(tailPercentile(1000, 99.0) == 99.0);
    EXPECT(tailPercentile(999, 99.0) == 95.0);
    EXPECT(tailPercentile(10000, 99.9) == 99.9);
    EXPECT(tailPercentile(10000, 99.0) == 99.0); // the cap holds
    EXPECT(tailPercentile(150, 99.0) == 90.0);
    EXPECT(tailPercentile(20, 99.0) == 50.0);
    EXPECT(!tailPercentile(19, 99.0));
    EXPECT(!tailPercentile(0, 99.0));

    std::vector<double> values;
    for (int i = 1000; i >= 1; --i)
        values.push_back(i);
    EXPECT(percentile(values, 99.0) == 990.0);
    EXPECT(percentile(values, 50.0) == 500.0);
    EXPECT(near(median(values), 500.5));
    const auto tail = summarize(values, 99.0);
    EXPECT(tail.samples == 1000);
    EXPECT(tail.percentile == 99.0);
    EXPECT(tail.value == 990.0);
    // 150 samples support p90 at most: 15 beyond it, 7 beyond p95.
    values.resize(150);
    const auto short_tail = summarize(values, 99.0);
    EXPECT(short_tail.percentile == 90.0);
    EXPECT(short_tail.samples == 150);
}

void
windowedThroughput()
{
    // Windows close at the first operation end >= 1 s after opening:
    // [0,1] [1,2] [2,3] [3,4.5] give 10, 10, 10 and 10/1.5.
    EXPECT(near(windowedRate({1, 2, 3, 4.5}, {10, 10, 10, 10}, 0, 1), 10));
    // A stall moves the mean, not the median of windows.
    EXPECT(near(windowedRate({1, 2, 3, 9}, {10, 10, 10, 10}, 0, 1), 10));
    // A short trailing window is dropped...
    EXPECT(near(windowedRate({1, 1.5}, {10, 100}, 0, 1), 10));
    // ...unless it is the only one.
    EXPECT(near(windowedRate({0.5}, {5}, 0, 1), 10));
    EXPECT(windowedRate({}, {}, 0, 1) == 0.0);
}

void
windowedLatencyTail()
{
    // Three 20-sample windows; p75 leaves 5 beyond it in each, p50
    // leaves 10, so the tail is every window's p50.
    std::vector<double> ends;
    std::vector<double> values;
    for (int w = 0; w < 3; ++w)
        for (int i = 1; i <= 20; ++i) {
            ends.push_back(w + i / 20.0);
            // The middle window is a burst, ten times slower.
            values.push_back(i * (w == 1 ? 10.0 : 1.0));
        }
    const auto tail = windowedTail(ends, values, 0, 1, 90.0);
    EXPECT(tail.windows == 3);
    EXPECT(tail.samples == 60);
    EXPECT(tail.percentile == 50.0);
    EXPECT(tail.value == 10.0); // the burst's 100 is outvoted
    EXPECT(tail.p50 == median(values));
    // Windows too small for any tail: the whole run's rule applies.
    const auto whole = windowedTail(ends, values, 0, 0.01, 90.0);
    EXPECT(whole.windows == 1);
    EXPECT(whole.percentile == summarize(values, 90.0).percentile);
    EXPECT(whole.value == summarize(values, 90.0).value);
    // No window closes: the same.
    EXPECT(windowedTail(ends, values, 0, 100, 90.0).value ==
           summarize(values, 90.0).value);
}

void
spanSelfTime()
{
    std::vector<Span> spans(5);
    spans[0] = {"parent", 0.0, 10.0, -1, 0, 1, 0};
    spans[1] = {"child", 1.0, 3.0, 0, 0, 1, 0};
    spans[2] = {"child", 2.0, 4.0, 0, 0, 1, 0};  // overlaps child 1
    spans[3] = {"child", 8.0, 12.0, 0, 0, 1, 0}; // runs past the parent
    spans[4] = {"grandchild", 2.5, 3.5, 2, 0, 4, 0};
    const auto self = selfTimes(spans);
    // Children cover [1,4] and [8,10] of the parent: 5 of its 10.
    EXPECT(near(self[0], 5.0));
    EXPECT(near(self[1], 2.0));
    // Only direct children count: the grandchild takes 1 from child 2.
    EXPECT(near(self[2], 1.0));
    EXPECT(near(self[3], 4.0));
    EXPECT(near(self[4], 1.0));
    const auto children = totalByName(spans, self, "child");
    EXPECT(children.count == 3);
    EXPECT(children.items == 3);
    EXPECT(near(children.self_s, 7.0));

    SpanRecorder recorder;
    {
        ScopedSpan outer(recorder, "outer", 7);
        ScopedSpan inner(recorder, "inner", 7, outer.index(), 3);
    }
    const auto recorded = recorder.spans();
    EXPECT(recorded.size() == 2);
    EXPECT(recorded[1].parent == 0);
    EXPECT(recorded[1].items == 3);
    EXPECT(recorded[0].end >= recorded[1].end);
    EXPECT(selfTimes(recorded)[0] <= recorded[0].end - recorded[0].start);
}

void
traceRowChecker()
{
    // A real row from the engine is sound.
    auto spec = qmh::api::parseSpec(
                    "experiment=trace workload=draper n=16 capacity_x=0.5")
                    .spec;
    const auto experiment = qmh::api::makeExperiment(spec);
    qmh::Random rng(1);
    const auto columns = experiment->columns();
    const auto row = experiment->run(rng);
    EXPECT(checkTraceRow(columns, row).empty());

    const auto corrupted = [&](const char *name, qmh::sweep::Cell value) {
        auto copy = row;
        for (std::size_t i = 0; i < columns.size(); ++i)
            if (columns[i] == name)
                copy[i] = value;
        return checkTraceRow(columns, copy);
    };
    EXPECT(corrupted("hits", std::uint64_t{0}).size() == 1);
    EXPECT(corrupted("writebacks", std::uint64_t{1u << 30}).size() == 1);
    EXPECT(corrupted("speedup", 1e9).size() == 1);
    EXPECT(corrupted("block_utilization", 1.5).size() == 1);
    EXPECT(corrupted("mem_utilization", -0.1).size() == 1);
    EXPECT(corrupted("peak_in_flight", std::uint64_t{1000000}).size() == 1);
    EXPECT(corrupted("accesses", "oops").size() == 1);
    auto short_row = row;
    short_row.pop_back();
    EXPECT(checkTraceRow(columns, short_row).size() == 1);
}

void
responseFraming()
{
    const std::vector<std::string> columns = {"spec", "seed"};
    const std::vector<std::string> good = {
        qmh::api::recordAccepted("q1", 2, columns),
        qmh::api::recordRow("q1", 0, columns, {"a", std::uint64_t{1}}),
        qmh::api::recordRow("q1", 1, columns, {"b", std::uint64_t{2}}),
        qmh::api::recordDone("q1", 2, 2, false)};
    EXPECT(checkResponse("q1", 2, good).empty());
    EXPECT(!checkResponse("q1", 3, good).empty());

    auto cancelled = good;
    cancelled.back() = qmh::api::recordDone("q1", 2, 2, true);
    EXPECT(!checkResponse("q1", 2, cancelled).empty());
    auto short_done = good;
    short_done.back() = qmh::api::recordDone("q1", 1, 2, false);
    EXPECT(!checkResponse("q1", 2, short_done).empty());
    auto swapped = good;
    std::swap(swapped[1], swapped[2]);
    EXPECT(!checkResponse("q1", 2, swapped).empty());

    qmh::api::Error refusal;
    refusal.code = qmh::api::ErrorCode::Unavailable;
    refusal.message = "too many clients";
    const std::vector<std::string> refused = {
        qmh::api::recordError("q1", refusal)};
    EXPECT(checkResponse("q1", 2, refused).rfind("refused", 0) == 0);
    EXPECT(!checkResponse("q1", 2, {}).empty());
}

void
errorRate()
{
    FailureTally tally;
    EXPECT(tally.rate() == 0.0);
    tally.record(true, 72);  // a job whose 72 points completed
    tally.record(false, 8);  // a refused job of 8 points
    EXPECT(tally.attempted == 80);
    EXPECT(tally.failed == 8);
    EXPECT(near(tally.rate(), 0.1));
    // Requests: one refused (error record) and one failed framing
    // count as failed against every request sent.
    FailureTally requests;
    const std::vector<std::string> columns = {"spec", "seed"};
    const std::vector<std::vector<std::string>> responses = {
        {qmh::api::recordAccepted("a", 0, columns),
         qmh::api::recordDone("a", 0, 0, false)},
        {qmh::api::recordError("b", qmh::api::Error{})},
        {qmh::api::recordAccepted("c", 1, columns),
         qmh::api::recordDone("c", 0, 1, false)},
    };
    const char *ids[] = {"a", "b", "c"};
    const std::size_t totals[] = {0, 1, 1};
    for (std::size_t i = 0; i < responses.size(); ++i)
        requests.record(checkResponse(ids[i], totals[i], responses[i]).empty());
    EXPECT(requests.attempted == 3);
    EXPECT(requests.failed == 2);

    Report report;
    report.add("x", 1.0, "s");
    EXPECT(report.correct());
    report.add("nan", std::nan(""), "s");
    EXPECT(!report.correct());
}

void
digestAndResultLine()
{
    RowsDigest a;
    RowsDigest b;
    a.add({"x", 1.5});
    a.add({"y", std::uint64_t{2}});
    b.add({"y", std::uint64_t{2}});
    b.add({"x", 1.5});
    EXPECT(a.value() != b.value());
    RowsDigest c;
    c.addText("ab");
    c.addText("c");
    RowsDigest d;
    d.addText("a");
    d.addText("bc");
    EXPECT(c.value() != d.value());

    Report report;
    report.tally.record(true, 3);
    report.add("latency_ms", 1.25, "ms");
    EXPECT(resultLine(report) ==
           "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
           "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
           "\"ms\"}}}");
}

} // namespace

int
main()
{
    percentileRule();
    windowedThroughput();
    windowedLatencyTail();
    spanSelfTime();
    traceRowChecker();
    responseFraming();
    errorRate();
    digestAndResultLine();
    if (failures) {
        std::fprintf(stderr, "%d expectation(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench harness tests passed\n");
    return 0;
}
