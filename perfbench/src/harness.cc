#include "harness.hh"

#include "api/service.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>
#include <utility>

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

namespace {

std::size_t
nearestRank(std::size_t n, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const auto rank = nearestRank(values.size(), p);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<double>
tailPercentile(std::size_t n, double cap, std::size_t min_beyond)
{
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
        if (p <= cap && samplesBeyond(n, p) >= min_beyond)
            return p;
    return std::nullopt;
}

Tail
summarize(const std::vector<double> &values, double cap)
{
    Tail tail;
    tail.samples = values.size();
    tail.p50 = median(values);
    if (const auto p = tailPercentile(values.size(), cap)) {
        tail.percentile = *p;
        tail.value = percentile(values, *p);
    }
    return tail;
}

double
windowedRate(const std::vector<double> &end_times,
             const std::vector<double> &amounts, double start,
             double window_s)
{
    std::vector<double> rates;
    double opened = start;
    double work = 0.0;
    for (std::size_t i = 0; i < end_times.size(); ++i) {
        work += amounts[i];
        const double length = end_times[i] - opened;
        if (length >= window_s) {
            rates.push_back(work / length);
            opened = end_times[i];
            work = 0.0;
        }
    }
    if (rates.empty() && !end_times.empty() && end_times.back() > start)
        rates.push_back(work / (end_times.back() - start));
    return median(rates);
}

Tail
windowedTail(const std::vector<double> &end_times,
             const std::vector<double> &values, double start,
             double window_s, double cap)
{
    std::vector<std::vector<double>> windows;
    std::vector<double> open;
    double opened = start;
    for (std::size_t i = 0; i < end_times.size(); ++i) {
        open.push_back(values[i]);
        if (end_times[i] - opened >= window_s) {
            windows.push_back(std::move(open));
            open.clear();
            opened = end_times[i];
        }
    }
    if (windows.empty())
        return summarize(values, cap);
    std::size_t smallest = windows.front().size();
    for (const auto &window : windows)
        smallest = std::min(smallest, window.size());
    const auto p = tailPercentile(smallest, cap);
    if (!p)
        return summarize(values, cap);
    std::vector<double> tails;
    for (const auto &window : windows)
        tails.push_back(percentile(window, *p));
    Tail tail;
    tail.samples = values.size();
    tail.p50 = median(values);
    tail.percentile = *p;
    tail.value = median(tails);
    tail.windows = windows.size();
    return tail;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

namespace {

std::uint64_t
threadTag()
{
    return static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

} // namespace

int
SpanRecorder::open(std::string name, std::uint64_t id, int parent,
                   std::uint64_t items)
{
    Span span;
    span.name = std::move(name);
    span.id = id;
    span.parent = parent;
    span.items = items;
    span.thread = threadTag();
    span.start = nowSeconds();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(std::move(span));
    return static_cast<int>(_spans.size() - 1);
}

void
SpanRecorder::close(int index, std::optional<std::uint64_t> items)
{
    const double end = nowSeconds();
    std::lock_guard<std::mutex> lock(_mutex);
    auto &span = _spans[static_cast<std::size_t>(index)];
    span.end = end;
    if (items)
        span.items = *items;
}

int
SpanRecorder::add(Span span)
{
    span.thread = threadTag();
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(std::move(span));
    return static_cast<int>(_spans.size() - 1);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

ScopedSpan::ScopedSpan(SpanRecorder &recorder, std::string name,
                       std::uint64_t id, int parent, std::uint64_t items)
    : _recorder(recorder),
      _index(recorder.open(std::move(name), id, parent, items))
{
}

ScopedSpan::~ScopedSpan() { _recorder.close(_index, _items); }

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const auto &span : spans)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start, span.end);

    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double begin = spans[i].start;
        const double end = spans[i].end;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = begin;
        for (const auto &[kid_start, kid_end] : kids) {
            const double lo = std::max(kid_start, reach);
            const double hi = std::min(kid_end, end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(kid_end, end));
        }
        self[i] = std::max(0.0, (end - begin) - covered);
    }
    return self;
}

SpanTotal
totalByName(const std::vector<Span> &spans,
            const std::vector<double> &self, const std::string &name)
{
    SpanTotal total;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != name)
            continue;
        total.self_s += self[i];
        total.items += spans[i].items;
        ++total.count;
    }
    return total;
}

std::string
chromeTrace(const std::vector<Span> &spans)
{
    const auto self = selfTimes(spans);
    double origin = spans.empty() ? 0.0 : spans.front().start;
    for (const auto &span : spans)
        origin = std::min(origin, span.start);
    // Small dense thread ids read better in a timeline than hashes.
    std::map<std::uint64_t, int> tids;
    std::string out = "{\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &span = spans[i];
        const auto tid =
            tids.emplace(span.thread, static_cast<int>(tids.size()))
                .first->second;
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"index\":%zu,"
            "\"parent\":%d,\"id\":%" PRIu64 ",\"items\":%" PRIu64
            ",\"self_us\":%.3f}}",
            i ? "," : "", qmh::sweep::jsonQuote(span.name).c_str(), tid,
            (span.start - origin) * 1e6, (span.end - span.start) * 1e6,
            i, span.parent, span.id, span.items, self[i] * 1e6);
        out += buf;
        out += '\n';
    }
    return out + "]}\n";
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

std::vector<std::string>
checkTraceRow(const std::vector<std::string> &columns,
              const std::vector<qmh::sweep::Cell> &row)
{
    std::vector<std::string> errors;
    if (row.size() != columns.size()) {
        errors.push_back("row has " + std::to_string(row.size()) +
                         " cells for " + std::to_string(columns.size()) +
                         " columns");
        return errors;
    }
    const auto cell = [&](const char *name) -> std::optional<double> {
        for (std::size_t i = 0; i < columns.size(); ++i)
            if (columns[i] == name)
                return row[i].asNumber();
        return std::nullopt;
    };
    const char *needed[] = {
        "accesses",   "hits",       "misses",        "mem_requests",
        "writebacks", "speedup",    "baseline_s",    "makespan_s",
        "blocks",     "peak_in_flight", "hit_rate",
        "transfer_utilization",     "mem_utilization",
        "block_utilization"};
    for (const char *name : needed)
        if (!cell(name)) {
            errors.push_back(std::string("missing numeric column ") +
                             name);
            return errors;
        }
    const auto value = [&](const char *name) { return *cell(name); };

    if (value("accesses") != value("hits") + value("misses"))
        errors.push_back("accesses != hits + misses");
    if (value("mem_requests") != value("misses") + value("writebacks"))
        errors.push_back("mem_requests != misses + writebacks");
    const double makespan = value("makespan_s");
    const double expected =
        makespan > 0.0 ? value("baseline_s") / makespan : 0.0;
    if (value("speedup") != expected)
        errors.push_back("speedup != baseline_s / makespan_s");
    for (const char *name : {"hit_rate", "transfer_utilization",
                             "mem_utilization", "block_utilization"}) {
        const double v = value(name);
        if (!(v >= 0.0 && v <= 1.0))
            errors.push_back(std::string(name) + " outside [0, 1]");
    }
    if (value("peak_in_flight") > value("blocks"))
        errors.push_back("peak_in_flight > blocks");
    return errors;
}

std::string
checkResponse(const std::string &id, std::size_t total,
              const std::vector<std::string> &records)
{
    const std::string quoted = qmh::sweep::jsonQuote(id);
    if (records.empty())
        return "no records";
    if (records.front().rfind("{\"type\":\"error\"", 0) == 0)
        return "refused: " + records.front();
    const std::string accepted = "{\"type\":\"accepted\",\"id\":" +
                                 quoted + ",\"total\":" +
                                 std::to_string(total) + ",";
    if (records.front().rfind(accepted, 0) != 0)
        return "first record is not accepted/total=" +
               std::to_string(total);
    if (records.size() != total + 2)
        return std::to_string(records.size()) + " records for " +
               std::to_string(total) + " points";
    for (std::size_t i = 0; i < total; ++i) {
        const std::string row = "{\"type\":\"row\",\"id\":" + quoted +
                                ",\"index\":" + std::to_string(i) + ",";
        if (records[i + 1].rfind(row, 0) != 0)
            return "record " + std::to_string(i + 1) + " is not row " +
                   std::to_string(i);
    }
    if (records.back() != qmh::api::recordDone(id, total, total, false))
        return "last record is not done with rows == total: " +
               records.back();
    return {};
}

void
FailureTally::record(bool ok, std::uint64_t weight)
{
    attempted += weight;
    if (!ok)
        failed += weight;
}

double
FailureTally::rate() const
{
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
}

// ---------------------------------------------------------------------
// Digest and result line
// ---------------------------------------------------------------------

void
RowsDigest::addText(const std::string &text)
{
    for (const unsigned char c : text) {
        _hash ^= c;
        _hash *= 0x100000001b3ULL;
    }
    // Separator so ("ab","c") and ("a","bc") differ.
    _hash ^= 0xff;
    _hash *= 0x100000001b3ULL;
}

void
RowsDigest::add(const std::vector<qmh::sweep::Cell> &row)
{
    for (const auto &cell : row)
        addText(cell.toJson());
    _hash ^= 0xfe;
    _hash *= 0x100000001b3ULL;
}

std::string
RowsDigest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, _hash);
    return buf;
}

void
Report::add(std::string name, double value, std::string unit)
{
    if (!std::isfinite(value))
        fail("metric " + name + " is not finite");
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Report::fail(std::string diagnostic)
{
    ++failed_checks;
    if (failures.size() < kept_failures)
        failures.push_back(std::move(diagnostic));
}

std::string
resultLine(const Report &report)
{
    std::string out = "{\"correct\": ";
    out += report.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.tally.attempted);
    out += ", \"failed\": " + std::to_string(report.tally.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const auto &metric = report.metrics[i];
        // %.17g keeps every digit the measurement has.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(metric.value) ? metric.value : -1.0);
        out += i ? ", " : "";
        out += qmh::sweep::jsonQuote(metric.name) + ": {\"value\": " +
               buf + ", \"unit\": " + qmh::sweep::jsonQuote(metric.unit) +
               "}";
    }
    return out + "}}";
}

} // namespace perfbench
