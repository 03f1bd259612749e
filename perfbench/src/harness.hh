/**
 * @file
 * The benchmark's own measurement logic, independent of the workloads
 * it drives: percentiles under the ten-samples-beyond rule, in-memory
 * spans with self-time arithmetic, the trace-row invariant checker,
 * failure accounting, the rows digest and the result line.
 *
 * Everything here is plain data and arithmetic so the unit tests in
 * perfbench/tests pin it without running a simulation.
 */

#ifndef QMH_PERFBENCH_HARNESS_HH
#define QMH_PERFBENCH_HARNESS_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sweep/emit.hh"

namespace perfbench {

/** Seconds on the monotonic clock (never wall-clock dates). */
double nowSeconds();

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

/** Nearest-rank percentile @p p (0 < p <= 100) of unsorted @p values. */
double percentile(std::vector<double> values, double p);

/** Median (nearest-rank p50 is biased; this interpolates the middle). */
double median(std::vector<double> values);

/**
 * Samples strictly beyond the nearest-rank @p p percentile of @p n
 * samples: n - ceil(p/100 * n).
 */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest percentile of the ladder 99.9 / 99 / 95 / 90 / 75 / 50
 * that is at most @p cap and leaves at least @p min_beyond samples
 * beyond it; nullopt when even p50 does not.
 */
std::optional<double> tailPercentile(std::size_t n, double cap,
                                     std::size_t min_beyond = 10);

/** A reported tail: which percentile, its value, and the sample count. */
struct Tail
{
    double p50 = 0.0;
    double percentile = 0.0; ///< 0 when the sample supports no tail
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t windows = 1; ///< windows the tail is the median over
};

/** Median and rule-chosen tail of @p values (tail capped at @p cap). */
Tail summarize(const std::vector<double> &values, double cap);

/**
 * Throughput as the median over windows: operations ending at
 * @p end_times (non-decreasing, after @p start) with @p amounts of
 * work are grouped into consecutive windows that close at the first
 * operation end at least @p window_s after the window opened; each
 * window's rate is its work over its length. A trailing window shorter
 * than @p window_s is dropped unless it is the only one. A median of
 * windows shrugs off a stall that a mean over the whole run keeps.
 */
double windowedRate(const std::vector<double> &end_times,
                    const std::vector<double> &amounts, double start,
                    double window_s);

/**
 * summarize(), with the tail taken as the median over windows: the
 * @p values of operations ending at @p end_times are grouped into
 * windows exactly as windowedRate groups them. The percentile is the
 * rule's choice (capped at @p cap) for the smallest window, so every
 * window reports the same one, and the tail is the median of the
 * windows' percentiles; p50 and the sample count stay whole-run. When
 * the smallest window supports no tail this is summarize(). A burst
 * of host noise then moves one window's tail, not the run's.
 */
Tail windowedTail(const std::vector<double> &end_times,
                  const std::vector<double> &values, double start,
                  double window_s, double cap);

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    double start = 0.0;  ///< seconds, nowSeconds() clock
    double end = 0.0;
    int parent = -1;     ///< index into the recorder's spans, -1 = root
    std::uint64_t id = 0;     ///< point or request id
    std::uint64_t items = 1;  ///< work units the span covers
    std::uint64_t thread = 0; ///< recording thread (for the timeline)
};

/**
 * Spans kept in memory until the run ends. Thread-safe: workers of
 * the session pool record experiment spans concurrently with the
 * main thread.
 */
class SpanRecorder
{
  public:
    /** Open a span now; returns its index (the parent of later ones). */
    int open(std::string name, std::uint64_t id = 0, int parent = -1,
             std::uint64_t items = 1);

    /** Close span @p index now, optionally fixing its item count. */
    void close(int index, std::optional<std::uint64_t> items = {});

    /** Record an already-measured interval. */
    int add(Span span);

    std::vector<Span> spans() const;

  private:
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, std::string name,
               std::uint64_t id = 0, int parent = -1,
               std::uint64_t items = 1);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return _index; }
    void setItems(std::uint64_t items) { _items = items; }

  private:
    SpanRecorder &_recorder;
    int _index;
    std::optional<std::uint64_t> _items;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its direct children (clipped to
 * the parent's interval).
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Summed self time and items of every span called @p name. */
struct SpanTotal
{
    double self_s = 0.0;
    std::uint64_t items = 0;
    std::size_t count = 0;
};
SpanTotal totalByName(const std::vector<Span> &spans,
                      const std::vector<double> &self,
                      const std::string &name);

/** Chrome trace-event JSON of @p spans (viewable in Perfetto). */
std::string chromeTrace(const std::vector<Span> &spans);

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/**
 * Invariants every trace row must satisfy. Returns one diagnostic per
 * violation (empty = row is sound): accesses = hits + misses,
 * mem_requests = misses + writebacks, speedup = baseline_s /
 * makespan_s, every utilization in [0, 1], peak_in_flight <= blocks.
 */
std::vector<std::string>
checkTraceRow(const std::vector<std::string> &columns,
              const std::vector<qmh::sweep::Cell> &row);

/**
 * The service protocol's framing of one response to a request of
 * @p total points with id @p id: "accepted" with that total, @p total
 * row records in index order, then "done" with rows == total and not
 * cancelled. Returns the first violation, empty when sound; a
 * response that opens with an error record is a refused request.
 */
std::string checkResponse(const std::string &id, std::size_t total,
                          const std::vector<std::string> &records);

/** Failed operations counted against attempted ones. */
struct FailureTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** One operation of @p weight units; @p ok = it succeeded. */
    void record(bool ok, std::uint64_t weight = 1);
    double rate() const;
};

// ---------------------------------------------------------------------
// Digest and result line
// ---------------------------------------------------------------------

/** FNV-1a 64 accumulated over rows, cell by cell. */
class RowsDigest
{
  public:
    void add(const std::vector<qmh::sweep::Cell> &row);
    void addText(const std::string &text);
    std::uint64_t value() const { return _hash; }
    std::string hex() const;

  private:
    std::uint64_t _hash = 0xcbf29ce484222325ULL;
};

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    /** Diagnostics kept; later failures are only counted. */
    static constexpr std::size_t kept_failures = 20;

    std::vector<Metric> metrics;
    std::vector<std::string> failures; ///< the first kept_failures
    std::size_t failed_checks = 0;     ///< every failed output check
    FailureTally tally;

    void add(std::string name, double value, std::string unit);
    /** Record a failed output check (the run becomes incorrect). */
    void fail(std::string diagnostic);
    bool correct() const { return failed_checks == 0; }
};

/** The final JSON line: correct / attempted / failed / metrics. */
std::string resultLine(const Report &report);

} // namespace perfbench

#endif // QMH_PERFBENCH_HARNESS_HH
