/**
 * @file
 * The three workloads of the benchmark and the layer replays of its
 * traced run. Everything goes through qmh's public API: api::Session,
 * server::Server + server::Client, and the module entry points the
 * replays time (parseSpec, buildWorkload, DependencyGraph,
 * listSchedule, runTrace, CacheState, BankedMemory, TransferChannels,
 * EventQueue, the service codec, SharedCache).
 */

#ifndef QMH_PERFBENCH_BENCH_HH
#define QMH_PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/session.hh"
#include "api/spec.hh"
#include "harness.hh"
#include "server/server.hh"

namespace perfbench {

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Pool size of the sweeps: min(4, nproc). */
    unsigned workers = 4;
    /** Where the traced run writes its spans; empty = nowhere. */
    std::string spans_out;
};

/** Setup repetitions per run; setup_s is their median. */
constexpr int setup_repeats = 15;

/** Window length of the windowed-median throughput metrics. */
constexpr double rate_window_s = 1.0;

/** Window length of the windowed-median latency tail. */
constexpr double tail_window_s = 5.0;

/** Fewest requests a timed phase completes, however long it takes. */
constexpr std::size_t min_requests = 24;

/** A row with the columns of its kind. */
struct SampleRow
{
    std::vector<std::string> columns;
    std::vector<qmh::sweep::Cell> cells;
};

/**
 * Inputs the layer replays run on: the workload's own points, request
 * lines and key stream, so a layer is timed on what the workload fed
 * it. Engines a workload never calls are timed on fixed probe points.
 */
struct LayerInputs
{
    /** Every distinct point of the workload with its row seed. */
    std::vector<qmh::api::ExperimentSpec> points;
    std::vector<std::uint64_t> seeds;
    /** Request lines as sent (serve) or one line per job (sweeps). */
    std::vector<std::string> request_lines;
    /** Spec keys per request, in send order (cache replay). */
    std::vector<std::vector<std::string>> key_stream;
    qmh::server::SharedCacheConfig cache_shape;
    std::uint64_t cache_seed = 0;
    /** Server totals when the workload ran a server. */
    std::optional<qmh::server::ServerStats> server_stats;
    /** Rows the workload produced (record-encoding replay). */
    std::vector<SampleRow> sample_rows;
};

/** Result of replaying a key stream on a standalone SharedCache. */
struct CacheReplay
{
    qmh::server::SharedCacheStats stats;
    std::size_t simulated = 0;  ///< points the server would run
    /** Per request: was every point served from the cache. */
    std::vector<bool> all_hit;
    /** Per request: the spec keys that were simulated. */
    std::vector<std::vector<std::string>> simulated_keys;
};

/**
 * Replay @p key_stream through a SharedCache exactly as a connection
 * drives it: look up every key of a request (duplicates within the
 * request are simulated once), then insert the simulated keys in
 * order. Spans go to @p spans when given.
 */
CacheReplay replayKeyStream(
    const std::vector<std::vector<std::string>> &key_stream,
    const qmh::server::SharedCacheConfig &shape, std::uint64_t base_seed,
    SpanRecorder *spans = nullptr);

/** Gate instructions of a trace spec's workload (built once). */
std::uint64_t traceGates(const qmh::api::ExperimentSpec &spec,
                         std::uint64_t seed);

/** Parse one of the benchmark's own spec strings (throws if bad). */
qmh::api::ExperimentSpec parseOrThrow(const std::string &text);

/** Sees each streamed row: its index, the job's columns, the cells. */
using RowSink = std::function<void(std::size_t,
                                   const std::vector<std::string> &,
                                   const std::vector<qmh::sweep::Cell> &)>;

/** What one session job did. */
struct JobOutcome
{
    double latency_s = 0.0; ///< submit to the last row and retirement
    std::size_t rows = 0;   ///< rows completed
    std::size_t failed = 0; ///< points that did not complete
    bool refused = false;   ///< submit returned an error
};

/**
 * Submit @p specs to @p session and stream every row into @p sink.
 * With @p spans the job is traced: the experiments are wrapped in a
 * delegating Experiment that records each run() as a "session.run"
 * span, under "session.job" / "session.submit" / "session.first_row"
 * spans of the caller.
 */
JobOutcome runSessionJob(qmh::api::Session &session,
                         const std::vector<qmh::api::ExperimentSpec> &specs,
                         qmh::api::SubmitOptions options,
                         SpanRecorder *spans, std::uint64_t job_id,
                         const RowSink &sink);

/** Print the per-repetition setup times setup_s is the median of. */
void printSetupSamples(const std::vector<double> &setup_s);

/** session.* per-layer metrics from the spans of traced jobs. */
void addSessionMetrics(const std::vector<Span> &spans, unsigned workers,
                       std::size_t failed_points, Report &report);

/** sweep-shared, sweep-distinct or sweep-pressure, by workload. */
void runSweep(const RunOptions &options, Report &report);
void runServeMixed(const RunOptions &options, Report &report);

/**
 * The per-layer replays of the traced run: times each module's public
 * entry points on @p inputs and adds the per-layer metrics.
 */
void runLayerReplays(const LayerInputs &inputs, const RunOptions &options,
                     SpanRecorder &spans, Report &report);

/** Ratio that reads 0 for an empty base instead of dividing by zero. */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace perfbench

#endif // QMH_PERFBENCH_BENCH_HH
