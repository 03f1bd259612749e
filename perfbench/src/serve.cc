/**
 * @file
 * serve-mixed: an in-process server::Server on loopback with two pool
 * workers and a memory-only SharedCache smaller than the key universe,
 * driven by one closed-loop server::Client on the main thread.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/service.hh"
#include "bench.hh"
#include "opt/result_cache.hh"
#include "platform.hh"
#include "server/client.hh"

namespace perfbench {

using namespace qmh;

namespace {

/** Requests in the universe; kinds are assigned in equal shares. */
constexpr std::size_t universe_requests = 100;
/** Zipf exponent of request popularity. */
constexpr double popularity_skew = 1.1;
/** Most popular requests sent once during setup to warm the cache. */
constexpr std::size_t warmup_requests = 12;
/** Timed requests whose row records make up rows_digest. */
constexpr std::size_t digest_requests = 64;
/** Responses kept for the fresh-simulation spot check. */
constexpr std::size_t spot_checks = 16;

/** One request of the universe: points of a single kind. */
struct UniverseRequest
{
    std::string kind;
    std::vector<std::string> keys; ///< canonical spec strings
};

struct Universe
{
    std::vector<UniverseRequest> requests;
    /** Cumulative popularity over requests (Zipf over a permutation). */
    std::vector<double> cdf;
    /** Request indices, most popular first. */
    std::vector<std::size_t> by_popularity;
    std::uint64_t base_seed = 0;
    std::uint64_t stream_seed = 0;
};

template <typename T>
const T &
pick(const std::vector<T> &values, Random &rng)
{
    return values[rng.uniformInt(values.size())];
}

std::string
point(const std::string &kind, Random &rng)
{
    using V = std::vector<std::string>;
    std::string text = "experiment=" + kind;
    const auto set = [&](const char *key, const V &values) {
        text += std::string(" ") + key + "=" + pick(values, rng);
    };
    if (kind == "cache") {
        set("workload", {"draper", "ripple", "qft"});
        set("n", {"16", "24", "32", "48", "64"});
        set("capacity_x", {"0.5", "0.75", "1", "1.5", "2"});
        set("policy", {"inorder", "optimized"});
        set("warm", {"0", "1"});
    } else if (kind == "hierarchy") {
        set("n", {"16", "32", "64"});
        set("adders", {"20", "40", "80"});
        set("transfers", {"2", "4", "8", "16"});
        set("blocks", {"4", "9", "16", "49"});
        set("mem_banks", {"1", "4", "8"});
    } else if (kind == "bandwidth") {
        text += " blocks=" + std::to_string(4 + rng.uniformInt(97));
        set("utilization", {"0.25", "0.5", "0.75", "1"});
        set("level", {"1", "2"});
    } else if (kind == "montecarlo") {
        text += " trials=" + std::to_string(200 + 100 * rng.uniformInt(9));
        set("p0", {"0.0001", "0.0002", "0.0005", "0.001", "0.002"});
        set("code", {"steane", "bacon-shor"});
        set("noise_factor", {"1.5", "2", "3"});
    } else {
        set("workload", {"draper", "ripple", "qft"});
        set("n", {"16", "32", "48", "64"});
        set("transfers", {"2", "5", "10"});
        set("capacity_x", {"0.5", "1", "2"});
        set("blocks", {"9", "16", "49"});
    }
    return api::printSpec(parseOrThrow(text));
}

Universe
makeUniverse(std::uint64_t seed)
{
    Universe universe;
    Random rng(seed);
    universe.base_seed = rng.next();
    universe.stream_seed = rng.next();
    const std::vector<std::string> kinds = {"cache", "hierarchy",
                                            "bandwidth", "montecarlo",
                                            "trace"};
    for (std::size_t i = 0; i < universe_requests; ++i) {
        UniverseRequest request;
        request.kind = kinds[i % kinds.size()];
        const auto points = 4 + rng.uniformInt(13);
        for (std::uint64_t p = 0; p < points; ++p)
            request.keys.push_back(point(request.kind, rng));
        universe.requests.push_back(std::move(request));
    }
    for (std::size_t i = 0; i < universe_requests; ++i)
        universe.by_popularity.push_back(i);
    for (std::size_t i = universe_requests; i > 1; --i)
        std::swap(universe.by_popularity[i - 1],
                  universe.by_popularity[rng.uniformInt(i)]);
    double total = 0.0;
    for (std::size_t rank = 0; rank < universe_requests; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1),
                                popularity_skew);
        universe.cdf.push_back(total);
    }
    for (auto &c : universe.cdf)
        c /= total;
    return universe;
}

/** The next request of the seeded popularity stream. */
std::size_t
draw(const Universe &universe, Random &rng)
{
    const double u = rng.uniform();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(universe.cdf.begin(), universe.cdf.end(), u) -
        universe.cdf.begin());
    return universe.by_popularity[std::min(rank, universe_requests - 1)];
}

std::string
requestLine(const std::string &id, const UniverseRequest &request)
{
    std::string line = "{\"id\":" + sweep::jsonQuote(id) +
                       ",\"seed_mode\":\"spec\",\"specs\":[";
    for (std::size_t i = 0; i < request.keys.size(); ++i)
        line += (i ? "," : "") + sweep::jsonQuote(request.keys[i]);
    return line + "]}";
}

server::ServerConfig
serverConfig(const Universe &universe)
{
    server::ServerConfig config;
    config.threads = 2;
    config.base_seed = universe.base_seed;
    config.cache.shards = 4;
    config.cache.capacity_per_shard = 24;
    return config;
}

/** serve() on its own thread; stopped through the protocol. */
struct RunningServer
{
    std::unique_ptr<server::Server> server;
    std::thread thread;

    explicit RunningServer(server::ServerConfig config)
    {
        auto created = server::Server::create(std::move(config));
        if (!created.ok())
            throw std::runtime_error("server: " +
                                     created.error().describe());
        server = std::move(created).value();
        thread = std::thread([raw = server.get()]() { raw->serve(); });
    }
    ~RunningServer() { stop(); }
    RunningServer(const RunningServer &) = delete;
    RunningServer &operator=(const RunningServer &) = delete;

    void
    stop()
    {
        if (!thread.joinable())
            return;
        server->stop();
        thread.join();
    }
};

/** A sent request and what came back. */
struct Exchange
{
    std::string line;
    std::vector<std::string> records;
};

/** What one phase (setup + timed loop) of serve-mixed measured. */
struct ServePhase
{
    Universe universe;
    std::vector<double> setup_s;
    std::vector<double> latency_ms;
    /** Per timed request: when it ended, rows, points and gates run. */
    std::vector<double> request_end;
    std::vector<double> request_rows;
    std::vector<double> request_points;
    std::vector<double> request_gates;
    double start = 0.0;
    double wall_s = 0.0;
    std::size_t requests = 0;
    std::size_t rows = 0;
    std::size_t simulated = 0;
    RowsDigest digest;
    std::vector<std::string> lines;
    std::vector<std::vector<std::string>> key_stream;
    std::size_t warm_requests = 0;
    server::ServerStats stats;
    CacheReplay replay;
};

std::vector<std::string>
sendChecked(server::Client &client, const std::string &id,
            const UniverseRequest &request, const std::string &line,
            Report &report, bool *ok)
{
    auto response = client.request(line);
    if (!response.ok()) {
        *ok = false;
        report.fail("request " + id + ": " + response.error().describe());
        return {};
    }
    auto records = std::move(response).value();
    const auto problem = checkResponse(id, request.keys.size(), records);
    *ok = problem.empty();
    if (!problem.empty())
        report.fail("request " + id + ": " + problem);
    return records;
}

ServePhase
runServePhase(const RunOptions &options, double seconds,
              SpanRecorder *spans, Report &report)
{
    ServePhase phase;
    std::unique_ptr<RunningServer> running;
    std::optional<server::Client> client;
    for (int repeat = 0; repeat < setup_repeats; ++repeat) {
        client.reset();
        running.reset();
        phase.key_stream.clear();
        const double t0 = nowSeconds();
        phase.universe = makeUniverse(options.seed);
        for (const auto &request : phase.universe.requests) {
            std::vector<api::ExperimentSpec> specs;
            for (const auto &key : request.keys)
                specs.push_back(parseOrThrow(key));
            const auto validated = api::validateExperiments(specs);
            if (!validated.ok())
                throw std::runtime_error(
                    "validate: " + validated.error().describe());
            if (request.kind == "trace")
                for (const auto &spec : specs)
                    traceGates(spec, 0);
        }
        running = std::make_unique<RunningServer>(
            serverConfig(phase.universe));
        auto connected =
            server::Client::connect("127.0.0.1", running->server->port());
        if (!connected.ok())
            throw std::runtime_error("connect: " +
                                     connected.error().describe());
        client.emplace(std::move(connected).value());
        for (std::size_t w = 0; w < warmup_requests; ++w) {
            const auto index = phase.universe.by_popularity[w];
            const auto &request = phase.universe.requests[index];
            const std::string id = "w" + std::to_string(w);
            bool ok = false;
            sendChecked(*client, id, request, requestLine(id, request),
                        report, &ok);
            phase.key_stream.push_back(request.keys);
        }
        phase.setup_s.push_back(nowSeconds() - t0);
    }
    phase.warm_requests = phase.key_stream.size();

    auto &universe = phase.universe;
    Random stream(universe.stream_seed);
    std::vector<Exchange> kept;
    std::vector<bool> seen(universe.requests.size(), false);
    for (std::size_t w = 0; w < warmup_requests; ++w)
        seen[universe.by_popularity[w]] = true;
    const std::size_t needed = std::max(min_requests, digest_requests);
    const double start = nowSeconds();
    phase.start = start;
    while (nowSeconds() - start < seconds || phase.requests < needed) {
        const auto index = draw(universe, stream);
        const auto &request = universe.requests[index];
        const std::string id = "q" + std::to_string(phase.requests);
        auto line = requestLine(id, request);
        bool ok = false;
        const double t0 = nowSeconds();
        int span = spans ? spans->open("server.request", phase.requests)
                         : -1;
        auto records = sendChecked(*client, id, request, line, report, &ok);
        if (spans)
            spans->close(span, request.keys.size());
        phase.latency_ms.push_back((nowSeconds() - t0) * 1e3);
        phase.request_end.push_back(nowSeconds());
        phase.request_rows.push_back(ok ? request.keys.size() : 0.0);
        report.tally.record(ok);
        if (ok) {
            phase.rows += request.keys.size();
            if (phase.requests < digest_requests)
                for (std::size_t r = 1; r + 1 < records.size(); ++r)
                    phase.digest.addText(records[r]);
        }
        // Repeats are the requests most likely to be cache-served.
        if (ok && kept.size() < spot_checks &&
            (seen[index] || phase.requests % 97 == 0))
            kept.push_back({line, std::move(records)});
        seen[index] = true;
        phase.key_stream.push_back(request.keys);
        phase.lines.push_back(std::move(line));
        ++phase.requests;
    }
    phase.wall_s = nowSeconds() - start;

    auto shutdown = client->shutdownServer("bench-shutdown");
    if (!shutdown.ok())
        report.fail("shutdown: " + shutdown.error().describe());
    client.reset();
    running->stop();
    phase.stats = running->server->stats();
    running.reset();

    // Which points the server simulated: the same SharedCache, driven
    // in the connection's order, must agree with the server's totals.
    phase.replay = replayKeyStream(phase.key_stream,
                                   serverConfig(universe).cache,
                                   universe.base_seed);
    const auto &replayed = phase.replay;
    const auto &cache = phase.stats.cache;
    if (replayed.simulated != phase.stats.simulated ||
        replayed.stats.hits != cache.hits ||
        replayed.stats.misses != cache.misses ||
        replayed.stats.inserts != cache.inserts ||
        replayed.stats.evictions != cache.evictions)
        report.fail("cache replay disagrees with ServerStats (simulated " +
                    std::to_string(replayed.simulated) + " vs " +
                    std::to_string(phase.stats.simulated) + ")");
    for (std::size_t r = phase.warm_requests; r < phase.key_stream.size();
         ++r) {
        const auto &keys = replayed.simulated_keys[r];
        std::uint64_t gates = 0;
        for (const auto &key : keys)
            if (key.rfind("experiment=trace", 0) == 0)
                gates += traceGates(parseOrThrow(key), 0);
        phase.simulated += keys.size();
        phase.request_points.push_back(static_cast<double>(keys.size()));
        phase.request_gates.push_back(static_cast<double>(gates));
    }

    // Spot check: every kept response, cache-served or not, must be
    // byte-identical to a fresh 1-worker simulation of the same line.
    api::Session fresh(sweep::SweepOptions{1, universe.base_seed});
    std::size_t cached_checked = 0;
    std::size_t identical = 0;
    for (const auto &exchange : kept) {
        auto request = api::parseServiceRequest(exchange.line);
        if (!request.ok()) {
            report.fail("spot check: " + request.error().describe());
            continue;
        }
        std::ostringstream out;
        api::ServiceStats stats;
        api::serveRequest(fresh, request.value(), out, stats);
        std::vector<std::string> expected;
        std::istringstream lines(out.str());
        for (std::string line; std::getline(lines, line);)
            expected.push_back(line);
        if (expected == exchange.records)
            ++identical;
        else
            report.fail("spot check: " + request.value().id +
                        " differs from a fresh simulation");
        const auto position =
            std::stoul(request.value().id.substr(1)) + phase.warm_requests;
        if (replayed.all_hit[position])
            ++cached_checked;
    }
    if (cached_checked == 0)
        report.fail("spot check saw no cache-served request");
    std::printf("spot check: %zu of %zu response(s) byte-identical to a "
                "fresh 1-worker simulation, %zu of them cache-served\n",
                identical, kept.size(), cached_checked);
    return phase;
}

void
printPhase(const ServePhase &phase)
{
    const auto &cache = phase.stats.cache;
    std::printf("serve-mixed: %zu request(s), %zu row(s), %zu point(s) "
                "simulated in %.3f s; cache hits %zu, misses %zu, "
                "evictions %zu\n",
                phase.requests, phase.rows, phase.simulated, phase.wall_s,
                cache.hits, cache.misses, cache.evictions);
    std::printf("rows_digest %s (row records of the first %zu timed "
                "requests)\n",
                phase.digest.hex().c_str(), digest_requests);
}

} // namespace

void
runServeMixed(const RunOptions &options, Report &report)
{
    if (!options.trace) {
        const auto phase =
            runServePhase(options, options.seconds, nullptr, report);
        printPhase(phase);
        printSetupSamples(phase.setup_s);
        const auto tail =
            windowedTail(phase.request_end, phase.latency_ms, phase.start,
                         tail_window_s, 99.0);
        std::printf("request latency: n=%zu p50 %.4f ms, p%g %.4f ms "
                    "(median over %zu windows of >= %g s; highest "
                    "percentile <= p99 with >= 10 samples beyond it in "
                    "each)\n",
                    tail.samples, tail.p50, tail.percentile, tail.value,
                    tail.windows, tail_window_s);
        report.add("setup_s", median(phase.setup_s), "s");
        const auto windowed = [&](const std::vector<double> &amounts) {
            return windowedRate(phase.request_end, amounts, phase.start,
                                rate_window_s);
        };
        report.add("points_per_s", windowed(phase.request_points),
                   "points/s");
        report.add("gates_per_s", windowed(phase.request_gates), "gates/s");
        report.add("request_p50_ms", tail.p50, "ms");
        report.add("request_p99_ms", tail.value, "ms");
        report.add("rows_per_s", windowed(phase.request_rows), "rows/s");
        report.add("peak_rss_mb", peakRssMiB(), "MiB");
        return;
    }

    const auto plain =
        runServePhase(options, options.seconds / 2, nullptr, report);
    SpanRecorder spans;
    const auto traced =
        runServePhase(options, options.seconds / 2, &spans, report);
    printPhase(traced);
    if (plain.digest.value() != traced.digest.value())
        report.fail("serve-mixed: traced rows_digest differs from "
                    "untraced");
    const double plain_s =
        ratio(plain.wall_s, static_cast<double>(plain.requests));
    const double traced_s =
        ratio(traced.wall_s, static_cast<double>(traced.requests));
    std::printf("tracing overhead: %.4f us/request untraced, %.4f "
                "us/request traced\n",
                plain_s * 1e6, traced_s * 1e6);
    report.add("tracing.overhead_share", ratio(traced_s, plain_s) - 1.0,
               "ratio");

    // The server's session is internal, so session.* come from the
    // simulated share of the timed stream replayed on a session of the
    // server's shape, through the same delegating wrapper as the sweeps.
    const auto &universe = traced.universe;
    LayerInputs inputs;
    api::Session session(sweep::SweepOptions{2, universe.base_seed});
    std::size_t failed_points = 0;
    std::size_t jobs = 0;
    for (std::size_t r = traced.warm_requests;
         r < traced.key_stream.size() && jobs < 48; ++r) {
        const auto &keys = traced.replay.simulated_keys[r];
        if (keys.empty())
            continue;
        std::vector<api::ExperimentSpec> specs;
        api::SubmitOptions submit;
        for (const auto &key : keys) {
            specs.push_back(parseOrThrow(key));
            submit.seeds.push_back(opt::specSeed(universe.base_seed, key));
        }
        const auto outcome = runSessionJob(
            session, specs, submit, &spans, r,
            [&](std::size_t, const std::vector<std::string> &columns,
                const std::vector<sweep::Cell> &row) {
                if (inputs.sample_rows.size() < 256)
                    inputs.sample_rows.push_back({columns, row});
            });
        failed_points += outcome.failed;
        ++jobs;
    }
    addSessionMetrics(spans.spans(), 2, failed_points, report);

    std::vector<std::string> distinct;
    for (const auto &request : universe.requests)
        distinct.insert(distinct.end(), request.keys.begin(),
                        request.keys.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (const auto &key : distinct) {
        inputs.points.push_back(parseOrThrow(key));
        inputs.seeds.push_back(opt::specSeed(universe.base_seed, key));
    }
    inputs.request_lines = traced.lines;
    inputs.key_stream = traced.key_stream;
    inputs.cache_shape = serverConfig(universe).cache;
    inputs.cache_seed = universe.base_seed;
    inputs.server_stats = traced.stats;
    runLayerReplays(inputs, options, spans, report);
}

} // namespace perfbench
