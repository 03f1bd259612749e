/**
 * @file
 * qmh_perfbench: the benchmark of record. One run = one workload in its
 * own process:
 *
 *   qmh_perfbench --workload WORKLOAD --seed N --seconds S --trace 0|1
 *                 [--git-sha SHA] [--src-digest HEX] [--spans-out PATH]
 *
 * WORKLOAD is sweep-shared, sweep-distinct, sweep-pressure or
 * serve-mixed.
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones. The last stdout line is the result object; a failed output
 * check makes it "correct": false. The exit code is 0 whenever that
 * line is printed and non-zero when the run could not complete.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "api/spec.hh"
#include "bench.hh"
#include "platform.hh"

namespace {

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "qmh_perfbench: %s\nusage: qmh_perfbench --workload "
                 "sweep-shared|sweep-distinct|sweep-pressure|serve-mixed "
                 "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
                 "[--src-digest HEX] [--spans-out PATH]\n",
                 message);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions options;
    std::string git_sha = "unknown";
    std::string src_digest = "unknown";
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            const auto seed = qmh::api::parseUInt(value);
            if (!seed)
                return usage("--seed must be an unsigned integer");
            options.seed = *seed;
            have_seed = true;
        } else if (flag == "--seconds") {
            const auto seconds = qmh::api::parseDouble(value);
            if (!seconds || *seconds <= 0.0 || *seconds > 120.0)
                return usage("--seconds must be in (0, 120]");
            options.seconds = *seconds;
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace must be 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--git-sha") {
            git_sha = value;
        } else if (flag == "--src-digest") {
            src_digest = value;
        } else if (flag == "--spans-out") {
            options.spans_out = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (options.workload != "sweep-shared" &&
        options.workload != "sweep-distinct" &&
        options.workload != "sweep-pressure" &&
        options.workload != "serve-mixed")
        return usage("unknown --workload");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    const auto print = fingerprint(git_sha, src_digest);
    std::printf("fingerprint %s\n", toJson(print).c_str());
    if (!releaseBuild()) {
        std::fprintf(stderr, "qmh_perfbench: refusing a non-Release qmh "
                             "build (%s)\n",
                     print.build_type.c_str());
        return 2;
    }
    options.workers = std::max(1u, std::min(4u, print.nproc));
    std::printf("workload %s seed %llu seconds %g trace %d workers %u\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.workers);

    Report report;
    try {
        if (options.workload == "serve-mixed")
            runServeMixed(options, report);
        else
            runSweep(options, report);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "qmh_perfbench: %s\n", error.what());
        return 1;
    }

    for (const auto &failure : report.failures)
        std::printf("CHECK FAILED: %s\n", failure.c_str());
    if (report.failed_checks)
        std::printf("%zu output check(s) failed (first %zu shown)\n",
                    report.failed_checks, report.failures.size());
    std::printf("error_rate %.6g (failed %llu / attempted %llu)\n",
                report.tally.rate(),
                static_cast<unsigned long long>(report.tally.failed),
                static_cast<unsigned long long>(report.tally.attempted));
    for (const auto &metric : report.metrics)
        std::printf("%-34s %.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    std::printf("%s\n", resultLine(report).c_str());
    std::fflush(stdout);
    // A printed result, correct or not, is a completed run; a failed
    // check is reported through "correct", not the exit code.
    return 0;
}
