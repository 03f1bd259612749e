/**
 * @file
 * Host facts the benchmark stamps into every result: the build that
 * produced the binary and the machine it ran on.
 */

#ifndef QMH_PERFBENCH_PLATFORM_HH
#define QMH_PERFBENCH_PLATFORM_HH

#include <string>

namespace perfbench {

/** Build and host identity of one run. */
struct Fingerprint
{
    std::string git_sha;     ///< from the launcher; "unknown" outside git
    std::string src_digest;  ///< sha256 of src/ from the launcher
    std::string compiler;    ///< compiler id and version of this build
    std::string build_type;  ///< CMAKE_BUILD_TYPE qmh was compiled with
    unsigned nproc = 0;      ///< hardware threads
    double mhz = 0.0;        ///< mean current core clock, 0 if unknown
    double loadavg1 = 0.0;   ///< 1-minute load average at start
};

/** Collect the fingerprint; the two launcher ids are passed in. */
Fingerprint fingerprint(std::string git_sha, std::string src_digest);

/** One JSON object of @p print. */
std::string toJson(const Fingerprint &print);

/** True when this binary and the qmh library are an optimized build. */
bool releaseBuild();

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMiB();

} // namespace perfbench

#endif // QMH_PERFBENCH_PLATFORM_HH
