#include "platform.hh"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "sweep/emit.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

double
meanMhz()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    double sum = 0.0;
    int cores = 0;
    while (std::getline(in, line)) {
        if (line.rfind("cpu MHz", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        sum += std::strtod(line.c_str() + colon + 1, nullptr);
        ++cores;
    }
    return cores ? sum / cores : 0.0;
}

double
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    double one = 0.0;
    in >> one;
    return in ? one : 0.0;
}

} // namespace

Fingerprint
fingerprint(std::string git_sha, std::string src_digest)
{
    Fingerprint print;
    print.git_sha = std::move(git_sha);
    print.src_digest = std::move(src_digest);
    print.compiler = PERFBENCH_COMPILER;
    print.build_type = PERFBENCH_BUILD_TYPE;
    print.nproc = std::thread::hardware_concurrency();
    print.mhz = meanMhz();
    print.loadavg1 = loadAverage();
    return print;
}

std::string
toJson(const Fingerprint &print)
{
    using qmh::sweep::jsonQuote;
    std::ostringstream out;
    out << "{\"git_sha\":" << jsonQuote(print.git_sha)
        << ",\"src_digest\":" << jsonQuote(print.src_digest)
        << ",\"compiler\":" << jsonQuote(print.compiler)
        << ",\"qmh_build_type\":" << jsonQuote(print.build_type)
        << ",\"nproc\":" << print.nproc << ",\"mhz\":" << print.mhz
        << ",\"loadavg1\":" << print.loadavg1 << "}";
    return out.str();
}

bool
releaseBuild()
{
#ifdef NDEBUG
    return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
    return false;
#endif
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
