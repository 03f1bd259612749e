/**
 * @file
 * Registry of named workload generators.
 *
 * A workload is a generated logical circuit plus the metadata the
 * experiments need to interpret it: which qubits are architectural
 * data (cacheable across the memory hierarchy, vs compute-block-local
 * scratch) and the processing-element count used to auto-size caches.
 * Adding a workload is one registry entry; every spec-driven CLI,
 * bench and sweep picks it up by name.
 */

#ifndef QMH_API_WORKLOAD_HH
#define QMH_API_WORKLOAD_HH

#include <string>
#include <vector>

#include "api/spec.hh"
#include "circuit/workload.hh"
#include "common/random.hh"

namespace qmh {
namespace api {

/**
 * A generated workload with its architectural metadata. The struct
 * itself lives at the circuit layer (circuit/workload.hh) so engines
 * below the facade can consume one without depending upward on api.
 */
using Workload = circuit::Workload;

/** One named generator. */
struct WorkloadGenerator
{
    std::string name;
    std::string description;
    Workload (*build)(const ExperimentSpec &spec, Random &rng);
    /**
     * True when build() draws from its Random: each point then gets
     * its own circuit. False means the circuit is a function of the
     * spec's n, gates, reps and mask_data alone, so points that agree
     * on those may share one build.
     */
    bool seeded = false;
    /** Smallest n the generator builds a circuit for. */
    int min_n = 2;
};

/** All registered generators, in registration order. */
const std::vector<WorkloadGenerator> &workloadRegistry();

/** Names of every registered generator, in registration order. */
const std::vector<std::string> &workloadNames();

/** Lookup by name; nullptr on unknown. */
const WorkloadGenerator *findWorkload(std::string_view name);

/**
 * Build the workload named by @p spec.workload (panics on unknown
 * name; validate the spec first for a recoverable diagnostic).
 */
Workload buildWorkload(const ExperimentSpec &spec, Random &rng);

/**
 * Paper-calibrated processing-element qubit count for an n-bit adder
 * workload: 9 logical qubits per compute block over the Table-4 block
 * counts (interpolated geometrically off the table's sizes).
 */
unsigned adderPeQubits(int n_bits);

} // namespace api
} // namespace qmh

#endif // QMH_API_WORKLOAD_HH
