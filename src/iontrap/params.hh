/**
 * @file
 * Physical-layer parameters for the trapped-ion technology model
 * (paper Table 1). Two calibrated sets are provided: "now" (2006
 * experimental values, NIST 9Be+/24Mg+) and "future" (the 10-15 year
 * projections the paper's analysis uses).
 */

#ifndef QMH_IONTRAP_PARAMS_HH
#define QMH_IONTRAP_PARAMS_HH

#include <string>

namespace qmh {
namespace iontrap {

/** Fundamental physical operations of the ion-trap microarchitecture. */
enum class PhysOp {
    SingleGate,  ///< one-qubit rotation by a pulsed laser
    DoubleGate,  ///< two-ion gate in a shared trapping region
    Measure,     ///< state readout by fluorescence
    Move,        ///< ballistic shuttle between adjacent trapping regions
    Split,       ///< separate two ions sharing a trap
    Cooling      ///< sympathetic cooling after movement
};

/** Human-readable operation name. */
const char *physOpName(PhysOp op);

/** Number of PhysOp enumerators. */
constexpr int num_phys_ops = 6;

/**
 * A complete physical parameter set. Times are in microseconds and
 * failure probabilities are per operation (movement failure is also
 * derivable per micrometre; see moveFailurePerUm).
 */
struct Params
{
    std::string name;          ///< parameter-set label

    double single_gate_us;     ///< one-qubit gate latency
    double double_gate_us;     ///< two-qubit gate latency
    double measure_us;         ///< measurement latency
    double move_us;            ///< shuttle latency per trapping region
    double split_us;           ///< ion-splitting latency
    double cooling_us;         ///< sympathetic cooling latency

    double single_gate_fail;   ///< one-qubit gate error probability
    double double_gate_fail;   ///< two-qubit gate error probability
    double measure_fail;       ///< measurement error probability
    double move_fail_per_um;   ///< movement error probability per um

    double memory_time_s;      ///< idle coherence lifetime (seconds)
    double trap_size_um;       ///< electrode pitch of a single trap
    int electrodes_per_region; ///< electrodes forming a trapping region

    /**
     * Fundamental clock cycle of the abstract machine. The paper defines
     * one cycle as any un-encoded logic/move/measure step and uses 10 us
     * throughout the analysis.
     */
    double cycle_us;

    bool operator==(const Params &) const = default;

    /** Latency of @p op in microseconds. */
    double opTimeUs(PhysOp op) const;

    /**
     * Failure probability of @p op. Movement is reported per trapping
     * region traversed (move_fail_per_um * trapping region extent).
     */
    double opFailure(PhysOp op) const;

    /** Latency of @p op in integer fundamental cycles (>= 1). */
    int opCycles(PhysOp op) const;

    /**
     * Side length of one trapping region including its share of the
     * crossing junction: electrodes_per_region * trap_size_um.
     */
    double regionDimUm() const;

    /** Area of one trapping region in um^2. */
    double regionAreaUm2() const;

    /** Movement failure probability across one trapping region. */
    double moveFailurePerRegion() const;

    /**
     * Mean physical failure probability p0 used by the Gottesman local-
     * architecture estimate (Eq. 1 of the paper): the average of the
     * single-gate, double-gate, measurement and per-um movement rates.
     */
    double averageFailure() const;

    /** 2006 experimentally demonstrated values (paper Table 1). */
    static Params currentTechnology();

    /** Projected values used for the CQLA analysis (paper Table 1). */
    static Params future();
};

} // namespace iontrap
} // namespace qmh

#endif // QMH_IONTRAP_PARAMS_HH
