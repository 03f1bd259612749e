#include "random_circuit.hh"

#include <array>

#include "common/logging.hh"

namespace qmh {
namespace gen {

using circuit::GateKind;
using circuit::Program;
using circuit::QubitId;

namespace {

/** Pick @p k distinct qubit ids uniformly. */
std::array<QubitId, 3>
pickDistinct(int qubits, int k, Random &rng)
{
    std::array<QubitId, 3> out{};
    int chosen = 0;
    while (chosen < k) {
        const auto candidate = static_cast<QubitId::rep_type>(
            rng.uniformInt(static_cast<std::uint64_t>(qubits)));
        bool duplicate = false;
        for (int i = 0; i < chosen; ++i)
            duplicate |= out[static_cast<std::size_t>(i)].value() ==
                         candidate;
        if (!duplicate)
            out[static_cast<std::size_t>(chosen++)] = QubitId(candidate);
    }
    return out;
}

Program
randomCircuit(int qubits, int gates, Random &rng, bool classical_only)
{
    if (qubits < 3)
        qmh_fatal("random circuit needs at least 3 qubits, got ", qubits);
    if (gates < 0)
        qmh_fatal("random circuit: negative gate count");

    Program prog(classical_only ? "random-reversible" : "random-mixed",
                 qubits);
    prog.reserve(static_cast<std::size_t>(gates));
    for (int g = 0; g < gates; ++g) {
        const auto roll = rng.uniformInt(classical_only ? 4 : 7);
        switch (roll) {
          case 0: {
            const auto ops = pickDistinct(qubits, 1, rng);
            prog.x(ops[0]);
            break;
          }
          case 1: {
            const auto ops = pickDistinct(qubits, 2, rng);
            prog.cnot(ops[0], ops[1]);
            break;
          }
          case 2: {
            const auto ops = pickDistinct(qubits, 2, rng);
            prog.swapq(ops[0], ops[1]);
            break;
          }
          case 3: {
            const auto ops = pickDistinct(qubits, 3, rng);
            prog.toffoli(ops[0], ops[1], ops[2]);
            break;
          }
          case 4: {
            const auto ops = pickDistinct(qubits, 1, rng);
            prog.h(ops[0]);
            break;
          }
          case 5: {
            const auto ops = pickDistinct(qubits, 1, rng);
            prog.t(ops[0]);
            break;
          }
          default: {
            const auto ops = pickDistinct(qubits, 2, rng);
            prog.cphase(2 + static_cast<std::int32_t>(rng.uniformInt(6)),
                        ops[0], ops[1]);
            break;
          }
        }
    }
    return prog;
}

} // namespace

Program
randomReversible(int qubits, int gates, Random &rng)
{
    return randomCircuit(qubits, gates, rng, true);
}

Program
randomMixed(int qubits, int gates, Random &rng)
{
    return randomCircuit(qubits, gates, rng, false);
}

} // namespace gen
} // namespace qmh
