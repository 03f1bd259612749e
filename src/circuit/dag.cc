#include "dag.hh"

#include <algorithm>

#include "common/logging.hh"

namespace qmh {
namespace circuit {

DependencyGraph::DependencyGraph(const Program &program)
{
    const auto &insts = program.instructions();
    const std::size_t m = insts.size();
    _in_degree.assign(m, 0);
    _asap.assign(m, 0);

    // Predecessor CSR first, appended in program order: the
    // predecessors of instruction i are found while visiting i, so
    // each run is contiguous as it is written. ASAP levels come in
    // the same pass (program order is a topological order). The
    // successor CSR is then a counting sort of those edges by source,
    // and the whole build does a handful of allocations however many
    // gates the program has.
    _pred_offset.assign(m + 1, 0);
    _pred_edges.reserve(2 * m);

    // The most recent instruction touching each qubit. A barrier
    // becomes the last toucher of every qubit; rather than rewrite
    // them all, each barrier opens an epoch: last_writer[q] counts
    // only if q was written in the current epoch, and otherwise the
    // epoch's barrier (none before the first) is q's last toucher.
    const auto qubits = static_cast<std::size_t>(program.qubitCount());
    std::vector<std::uint32_t> last_writer(qubits, 0);
    std::vector<std::uint32_t> written_in(qubits, 0);
    std::uint32_t epoch = 1;
    std::int64_t last_barrier = -1;
    // Distinct qubits written in the current epoch.
    std::vector<std::uint32_t> touched;
    // Scratch marks of the current epoch's last writers.
    std::vector<char> is_writer;

    for (std::size_t i = 0; i < m; ++i) {
        const auto first_edge = _pred_edges.size();
        if (insts[i].kind == GateKind::Barrier) {
            // A barrier synchronizes against every qubit: depend on
            // the distinct set of last touchers — the previous
            // barrier while some qubit was not written since it, plus
            // this epoch's writers, which all lie between the two
            // barriers: mark them, then collect the marks in
            // ascending order.
            if (last_barrier >= 0 && touched.size() < qubits)
                _pred_edges.push_back(
                    static_cast<std::uint32_t>(last_barrier));
            if (is_writer.empty())
                is_writer.assign(m, 0);
            for (const auto q : touched)
                is_writer[last_writer[q]] = 1;
            for (auto j = static_cast<std::size_t>(last_barrier + 1);
                 j < i; ++j) {
                if (is_writer[j]) {
                    is_writer[j] = 0;
                    _pred_edges.push_back(static_cast<std::uint32_t>(j));
                }
            }
            touched.clear();
            ++epoch;
            last_barrier = static_cast<std::int64_t>(i);
        } else {
            for (const auto &q : insts[i].operands()) {
                const auto id = q.value();
                const std::int64_t prev =
                    written_in[id] == epoch ? last_writer[id]
                                            : last_barrier;
                if (prev >= 0) {
                    const auto p = static_cast<std::uint32_t>(prev);
                    // Avoid duplicate edges when two operands share
                    // the same predecessor (operand counts are tiny,
                    // so the linear scan is over at most a couple of
                    // entries).
                    bool duplicate = false;
                    for (auto e = first_edge; e < _pred_edges.size(); ++e)
                        duplicate |= _pred_edges[e] == p;
                    if (!duplicate)
                        _pred_edges.push_back(p);
                }
                if (written_in[id] != epoch) {
                    written_in[id] = epoch;
                    touched.push_back(id);
                }
                last_writer[id] = static_cast<std::uint32_t>(i);
            }
        }
        std::uint32_t level = 0;
        for (auto e = first_edge; e < _pred_edges.size(); ++e)
            level = std::max(level, _asap[_pred_edges[e]] + 1);
        _asap[i] = level;
        _depth = std::max(_depth, level + 1);
        _in_degree[i] =
            static_cast<int>(_pred_edges.size() - first_edge);
        _pred_offset[i + 1] =
            static_cast<std::uint32_t>(_pred_edges.size());
    }

    // Successor CSR: stable counting sort by source. Filling in
    // ascending target order keeps each node's successors ascending;
    // _succ_offset[p] serves as p's write cursor and ends at the start
    // of p + 1, so one shift restores the offsets.
    _succ_offset.assign(m + 1, 0);
    for (const auto p : _pred_edges)
        ++_succ_offset[p + 1];
    for (std::size_t i = 0; i < m; ++i)
        _succ_offset[i + 1] += _succ_offset[i];
    _succ_edges.resize(_pred_edges.size());
    for (std::size_t i = 0; i < m; ++i)
        for (auto e = _pred_offset[i]; e < _pred_offset[i + 1]; ++e)
            _succ_edges[_succ_offset[_pred_edges[e]]++] =
                static_cast<std::uint32_t>(i);
    for (std::size_t i = m; i > 0; --i)
        _succ_offset[i] = _succ_offset[i - 1];
    _succ_offset[0] = 0;
}

std::vector<std::uint32_t>
DependencyGraph::parallelismProfile() const
{
    std::vector<std::uint32_t> profile(_depth, 0);
    for (const auto level : _asap)
        ++profile[level];
    return profile;
}

std::uint32_t
DependencyGraph::maxParallelism() const
{
    std::uint32_t best = 0;
    for (const auto count : parallelismProfile())
        best = std::max(best, count);
    return best;
}

} // namespace circuit
} // namespace qmh
