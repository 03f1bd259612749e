/**
 * @file
 * Spec-keyed memoization of experiment results.
 *
 * Every row an api::Experiment produces is a pure function of
 * (canonical spec string, RNG seed) — the facade's exact-round-trip
 * printer makes the spec string a sound identity, and specSeed()
 * derives the seed from that same string. A ResultCache therefore
 * memoizes rows under the canonical spec string alone and replays
 * them bit-identically: repeated CLI / bench / optimizer invocations
 * skip every already-simulated point.
 *
 * Persistence is JSON-lines: one header object naming the format and
 * the base seed, then one object per cached row. The file is loaded
 * on open() and appended on every insert, so a cache is durable
 * across processes without a rewrite step. Cells are stored as
 * (type-tag, exact text) pairs — doubles in shortest round-trip form
 * — so a replayed row is indistinguishable from a fresh one down to
 * the variant alternative.
 */

#ifndef QMH_OPT_RESULT_CACHE_HH
#define QMH_OPT_RESULT_CACHE_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sweep/emit.hh"

namespace qmh {
namespace opt {

/**
 * Deterministic spec-addressed seed: sweep::pointSeed over an FNV-1a
 * hash of the canonical spec string instead of a grid index. Unlike
 * index-addressed seeds, the stream a spec receives is independent of
 * which sweep, grid order or refinement round asked for it — the
 * property that makes cached rows replayable at all.
 */
std::uint64_t specSeed(std::uint64_t base_seed,
                       std::string_view canonical_spec);

/** One memoized experiment row (engine columns, no seed column). */
struct CachedResult
{
    std::uint64_t seed = 0;
    std::vector<sweep::Cell> row;
};

/**
 * In-memory spec-string -> row map with optional JSONL backing.
 * Single-writer: the sweep coordinators look up and insert from one
 * thread; worker threads never touch the cache.
 */
class ResultCache
{
  public:
    /** An unbacked, in-memory-only cache. */
    ResultCache() = default;

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Bind to @p path and load any existing entries. A missing file
     * is an empty cache (created on first insert). Returns the empty
     * string on success, otherwise a diagnostic: unreadable or
     * corrupt lines, a foreign header, a base-seed mismatch, or an
     * entry whose stored seed disagrees with specSeed() — any of
     * which would silently break bit-identical replay if ignored.
     */
    std::string open(const std::string &path, std::uint64_t base_seed);

    bool backed() const { return _backed; }
    const std::string &path() const { return _path; }
    std::uint64_t baseSeed() const { return _base_seed; }
    std::size_t size() const { return _entries.size(); }

    /** Cached result for @p spec_key; nullptr on miss. */
    const CachedResult *lookup(const std::string &spec_key) const;

    /**
     * Memoize @p row for @p spec_key (appending to the backing file
     * when there is one). Returns false — and changes nothing — when
     * the key is already present.
     */
    bool insert(const std::string &spec_key, std::uint64_t seed,
                std::vector<sweep::Cell> row);

    /**
     * Like insert(), but an existing entry is overwritten (and the
     * replacement appended; reload is last-wins). This is how a
     * stale entry — one whose row no longer matches the experiment's
     * schema — gets repaired instead of shadowing every future run.
     */
    void upsert(const std::string &spec_key, std::uint64_t seed,
                std::vector<sweep::Cell> row);

  private:
    std::unordered_map<std::string, CachedResult> _entries;
    std::string _path;
    std::uint64_t _base_seed = 0;
    bool _backed = false;
    bool _needs_header = false;
    std::ofstream _append;
};

} // namespace opt
} // namespace qmh

#endif // QMH_OPT_RESULT_CACHE_HH
