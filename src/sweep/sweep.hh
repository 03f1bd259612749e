/**
 * @file
 * Multithreaded parameter-sweep engine: the worker pool api::Session
 * runs its jobs on, and the per-point seeds.
 *
 * Every sweep point owns its simulator state (there is no global
 * EventQueue by design), so points fan across cores with no shared
 * mutable state.
 *
 * Determinism contract: each point receives its own qmh::Random seeded
 * from (base_seed, index) via pointSeed(), or from (base_seed, key)
 * via keySeed(), never from scheduling. A sweep's rows are
 * bit-identical whether it runs on 1 thread or N threads.
 */

#ifndef QMH_SWEEP_SWEEP_HH
#define QMH_SWEEP_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "sweep/thread_pool.hh"

namespace qmh {
namespace sweep {

/** Sweep execution options. */
struct SweepOptions
{
    /** Worker threads; 0 means one per hardware thread. */
    unsigned threads = 0;
    /** Base seed; every grid point derives its own stream from it. */
    std::uint64_t base_seed = 0x243F6A8885A308D3ULL;
};

/**
 * Deterministic per-point seed: a splitmix64-style mix of the base
 * seed and the point index. Depends only on its arguments, never on
 * scheduling.
 */
std::uint64_t pointSeed(std::uint64_t base_seed, std::size_t index);

/**
 * Deterministic seed for a string-keyed point: FNV-1a 64 of @p key
 * folded through pointSeed(). This is the seeding scheme of every
 * string-addressed surface (opt::specSeed over canonical spec
 * strings, the service's seed_mode="spec", the shared server cache):
 * a row is a function of (base seed, key) alone, independent of
 * request order, batching or thread count.
 */
std::uint64_t keySeed(std::uint64_t base_seed, std::string_view key);

/** Sweep options plus the worker pool that runs the points. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {})
        : _options(options), _pool(options.threads)
    {
    }

    /** Worker threads actually running. */
    unsigned threadCount() const { return _pool.threadCount(); }

    const SweepOptions &options() const { return _options; }

    /**
     * The underlying pool, for job-oriented execution layered on a
     * shared runner (api::Session). Note the pool's wait() covers
     * every queued task, not one caller's batch.
     */
    ThreadPool &pool() { return _pool; }

  private:
    SweepOptions _options;
    ThreadPool _pool;
};

} // namespace sweep
} // namespace qmh

#endif // QMH_SWEEP_SWEEP_HH
