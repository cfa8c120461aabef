/**
 * @file
 * Trace-driven characterization of a workload's samples.
 *
 * For every sample of a WorkloadProfile, the simulator generates the
 * sample's deterministic instruction stream, pushes each memory
 * reference through the L1/L2 hierarchy, classifies resulting DRAM
 * transactions against the open-page bank model, and records the
 * frequency-independent rates in a SampleProfile.  Cache and DRAM bank
 * state persist across samples (warm), only the counters reset, as in
 * the paper's continuous gem5 runs.
 *
 * It runs in two stages over a list of pieces (one warm-up chunk or
 * one sample each): a fill generates a block of a piece's stream and
 * keeps only its loads and stores, and a replay pushes the blocks, in
 * piece order, through the hierarchy.  A fill is a pure function of
 * its piece, so with a thread pool attached one pool worker fills
 * ahead while the calling thread fills and replays (docs/PERF.md
 * "Two-stage characterization").  Results are bit-identical with or
 * without the pool.
 */

#ifndef MCDVFS_SIM_SAMPLE_SIMULATOR_HH
#define MCDVFS_SIM_SAMPLE_SIMULATOR_HH

#include <vector>

#include "common/units.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/dram.hh"
#include "sim/sample_profile.hh"
#include "trace/trace_source.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{

/** Characterization parameters. */
struct SampleSimulatorConfig
{
    /**
     * Dynamic instructions actually simulated per sample.  Each sample
     * *represents* 10 M instructions (the paper's window); simulating
     * a deterministic subset of this length and recording rates gives
     * the same per-instruction statistics at a fraction of the cost.
     */
    Count simInstructionsPerSample = 50'000;

    /**
     * Unrecorded instructions executed before sample 0 (cycling
     * through the workload's first phases) so caches and row buffers
     * reach steady state, as in the paper's post-boot measurements.
     */
    Count warmupInstructions = 4'000'000;

    /**
     * Warmup executed per *canonical* (memoized) characterization:
     * when a ProfileCache is attached, every cache miss resets the
     * hierarchy and row buffers, replays this many unrecorded
     * instructions of the missing phase, then measures.  The profile
     * becomes a pure function of (phase, seed, instructions, sampler
     * config) — cacheable across workloads and build orders — at the
     * price of a per-unique-phase rather than per-workload warmup.
     * Ignored when no cache is attached.
     */
    Count profileWarmupInstructions = 200'000;

    HierarchyConfig hierarchy = HierarchyConfig::paperDefault();
    DramConfig dram{};

    /**
     * Content fingerprint of everything that shapes a canonical
     * characterization besides the phase/seed/instruction-count triple
     * (cache geometry, prefetcher, DRAM organization, canonical
     * warmup).  Part of every ProfileKey.
     */
    std::uint64_t profileFingerprint() const;
};

class ProfileCache;

namespace exec
{
class ThreadPool;
}

/** Runs the characterization pass over a workload. */
class SampleSimulator
{
  public:
    /** Cache traffic and warm-up time of the most recent characterize(). */
    struct CharacterizeStats
    {
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
        /**
         * Nanoseconds of unrecorded warm-up: the sequential warm-up, or
         * the canonical warm-ups of every cache miss (0 in builds
         * without metrics).  Wall time on the calling thread, from the
         * end of the piece before a warm-up run to the end of its last
         * chunk's replay.
         */
        std::uint64_t warmupNs = 0;
    };

    /** @throws FatalError on invalid configuration. */
    explicit SampleSimulator(const SampleSimulatorConfig &config = {});

    /**
     * Attach a memoization cache (nullptr detaches; not owned, must
     * outlive the simulator).  With a cache attached characterize()
     * switches to canonical per-sample characterization: results are
     * pure functions of each sample's (phase, seed, instructions,
     * config) key rather than of the warm state the preceding samples
     * left behind, so they differ from the detached (historical) mode
     * but are identical for every repeated phase.
     */
    void setProfileCache(ProfileCache *cache) { cache_ = cache; }

    /**
     * Fill on one worker of @c pool while characterize() replays
     * (nullptr, the default, runs both stages on the calling thread;
     * not owned, must outlive the simulator).  The helper is one
     * parallelFor() task: when no worker is free, or the pool is
     * draining, the calling thread does all the work alone.
     */
    void setThreadPool(exec::ThreadPool *pool) { pool_ = pool; }

    /**
     * Characterize every sample of @c workload.
     *
     * @return one SampleProfile per sample, in order.
     */
    std::vector<SampleProfile> characterize(
        const WorkloadProfile &workload);

    /** Characterize a single phase/seed pair (used by unit tests). */
    SampleProfile characterizeOne(const PhaseSpec &spec,
                                  std::uint64_t seed, Count instructions);

    /**
     * Characterize an arbitrary instruction source (e.g. a recorded
     * real-application trace).  The caller supplies the attributes a
     * raw address trace cannot express (base CPI, activity, MLP) via
     * @c meta; caches and bank state are reset first.
     */
    SampleProfile characterizeTrace(TraceSource &source,
                                    Count instructions,
                                    const PhaseSpec &meta);

    const SampleSimulatorConfig &config() const { return config_; }

    /** Cache traffic and warm-up time of the most recent characterize(). */
    const CharacterizeStats &lastCharacterizeStats() const
    {
        return lastStats_;
    }

  private:
    /** Historical warm-state characterization (cache detached). */
    std::vector<SampleProfile> characterizeSequential(
        const WorkloadProfile &workload);

    /**
     * Canonical characterization (cache attached): every miss resets
     * the hierarchy, runs the canonical warm-up for its phase, then
     * measures, so the result depends only on the key.
     */
    std::vector<SampleProfile> characterizeCanonical(
        const WorkloadProfile &workload);

    SampleSimulatorConfig config_;
    CacheHierarchy hierarchy_;
    DramDevice dram_;
    /** Memoization cache; nullptr = historical sequential mode. */
    ProfileCache *cache_ = nullptr;
    /** Pool lending the fill helper; nullptr = calling thread only. */
    exec::ThreadPool *pool_ = nullptr;
    /** Precomputed config().profileFingerprint(). */
    std::uint64_t configKey_ = 0;
    CharacterizeStats lastStats_;
};

} // namespace mcdvfs

#endif // MCDVFS_SIM_SAMPLE_SIMULATOR_HH
