/**
 * @file
 * Batched characterization + tuning front end.
 *
 * CharacterizationService is the serving layer over the whole library:
 * one object owning a thread pool and a grid cache, answering tuning
 * requests — "what are the optimal settings, clusters and stable
 * regions of this workload over this settings space under this
 * budget?" — without the caller touching GridRunner or the analysis
 * chain.
 *
 * Five mechanisms make repeated and concurrent traffic cheap:
 *  - the per-setting model evaluation of a grid build fans out over
 *    the pool (bit-identical to the serial build, see GridRunner);
 *  - finished grids land in an LRU cache keyed by content
 *    fingerprints, so any request over the same (workload, space,
 *    config) skips characterization entirely;
 *  - identical characterizations already in flight are coalesced:
 *    concurrent submitters of the same key wait for the first build
 *    instead of duplicating it;
 *  - finished analyses land in a second LRU cache keyed by
 *    (grid fingerprint, budget, threshold), so repeated tuning
 *    requests skip the §V/§VI analysis chain as well;
 *  - streaming workloads resume: when the result cache misses, the
 *    service probes the analysis cache's checkpoint store for the
 *    longest already-analyzed *content prefix* of the grid
 *    (MeasuredGrid::prefixDigest) and extends it over just the new
 *    samples (core/incremental_analysis.hh), bit-identical to a full
 *    recompute.
 */

#ifndef MCDVFS_SVC_CHARACTERIZATION_SERVICE_HH
#define MCDVFS_SVC_CHARACTERIZATION_SERVICE_HH

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/stable_regions.hh"
#include "exec/thread_pool.hh"
#include "sim/grid_runner.hh"
#include "sim/profile_cache.hh"
#include "svc/analysis_cache.hh"
#include "svc/grid_cache.hh"

namespace mcdvfs
{
namespace svc
{

/** One batched tuning request. */
struct TuningRequest
{
    WorkloadProfile workload;
    SettingsSpace space;
    /** Inefficiency budget (>= 1), as in OptimalSettingsFinder. */
    double budget = 1.3;
    /** Cluster performance threshold (e.g. 0.03 for 3%). */
    double threshold = 0.03;
};

/** Everything a tuner needs for one (workload, budget, threshold). */
struct TuningResult
{
    /** The measured grid (shared with the cache; always valid). */
    std::shared_ptr<const MeasuredGrid> grid;
    /** Per-sample optimal settings under the budget (§V). */
    std::vector<OptimalChoice> optimal;
    /** Per-sample performance clusters (§VI-A). */
    std::vector<PerformanceCluster> clusters;
    /** Stable regions tiling the run (§VI-B). */
    std::vector<StableRegion> regions;
    double budget = 0.0;
    double threshold = 0.0;
    /**
     * True when the grid came from the cache or was coalesced with an
     * identical build (in the batch or already in flight) instead of
     * being characterized for this request.
     */
    bool cacheHit = false;
    /**
     * True when the §V/§VI analysis came from the analysis cache
     * instead of being recomputed for this request.
     */
    bool analysisCacheHit = false;
    /**
     * True when the analysis resumed from a cached incremental
     * checkpoint of a sample prefix instead of recomputing the full
     * history; resumedFromSamples is the prefix length it resumed
     * from (0 when not resumed).
     */
    bool analysisResumed = false;
    std::size_t resumedFromSamples = 0;
};

/** Sizing knobs of a CharacterizationService. */
struct ServiceOptions
{
    /**
     * Worker threads for grid builds and batch fan-out; 0 is promoted
     * to 1.  A parallel loop runs on the calling thread plus these
     * workers, so 1 means two threads share a build's grid kernel.
     */
    std::size_t jobs = 1;
    /** Grids kept by the LRU cache. */
    std::size_t cacheCapacity = 32;
    /** Analyses kept by the analysis LRU cache. */
    std::size_t analysisCapacity = 64;
    /**
     * Incremental-analysis checkpoints kept by the analysis cache's
     * checkpoint store; 0 disables streaming resume entirely.
     */
    std::size_t checkpointCapacity = 64;
    /**
     * Characterization memoization (sim::ProfileCache) capacity; 0 —
     * the default — disables it and keeps the historical warm-state
     * characterization bit-identical.  When enabled, every sample is
     * characterized canonically and each distinct (phase, seed,
     * instructions, sampler config) simulates once *across all
     * workloads* the service ever sees ("svc.profile.*" counters).
     * Enabling changes grid content (canonical vs warm-state
     * profiles), so it is mixed into the config fingerprint: grids
     * built with and without memoization never alias in the grid
     * cache or the snapshot store.
     */
    std::size_t profileCacheCapacity = 0;
};

/** Thread-pooled, grid-cached tuning service. */
class CharacterizationService
{
  public:
    using Options = ServiceOptions;

    explicit CharacterizationService(
        const SystemConfig &config = SystemConfig::paperDefault(),
        const Options &options = ServiceOptions());

    /**
     * The measured grid of @c workload over @c space: served from the
     * cache when fingerprints match, coalesced with an identical build
     * in flight, characterized (in parallel) otherwise.
     */
    std::shared_ptr<const MeasuredGrid> grid(
        const WorkloadProfile &workload, const SettingsSpace &space);

    /**
     * Same, reporting through @c cache_hit whether the grid was served
     * from the cache (or coalesced with a build already in flight)
     * instead of characterized for this call.  Staged pipelines (the
     * daemon's grid stage) use this to attribute latency and hit rates
     * per stage.
     */
    std::shared_ptr<const MeasuredGrid> grid(
        const WorkloadProfile &workload, const SettingsSpace &space,
        bool &cache_hit);

    /** Content identity of one characterization. */
    GridKey keyFor(const WorkloadProfile &workload,
                   const SettingsSpace &space) const;

    /**
     * Run (or fetch from the analysis cache) the §V/§VI analysis chain
     * for one request over an already-fetched grid.  @c grid_digest is
     * the grid's GridKey::combined(); @c cache_hit is copied into the
     * result's cacheHit field.  This is the daemon's analysis stage;
     * submit() is equivalent to keyFor + grid + analyze.
     */
    TuningResult analyze(const TuningRequest &request,
                         std::uint64_t grid_digest,
                         std::shared_ptr<const MeasuredGrid> grid,
                         bool cache_hit);

    /** Answer one tuning request. */
    TuningResult submit(const TuningRequest &request);

    /**
     * @name Warm-restart priming.
     *
     * Insert an externally obtained (snapshot-loaded) grid or analysis
     * directly into the caches, so a daemon restart starts hot instead
     * of recharacterizing.  Neither counts a hit or a miss; entries
     * are subject to normal LRU eviction.
     */
    ///@{
    void primeGrid(const GridKey &key,
                   std::shared_ptr<const MeasuredGrid> grid);
    void primeAnalysis(const AnalysisKey &key,
                       std::shared_ptr<const AnalysisResult> result);
    ///@}

    /**
     * Answer a batch: requests with distinct grids characterize
     * concurrently across the pool; requests sharing a grid (same
     * workload, space and config — budgets/thresholds may differ)
     * characterize it once.  Results are in request order.
     */
    std::vector<TuningResult> submitBatch(
        const std::vector<TuningRequest> &requests);

    GridCache::Stats cacheStats() const { return cache_.stats(); }
    AnalysisCache::Stats analysisStats() const
    {
        return analysisCache_.stats();
    }

    /** True when characterization memoization is on. */
    bool profileCacheEnabled() const { return profileCache_ != nullptr; }

    /**
     * Profile-cache traffic (all zeros when memoization is disabled).
     */
    ProfileCache::Stats profileStats() const
    {
        return profileCache_ ? profileCache_->stats()
                             : ProfileCache::Stats{};
    }
    const SystemConfig &config() const { return config_; }
    std::size_t jobs() const { return pool_.size(); }

    /** The pool grid builds and batches fan out over. */
    exec::ThreadPool &pool() { return pool_; }

    /**
     * The runner every build goes through: this service's pool and
     * profile cache (for callers composing their own grids from one
     * characterization, such as StepSensitivity).
     */
    GridRunner &runner() { return runner_; }

  private:
    /** Grid lookup that also reports whether a build was skipped. */
    std::shared_ptr<const MeasuredGrid> gridFor(
        const GridKey &key, const WorkloadProfile &workload,
        const SettingsSpace &space, bool &cache_hit);

    SystemConfig config_;
    std::uint64_t configFingerprint_;
    exec::ThreadPool pool_;
    /**
     * Characterization memoization shared by every build this service
     * runs (created only when profileCacheCapacity > 0).  Declared
     * before runner_, which holds a pointer into it.
     */
    std::unique_ptr<ProfileCache> profileCache_;
    /**
     * One runner for all builds, so precomputed per-space tables and
     * the profile cache persist across workloads (run() is
     * thread-safe; concurrent builders share it).
     */
    GridRunner runner_;
    GridCache cache_;
    AnalysisCache analysisCache_;

    /** Builds of grids currently characterizing, for coalescing. */
    std::mutex inflightMutex_;
    std::unordered_map<GridKey,
                       std::shared_future<std::shared_ptr<const MeasuredGrid>>,
                       GridKeyHash>
        inflight_;
};

} // namespace svc
} // namespace mcdvfs

#endif // MCDVFS_SVC_CHARACTERIZATION_SERVICE_HH
