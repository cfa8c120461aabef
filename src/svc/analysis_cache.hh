/**
 * @file
 * LRU cache of analysis results.
 *
 * A grid served from GridCache still pays the §V/§VI analysis chain on
 * every request — optimal trajectory, clusters, stable regions — which
 * dominates the hot path once characterization is cached.  Tuning
 * traffic is repetitive in exactly that dimension: dashboards and
 * retune loops ask for the same (grid, budget, threshold) triple over
 * and over.  AnalysisCache keys finished analyses by the grid's
 * content fingerprint plus the bit patterns of budget and threshold,
 * so repeated requests skip the analysis chain too.
 *
 * Both of its stores are exec::LruCache instances (one lock, exact
 * capacity, shared_ptr values so eviction never invalidates a result a
 * caller still holds).  Result counters are exported as
 * svc.analysis.{hits,misses,evictions,inserts} and the
 * svc.analysis.entries gauge.
 *
 * Next to finished results the cache keeps a second, independently
 * sized store of AnalysisCheckpoints — resumable incremental state
 * keyed by (grid *content prefix* digest, budget, threshold), see
 * MeasuredGrid::prefixDigest.  A streaming workload that grew by a
 * few samples has a different result key (its full fingerprint
 * changed) but shares every prefix digest with its shorter past, so
 * the service can find the longest checkpointed prefix and analyze
 * only the tail.  Checkpoint counters are exported as
 * svc.analysis.checkpoint_{hits,misses,evictions,inserts} and the
 * svc.analysis.checkpoint_entries gauge; one findLongestCheckpoint
 * walk counts a single hit or miss however many prefixes it probes.
 */

#ifndef MCDVFS_SVC_ANALYSIS_CACHE_HH
#define MCDVFS_SVC_ANALYSIS_CACHE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.hh"
#include "core/incremental_analysis.hh"
#include "core/stable_regions.hh"
#include "exec/lru_cache.hh"

namespace mcdvfs
{
namespace svc
{

/** Identity of one analysis: a grid at one budget and threshold. */
struct AnalysisKey
{
    /** GridKey::combined() of the analyzed grid. */
    std::uint64_t grid = 0;
    double budget = 0.0;
    double threshold = 0.0;

    /** Exact bit-pattern equality on the doubles (cache identity). */
    bool
    operator==(const AnalysisKey &other) const
    {
        return grid == other.grid &&
               std::bit_cast<std::uint64_t>(budget) ==
                   std::bit_cast<std::uint64_t>(other.budget) &&
               std::bit_cast<std::uint64_t>(threshold) ==
                   std::bit_cast<std::uint64_t>(other.threshold);
    }

    /**
     * Byte-wise FNV-1a over the grid digest and the parameter bit
     * patterns: the map hash and the name of the snapshot file.
     */
    std::uint64_t
    combined() const
    {
        std::uint64_t hash = kFnvOffsetBasis;
        for (const std::uint64_t part :
             {grid, std::bit_cast<std::uint64_t>(budget),
              std::bit_cast<std::uint64_t>(threshold)})
            hash = fnv1aWordBytes(hash, part);
        return hash;
    }
};

/** One cached analysis: the §V/§VI chain's output for its key. */
struct AnalysisResult
{
    std::vector<OptimalChoice> optimal;
    std::vector<PerformanceCluster> clusters;
    std::vector<StableRegion> regions;
};

/** LRU caches of AnalysisResults and of resumable checkpoints. */
class AnalysisCache
{
  public:
    /** Result-store and checkpoint-store counters. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
        /** Checkpoint-store counters (one hit/miss per prefix walk). */
        std::uint64_t checkpointHits = 0;
        std::uint64_t checkpointMisses = 0;
        std::uint64_t checkpointEvictions = 0;
        std::size_t checkpointEntries = 0;
    };

    /**
     * @param capacity maximum cached analyses (>= 1)
     * @param checkpoint_capacity maximum resumable checkpoints; 0
     *        disables the checkpoint store (every walk misses, inserts
     *        are dropped)
     * @throws FatalError for a zero capacity
     */
    explicit AnalysisCache(std::size_t capacity,
                           std::size_t checkpoint_capacity = 64)
        : results_(capacity, "svc.analysis."),
          checkpoints_(std::max<std::size_t>(checkpoint_capacity, 1),
                       "svc.analysis.checkpoint_"),
          checkpointCapacity_(checkpoint_capacity)
    {
    }

    /**
     * Look up an analysis, refreshing its LRU position.  Counts a hit
     * or a miss; returns nullptr on miss.
     */
    std::shared_ptr<const AnalysisResult>
    find(const AnalysisKey &key)
    {
        return results_.find(key);
    }

    /** Insert (or refresh) an analysis, evicting the LRU one if full. */
    void
    insert(const AnalysisKey &key,
           std::shared_ptr<const AnalysisResult> result)
    {
        results_.insert(key, std::move(result));
    }

    /**
     * Find the checkpoint of the longest cached prefix.  @c keys must
     * be ordered longest prefix first (the caller builds them from
     * MeasuredGrid::prefixDigest, all sharing budget and threshold);
     * the first key present wins and has its LRU position refreshed.
     * The whole walk counts one checkpoint hit or one miss, however
     * many prefixes it probes.  Returns nullptr on miss.
     */
    std::shared_ptr<const AnalysisCheckpoint>
    findLongestCheckpoint(const std::vector<AnalysisKey> &keys)
    {
        if (checkpointCapacity_ == 0)
            return checkpoints_.findFirst({});
        return checkpoints_.findFirst(keys);
    }

    /**
     * Insert (or refresh) a resumable checkpoint under the digest of
     * the prefix it covers.  Dropped when the store is disabled.
     */
    void
    insertCheckpoint(const AnalysisKey &key,
                     std::shared_ptr<const AnalysisCheckpoint> checkpoint)
    {
        if (checkpointCapacity_ > 0)
            checkpoints_.insert(key, std::move(checkpoint));
    }

    /** Drop every entry, results and checkpoints (counters kept). */
    void
    clear()
    {
        results_.clear();
        checkpoints_.clear();
    }

    Stats
    stats() const
    {
        const auto results = results_.stats();
        const auto checkpoints = checkpoints_.stats();
        return Stats{results.hits,       results.misses,
                     results.evictions,  results.entries,
                     checkpoints.hits,   checkpoints.misses,
                     checkpoints.evictions,
                     checkpoints.entries};
    }

    std::size_t capacity() const { return results_.capacity(); }
    std::size_t checkpointCapacity() const { return checkpointCapacity_; }

  private:
    exec::LruCache<AnalysisKey, AnalysisResult> results_;
    /** Sized at least 1; checkpointCapacity_ 0 keeps it empty. */
    exec::LruCache<AnalysisKey, AnalysisCheckpoint> checkpoints_;
    std::size_t checkpointCapacity_;
};

} // namespace svc
} // namespace mcdvfs

#endif // MCDVFS_SVC_ANALYSIS_CACHE_HH
