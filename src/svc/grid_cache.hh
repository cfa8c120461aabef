/**
 * @file
 * LRU cache of characterization results.
 *
 * Characterizing a workload is the dominant cost of every analysis
 * (hundreds of samples through the cache/DRAM simulator), while the
 * result — a MeasuredGrid — is reusable across budgets and thresholds.
 * GridCache keeps recently built grids keyed by the fingerprint triple
 * (workload, settings space, system config) so repeated requests skip
 * re-characterization entirely.  It is an exec::LruCache (one lock,
 * exact capacity) counting into the svc.cache.* metrics.
 */

#ifndef MCDVFS_SVC_GRID_CACHE_HH
#define MCDVFS_SVC_GRID_CACHE_HH

#include <cstdint>

#include "common/hash.hh"
#include "exec/lru_cache.hh"
#include "sim/measured_grid.hh"

namespace mcdvfs
{
namespace svc
{

/** Identity of one characterization (see svc/fingerprint.hh). */
struct GridKey
{
    std::uint64_t workload = 0;  ///< fingerprintWorkload()
    std::uint64_t space = 0;     ///< fingerprintSpace()
    std::uint64_t config = 0;    ///< fingerprintConfig()

    bool operator==(const GridKey &other) const = default;

    /**
     * Byte-wise FNV-1a over the three component digests: the hash of
     * every GridKey-keyed map and the name of the key's snapshot file.
     */
    std::uint64_t
    combined() const
    {
        std::uint64_t hash = kFnvOffsetBasis;
        for (const std::uint64_t part : {workload, space, config})
            hash = fnv1aWordBytes(hash, part);
        return hash;
    }
};

/** Hasher of every GridKey-keyed map. */
using GridKeyHash = exec::CombinedHash<GridKey>;

/** LRU cache of MeasuredGrids ("svc.cache.*" metrics). */
class GridCache : public exec::LruCache<GridKey, MeasuredGrid>
{
  public:
    /** @throws FatalError for a zero capacity */
    explicit GridCache(std::size_t capacity)
        : LruCache(capacity, "svc.cache.")
    {
    }
};

} // namespace svc
} // namespace mcdvfs

#endif // MCDVFS_SVC_GRID_CACHE_HH
