/**
 * @file
 * Set-associative write-back, write-allocate cache model.
 *
 * This is a functional (hit/miss) model: it tracks tags, LRU state and
 * dirty bits, and reports for each access whether it hit and whether a
 * dirty victim was evicted.  Timing is applied later by the timing
 * model; keeping the functional model frequency-free is what allows
 * the characterize-once design (DESIGN.md §5.1).
 */

#ifndef MCDVFS_MEM_CACHE_HH
#define MCDVFS_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace mcdvfs
{

/** Static geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * kKiB;
    std::uint32_t associativity = 4;
    std::uint32_t lineBytes = 64;
    /** Access latency in cycles of the cache's clock domain. */
    std::uint32_t latencyCycles = 2;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const;

    /**
     * Validate the geometry (power-of-two line size and set count, at
     * most 64 ways).
     * @throws FatalError on inconsistent geometry.
     */
    void validate() const;
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty line was evicted and must be written back. */
    bool writeback = false;
    /** Line address (block-aligned) of the evicted dirty line. */
    std::uint64_t writebackAddr = 0;
};

/** Hit/miss counters for one cache level. */
struct CacheStats
{
    Count reads = 0;
    Count writes = 0;
    Count readMisses = 0;
    Count writeMisses = 0;
    Count writebacks = 0;

    Count accesses() const { return reads + writes; }
    Count misses() const { return readMisses + writeMisses; }

    /** Miss ratio in [0,1]; 0 when no accesses. */
    double missRatio() const;
};

/**
 * One level of set-associative cache with true-LRU replacement.
 *
 * The way state is kept as structure-of-arrays and the lookup matches
 * all ways of a set at once into a bit mask, so a hit costs no
 * data-dependent branch (docs/PERF.md "Characterization loop").
 */
class Cache
{
  public:
    /** @throws FatalError on invalid geometry. */
    explicit Cache(const CacheConfig &config);

    /**
     * Perform one access.
     *
     * @param addr byte address
     * @param is_write store (marks the line dirty)
     * @return hit/miss and any writeback generated
     */
    CacheAccessResult
    access(std::uint64_t addr, bool is_write)
    {
        const Lookup found = lookup(addr);
        stats_.writes += is_write;
        stats_.reads += !is_write;
        countMiss(is_write, found.ways == 0);
        // Write-allocate: a store miss fetches the line dirty.
        return touch(found, is_write);
    }

    /**
     * Install a line without an allocate-triggering access (used for
     * writeback-allocation into the next level).
     */
    CacheAccessResult
    fill(std::uint64_t addr, bool dirty)
    {
        return touch(lookup(addr), dirty);
    }

    /** Check for a line without touching LRU state or counters. */
    bool probe(std::uint64_t addr) const { return lookup(addr).ways != 0; }

    /** Reset contents and statistics. */
    void reset();

    /** Accumulated counters. */
    const CacheStats &stats() const { return stats_; }

    /** Zero the counters but keep cache contents (sample boundary). */
    void clearStats() { stats_ = CacheStats{}; }

    /** Geometry. */
    const CacheConfig &config() const { return config_; }

  private:
    // A CacheHierarchy::Pass runs L1's hit path itself: it stamps
    // lines from its own copy of the use clock and publishes its
    // accesses when it ends.
    friend class CacheHierarchy;

    /** Where an address maps and which ways of its set hold it. */
    struct Lookup
    {
        std::uint64_t set;
        std::uint64_t first;  ///< index of the set's way 0
        std::uint64_t key;    ///< kValid | tag
        std::uint64_t ways;   ///< bit w set when way w holds the key
    };

    Lookup
    lookup(std::uint64_t addr) const
    {
        const std::uint64_t line_addr = addr >> lineShift_;
        Lookup found;
        found.set = line_addr & setMask_;
        found.key = kValid | (line_addr >> setShift_);
        // Compare every way and fold the results into a mask: no exit
        // on the first match, whose position is random.
        found.first = found.set * ways_;
        const std::uint64_t *keys = keys_.data() + found.first;
        std::uint64_t ways = 0;
        for (std::uint32_t w = ways_; w-- > 0;)
            ways = (ways << 1) | (keys[w] == found.key);
        found.ways = ways;
        return found;
    }

    /** Count a load or store that @c miss -ed. */
    void
    countMiss(bool is_write, bool miss)
    {
        stats_.writeMisses += is_write & miss;
        stats_.readMisses += !is_write & miss;
    }

    /**
     * Account for the loads and stores a Pass ran from use clock
     * @c since to @c clock: each advanced the clock by one, and
     * @c writes of them were stores.  Their misses were counted as
     * they happened.
     */
    void
    publish(std::uint64_t since, std::uint64_t clock, Count writes)
    {
        useClock_ = clock;
        stats_.writes += writes;
        stats_.reads += clock - since - writes;
    }

    /**
     * On a hit refresh the line's stamp and OR in @c dirty; on a miss
     * hand over to replace().  Shared by access() and fill().
     */
    CacheAccessResult
    touch(const Lookup &found, bool dirty)
    {
        const std::uint64_t stamp = ++useClock_;
        if (found.ways == 0)
            return replace(found, dirty, stamp);
        refresh(found, dirty, stamp);
        CacheAccessResult result;
        result.hit = true;
        return result;
    }

    /** Stamp the way holding @c found's key and OR in @c dirty (a hit). */
    void
    refresh(const Lookup &found, bool dirty, std::uint64_t stamp)
    {
        const std::uint64_t way =
            found.first + std::countr_zero(found.ways);
        stamps_[way] = stamp;
        dirty_[way] |= dirty;
    }

    /**
     * Install @c found's key over the victim way with @c stamp; report
     * a dirty eviction.
     */
    CacheAccessResult
    replace(const Lookup &found, bool dirty, std::uint64_t stamp)
    {
        // Lowest-index minimum stamp: the first empty way (stamp 0),
        // else the least recently used.  Selects, not jumps: the
        // winner's position is random.
        const std::uint64_t *stamps = stamps_.data() + found.first;
        std::uint64_t oldest = stamps[0];
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            const bool older = stamps[w] < oldest;
            oldest = older ? stamps[w] : oldest;
            victim = older ? w : victim;
        }
        const std::uint64_t way = found.first + victim;

        // Empty ways are never dirty, so only a valid victim writes back.
        CacheAccessResult result;
        if (dirty_[way]) {
            const std::uint64_t tag = keys_[way] & ~kValid;
            result.writeback = true;
            result.writebackAddr = ((tag << setShift_) | found.set)
                                   << lineShift_;
            ++stats_.writebacks;
        }
        keys_[way] = found.key;
        stamps_[way] = stamp;
        dirty_[way] = dirty;
        return result;
    }

    /** Set bit of every valid key, so an empty way (key 0) never matches. */
    static constexpr std::uint64_t kValid = 1ull << 63;

    CacheConfig config_;
    std::uint32_t ways_;
    std::uint32_t lineShift_;
    std::uint32_t setShift_;   ///< log2(number of sets)
    std::uint64_t setMask_;
    /**
     * Per-way state, set-major (numSets * associativity), one array
     * per field so the way match reads only keys.  Empty ways have
     * key 0 and stamp 0; a filled way's stamp is >= 1 and unique, so
     * "lowest-index empty way, else oldest stamp" is the lowest-index
     * minimum stamp.
     */
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

} // namespace mcdvfs

#endif // MCDVFS_MEM_CACHE_HH
