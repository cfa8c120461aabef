/**
 * @file
 * Two-level cache hierarchy (paper config: 64 KB L1, 2-cycle; unified
 * 2 MB L2, 12-cycle; both in the CPU clock domain).
 *
 * The hierarchy is functional only: it reports at which level each
 * access was served and which DRAM transactions (line fills and dirty
 * writebacks) it generated.  Timing and energy are applied downstream.
 */

#ifndef MCDVFS_MEM_CACHE_HIERARCHY_HH
#define MCDVFS_MEM_CACHE_HIERARCHY_HH

#include <cstdint>

#include "mem/cache.hh"

namespace mcdvfs
{

/** Where an access was served. */
enum class ServiceLevel : std::uint8_t { L1, L2, Dram };

/** Geometry of both levels plus optional prefetching. */
struct HierarchyConfig
{
    CacheConfig l1;
    CacheConfig l2;

    /**
     * Next-line prefetch into L2 on demand L2 misses (off by default;
     * the paper's configuration has no prefetcher).  An extension
     * point for studying how latency hiding shifts the
     * energy-performance frontier.
     */
    bool nextLinePrefetch = false;

    /** The paper's configuration (§III-C). */
    static HierarchyConfig paperDefault();
};

/**
 * L1 + unified L2, write-back write-allocate with exclusive fills.
 *
 * Accesses run through a Pass, which keeps the L1 hit path inline and
 * hands every DRAM transaction (line fills, dirty writebacks,
 * prefetches) to a sink.
 */
class CacheHierarchy
{
  public:
    template <class DramSink>
    class Pass;

    /** @throws FatalError on invalid geometry. */
    explicit CacheHierarchy(const HierarchyConfig &config);

    /** Reset contents and statistics of both levels. */
    void reset();

    /** Zero per-sample counters, keeping cache contents warm. */
    void clearStats();

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

    /** Lines prefetched into L2 so far. */
    Count prefetches() const { return prefetches_; }

  private:
    /**
     * Everything after an L1 miss on @c addr: L1 replacement (the new
     * line stamped @c stamp), the victim's writeback into L2, the L2
     * access and the prefetch.  Each DRAM transaction goes to
     * @c dram(addr, is_write, is_prefetch) in the order the hierarchy
     * generates it.  Out of line on purpose: it is the one call a Pass
     * makes, and only on a miss.
     *
     * @return where the access was served (L2 or Dram)
     */
    template <class DramSink>
    [[gnu::noinline]] ServiceLevel miss(std::uint64_t addr, bool is_write,
                                        std::uint64_t stamp, DramSink &dram);

    Cache l1_;
    Cache l2_;
    bool nextLinePrefetch_;
    std::uint32_t l2LineShift_;  ///< log2(L2 line size)
    Count prefetches_ = 0;
};

/**
 * A run of hierarchy accesses with the L1 hit path inline.
 *
 * L1's use clock and its write count live in the Pass — in
 * registers, when a loop owns it — and L1 publishes them when the
 * Pass is destroyed; until then l1().stats() lags behind in reads and
 * writes.  A hit costs the way match, a stamp and a dirty OR; a miss
 * costs one out-of-line call.
 *
 * @tparam DramSink callable as sink(addr, is_write, is_prefetch) for
 *         each DRAM transaction
 */
template <class DramSink>
class CacheHierarchy::Pass
{
  public:
    Pass(CacheHierarchy &hierarchy, DramSink &dram)
        : hierarchy_(hierarchy), dram_(dram),
          start_(hierarchy.l1_.useClock_), clock_(start_)
    {
    }

    Pass(const Pass &) = delete;
    Pass &operator=(const Pass &) = delete;

    ~Pass() { hierarchy_.l1_.publish(start_, clock_, writes_); }

    /**
     * Access with one load or store; report where it was served.
     * Forced inline: the hit path belongs in the caller's loop.
     */
    [[gnu::always_inline]] ServiceLevel
    access(std::uint64_t addr, bool is_write)
    {
        Cache &l1 = hierarchy_.l1_;
        const Cache::Lookup found = l1.lookup(addr);
        const std::uint64_t stamp = ++clock_;
        writes_ += is_write;
        if (found.ways != 0) [[likely]] {
            l1.refresh(found, is_write, stamp);
            return ServiceLevel::L1;
        }
        return hierarchy_.miss(addr, is_write, stamp, dram_);
    }

  private:
    CacheHierarchy &hierarchy_;
    DramSink &dram_;
    std::uint64_t start_;  ///< L1's use clock when the pass began
    std::uint64_t clock_;  ///< L1's use clock
    Count writes_ = 0;
};

template <class DramSink>
ServiceLevel
CacheHierarchy::miss(std::uint64_t addr, bool is_write, std::uint64_t stamp,
                     DramSink &dram)
{
    // Write-allocate: a store miss fetches the line dirty.
    l1_.countMiss(is_write, true);
    const CacheAccessResult l1_victim =
        l1_.replace(l1_.lookup(addr), is_write, stamp);
    if (l1_victim.writeback) {
        // Dirty L1 victim lands in L2; if L2 in turn evicts a dirty
        // line, that goes to DRAM.
        const CacheAccessResult wb =
            l2_.fill(l1_victim.writebackAddr, /*dirty=*/true);
        if (wb.writeback)
            dram(wb.writebackAddr, /*is_write=*/true, /*is_prefetch=*/false);
    }

    // The line is fetched through L2, which is consulted as a read
    // whatever the L1 access was.
    const CacheAccessResult l2_result = l2_.access(addr, /*is_write=*/false);
    if (l2_result.writeback)
        dram(l2_result.writebackAddr, /*is_write=*/true,
             /*is_prefetch=*/false);
    if (l2_result.hit)
        return ServiceLevel::L2;

    // L2 miss: line comes from DRAM.
    dram(addr, /*is_write=*/false, /*is_prefetch=*/false);
    if (nextLinePrefetch_) {
        // Fetch the next line into L2 ahead of the demand stream.
        // Prefetch fills consume bandwidth and read energy but are
        // not demand-latency exposed.
        const std::uint64_t next = ((addr >> l2LineShift_) + 1)
                                   << l2LineShift_;
        if (!l2_.probe(next)) {
            const CacheAccessResult pf = l2_.fill(next, /*dirty=*/false);
            if (pf.writeback)
                dram(pf.writebackAddr, /*is_write=*/true,
                     /*is_prefetch=*/false);
            dram(next, /*is_write=*/false, /*is_prefetch=*/true);
            ++prefetches_;
        }
    }
    return ServiceLevel::Dram;
}

} // namespace mcdvfs

#endif // MCDVFS_MEM_CACHE_HIERARCHY_HH
