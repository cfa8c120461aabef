#include "mem/cache_hierarchy.hh"

#include <bit>

#include "common/units.hh"

namespace mcdvfs
{

HierarchyConfig
HierarchyConfig::paperDefault()
{
    HierarchyConfig config;
    config.l1.name = "l1";
    config.l1.sizeBytes = 64 * kKiB;
    config.l1.associativity = 4;
    config.l1.lineBytes = 64;
    config.l1.latencyCycles = 2;

    config.l2.name = "l2";
    config.l2.sizeBytes = 2 * kMiB;
    config.l2.associativity = 16;
    config.l2.lineBytes = 64;
    config.l2.latencyCycles = 12;
    return config;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : l1_(config.l1), l2_(config.l2),
      nextLinePrefetch_(config.nextLinePrefetch),
      l2LineShift_(std::countr_zero(config.l2.lineBytes))
{
}

HierarchyOutcome
CacheHierarchy::access(std::uint64_t addr, bool is_write)
{
    HierarchyOutcome outcome;

    const CacheAccessResult l1_result = l1_.access(addr, is_write);
    if (l1_result.writeback) {
        // Dirty L1 victim lands in L2; if L2 in turn evicts a dirty
        // line, that goes to DRAM.
        const CacheAccessResult wb =
            l2_.fill(l1_result.writebackAddr, /*dirty=*/true);
        if (wb.writeback)
            outcome.addDram(wb.writebackAddr, /*is_write=*/true);
    }
    if (l1_result.hit) {
        outcome.level = ServiceLevel::L1;
        return outcome;
    }

    // L1 miss: the line is fetched through L2.  The fill into L1 was
    // already performed by Cache::access (write-allocate); here we
    // consult L2 for the data source.
    const CacheAccessResult l2_result =
        l2_.access(addr, /*is_write=*/false);
    if (l2_result.writeback)
        outcome.addDram(l2_result.writebackAddr, /*is_write=*/true);
    if (l2_result.hit) {
        outcome.level = ServiceLevel::L2;
        return outcome;
    }

    // L2 miss: line comes from DRAM.
    outcome.level = ServiceLevel::Dram;
    outcome.addDram(addr, /*is_write=*/false);

    if (nextLinePrefetch_) {
        // Fetch the next line into L2 ahead of the demand stream.
        // Prefetch fills consume bandwidth and read energy but are
        // not demand-latency exposed.
        const std::uint64_t next = ((addr >> l2LineShift_) + 1)
                                   << l2LineShift_;
        if (!l2_.probe(next)) {
            const CacheAccessResult pf = l2_.fill(next, /*dirty=*/false);
            if (pf.writeback)
                outcome.addDram(pf.writebackAddr, /*is_write=*/true);
            outcome.addDram(next, /*is_write=*/false,
                            /*is_prefetch=*/true);
            ++prefetches_;
        }
    }
    return outcome;
}

void
CacheHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    prefetches_ = 0;
}

void
CacheHierarchy::clearStats()
{
    l1_.clearStats();
    l2_.clearStats();
}

} // namespace mcdvfs
