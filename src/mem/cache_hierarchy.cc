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
