#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace mcdvfs
{

std::uint64_t
CacheConfig::numSets() const
{
    const std::uint64_t line_capacity = sizeBytes / lineBytes;
    return associativity ? line_capacity / associativity : 0;
}

void
CacheConfig::validate() const
{
    if (lineBytes == 0 || !std::has_single_bit(lineBytes))
        fatal("cache '", name, "': line size must be a power of two");
    if (associativity == 0)
        fatal("cache '", name, "': associativity must be positive");
    if (sizeBytes % (static_cast<std::uint64_t>(lineBytes) *
                     associativity) != 0) {
        fatal("cache '", name,
              "': size must be a multiple of line size * associativity");
    }
    const std::uint64_t sets = numSets();
    if (sets == 0 || !std::has_single_bit(sets))
        fatal("cache '", name, "': set count must be a power of two");
    // Cache::lookup folds the way match into one 64-bit mask.
    if (associativity > 64)
        fatal("cache '", name, "': associativity must be at most 64");
}

double
CacheStats::missRatio() const
{
    const Count total = accesses();
    return total ? static_cast<double>(misses()) /
                   static_cast<double>(total)
                 : 0.0;
}

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    config_.validate();
    const std::uint64_t sets = config_.numSets();
    ways_ = config_.associativity;
    lineShift_ = std::countr_zero(
        static_cast<std::uint64_t>(config_.lineBytes));
    setShift_ = std::countr_zero(sets);
    setMask_ = sets - 1;
    reset();
}

void
Cache::reset()
{
    const std::size_t lines = (setMask_ + 1) * ways_;
    keys_.assign(lines, 0);
    stamps_.assign(lines, 0);
    dirty_.assign(lines, 0);
    useClock_ = 0;
    stats_ = CacheStats{};
}

} // namespace mcdvfs
