/**
 * @file
 * GridCache and fingerprint tests: hit/miss/eviction accounting, LRU
 * order, and key isolation across workloads, spaces and configs, also
 * when every key hashes alike.
 */

#include <gtest/gtest.h>

#include "svc/fingerprint.hh"
#include "svc/grid_cache.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace
{

std::shared_ptr<const MeasuredGrid>
dummyGrid(const std::string &name)
{
    return std::make_shared<const MeasuredGrid>(
        name, SettingsSpace::coarse(), 4, 10'000'000);
}

svc::GridKey
keyOf(std::uint64_t workload, std::uint64_t space = 1,
      std::uint64_t config = 1)
{
    return svc::GridKey{workload, space, config};
}

TEST(GridCache, MissThenHit)
{
    svc::GridCache cache(4);
    const svc::GridKey key = keyOf(1);
    EXPECT_EQ(cache.find(key), nullptr);
    cache.insert(key, dummyGrid("a"));
    const auto found = cache.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->workload(), "a");

    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(GridCache, EvictsLeastRecentlyUsed)
{
    svc::GridCache cache(2);
    cache.insert(keyOf(1), dummyGrid("a"));
    cache.insert(keyOf(2), dummyGrid("b"));
    // Touch "a" so "b" becomes the eviction victim.
    ASSERT_NE(cache.find(keyOf(1)), nullptr);
    cache.insert(keyOf(3), dummyGrid("c"));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.find(keyOf(2)), nullptr);   // evicted
    EXPECT_NE(cache.find(keyOf(1)), nullptr);   // survived the touch
    EXPECT_NE(cache.find(keyOf(3)), nullptr);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(GridCache, ZeroCapacityIsFatal)
{
    EXPECT_THROW(svc::GridCache(0), FatalError);
}

TEST(GridCache, KeysIsolateEveryComponent)
{
    svc::GridCache cache(8);
    cache.insert(keyOf(1, 1, 1), dummyGrid("a"));
    EXPECT_EQ(cache.find(keyOf(2, 1, 1)), nullptr);  // other workload
    EXPECT_EQ(cache.find(keyOf(1, 2, 1)), nullptr);  // other space
    EXPECT_EQ(cache.find(keyOf(1, 1, 2)), nullptr);  // other config
    EXPECT_NE(cache.find(keyOf(1, 1, 1)), nullptr);
}

/** Sends every key to one bucket: only key equality tells them apart. */
struct ConstantHash
{
    std::size_t operator()(const svc::GridKey &) const { return 7; }
};

TEST(LruCache, CollidingHashesKeepKeysDistinct)
{
    exec::LruCache<svc::GridKey, MeasuredGrid, ConstantHash> cache(
        2, "test.colliding_cache.");
    cache.insert(keyOf(1), dummyGrid("a"));
    cache.insert(keyOf(2), dummyGrid("b"));
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.find(keyOf(3)), nullptr);

    // Re-inserting one key replaces its own value only.
    cache.insert(keyOf(1), dummyGrid("a2"));
    ASSERT_NE(cache.find(keyOf(1)), nullptr);
    EXPECT_EQ(cache.find(keyOf(1))->workload(), "a2");
    ASSERT_NE(cache.find(keyOf(2)), nullptr);
    EXPECT_EQ(cache.find(keyOf(2))->workload(), "b");

    // Key 1 is now least recently used: a third key evicts it alone.
    cache.insert(keyOf(3), dummyGrid("c"));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.find(keyOf(1)), nullptr);
    ASSERT_NE(cache.find(keyOf(2)), nullptr);
    EXPECT_EQ(cache.find(keyOf(2))->workload(), "b");
    ASSERT_NE(cache.find(keyOf(3)), nullptr);
    EXPECT_EQ(cache.find(keyOf(3))->workload(), "c");
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(Fingerprint, StableAcrossIndependentConstruction)
{
    // Two independently built instances of the same workload, space
    // and config must produce equal fingerprints.
    EXPECT_EQ(svc::fingerprintWorkload(makeGobmk()),
              svc::fingerprintWorkload(makeGobmk()));
    EXPECT_EQ(svc::fingerprintSpace(SettingsSpace::coarse()),
              svc::fingerprintSpace(SettingsSpace::coarse()));
    EXPECT_EQ(svc::fingerprintConfig(SystemConfig::paperDefault()),
              svc::fingerprintConfig(SystemConfig::paperDefault()));
}

TEST(Fingerprint, DistinguishesInputs)
{
    EXPECT_NE(svc::fingerprintWorkload(makeGobmk()),
              svc::fingerprintWorkload(makeMilc()));
    EXPECT_NE(svc::fingerprintSpace(SettingsSpace::coarse()),
              svc::fingerprintSpace(SettingsSpace::fine()));

    SystemConfig tweaked;
    tweaked.measurementNoise = 0.004;
    EXPECT_NE(svc::fingerprintConfig(SystemConfig::paperDefault()),
              svc::fingerprintConfig(tweaked));

    SystemConfig sampler_tweaked;
    sampler_tweaked.sampler.simInstructionsPerSample = 20'000;
    EXPECT_NE(svc::fingerprintConfig(SystemConfig::paperDefault()),
              svc::fingerprintConfig(sampler_tweaked));

    SystemConfig timing_tweaked;
    timing_tweaked.timing.l2StallExposure = 0.5;
    EXPECT_NE(svc::fingerprintConfig(SystemConfig::paperDefault()),
              svc::fingerprintConfig(timing_tweaked));
}

} // namespace
} // namespace mcdvfs
