/**
 * @file
 * Property tests for GridCache and the service's use of it.  The
 * invariants, checked over seeded random operation streams and under
 * concurrent traffic:
 *
 *   hits + misses == lookups issued
 *   entries       <= configured capacity, and == capacity once that
 *                    many distinct keys went in
 *   evictions     monotone non-decreasing
 *   distinct-key inserts - evictions == resident entries
 */

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "svc/characterization_service.hh"
#include "svc/grid_cache.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

std::shared_ptr<const MeasuredGrid>
dummyGrid()
{
    static const auto grid = std::make_shared<const MeasuredGrid>(
        "dummy", SettingsSpace::coarse(), 4, 10'000'000);
    return grid;
}

svc::GridKey
keyOf(std::uint64_t id)
{
    return svc::GridKey{id, 1, 1};
}

/** Assert the cross-operation invariants against a running tally. */
void
checkInvariants(const svc::GridCache &cache, std::uint64_t lookups,
                std::uint64_t last_evictions)
{
    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups);
    EXPECT_LE(stats.entries, cache.capacity());
    EXPECT_GE(stats.evictions, last_evictions);
}

TEST(GridCacheProperty, RandomOpsKeepInvariants)
{
    for (const std::size_t capacity : {1u, 2u, 5u, 7u, 8u, 13u}) {
        svc::GridCache cache(capacity);
        std::mt19937_64 rng(99 + capacity * 31);
        std::uniform_int_distribution<std::uint64_t> pick_key(1, 12);
        std::uniform_int_distribution<int> pick_op(0, 9);

        std::uint64_t lookups = 0;
        std::uint64_t last_evictions = 0;
        for (int step = 0; step < 600; ++step) {
            const std::uint64_t id = pick_key(rng);
            const int op = pick_op(rng);
            if (op < 5) {
                cache.find(keyOf(id));
                ++lookups;
            } else if (op < 9) {
                cache.insert(keyOf(id), dummyGrid());
            } else if (step % 97 == 0) {
                cache.clear();
            }
            checkInvariants(cache, lookups, last_evictions);
            last_evictions = cache.stats().evictions;
        }
    }
}

TEST(GridCacheProperty, DistinctInsertsBalanceEvictionsAndResidency)
{
    const std::size_t capacity = 5;
    svc::GridCache cache(capacity);
    // Every key distinct: each insert adds exactly one entry or (once
    // the cache is full) trades one for an eviction.
    const std::size_t inserted = 40;
    for (std::size_t id = 1; id <= inserted; ++id)
        cache.insert(keyOf(id), dummyGrid());

    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, capacity);
    EXPECT_EQ(inserted - stats.evictions, stats.entries);
}

TEST(GridCacheProperty, ReinsertingResidentKeysNeverGrows)
{
    svc::GridCache cache(3);
    for (int round = 0; round < 10; ++round) {
        for (std::uint64_t id = 1; id <= 3; ++id)
            cache.insert(keyOf(id), dummyGrid());
    }
    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_LE(stats.entries, 3u);
    // Refreshing a resident key must not evict anything by itself.
    const std::uint64_t evictions_before = stats.evictions;
    cache.insert(keyOf(1), dummyGrid());
    EXPECT_EQ(cache.stats().evictions, evictions_before);
}

TEST(GridCacheProperty, ConcurrentTrafficKeepsAccountingExact)
{
    svc::GridCache cache(5);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kOpsPerThread = 800;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    std::vector<std::uint64_t> lookups(kThreads, 0);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &lookups, t] {
            std::mt19937_64 rng(7 + t);  // deterministic per thread
            std::uniform_int_distribution<std::uint64_t> pick_key(1, 9);
            for (std::size_t op = 0; op < kOpsPerThread; ++op) {
                const std::uint64_t id = pick_key(rng);
                if (op % 2 == 0) {
                    cache.find(keyOf(id));
                    ++lookups[t];
                } else {
                    cache.insert(keyOf(id), dummyGrid());
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    std::uint64_t total_lookups = 0;
    for (const std::uint64_t count : lookups)
        total_lookups += count;
    const svc::GridCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, total_lookups);
    EXPECT_LE(stats.entries, cache.capacity());
}

TEST(GridCacheProperty, ConcurrentSubmitBatchKeepsServiceAccounting)
{
    // N client threads push identical batches (two workloads, two
    // budgets each) through one service.  submitBatch groups the four
    // requests into two grid lookups, so the cache sees exactly
    // (threads * rounds * 2) lookups; everything beyond the first
    // build of each workload must be a hit or a coalesced wait, and
    // the cache never exceeds its capacity.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRounds = 3;
    svc::CharacterizationService service(test::fastSystemConfig(),
                                         svc::ServiceOptions{2, 4});

    std::vector<svc::TuningRequest> batch;
    for (const double budget : {1.1, 1.5}) {
        batch.push_back(svc::TuningRequest{test::steadyWorkload(),
                                           SettingsSpace::coarse(),
                                           budget, 0.03});
        batch.push_back(svc::TuningRequest{test::phasedWorkload(),
                                           SettingsSpace::coarse(),
                                           budget, 0.03});
    }

    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&service, &batch] {
            for (std::size_t round = 0; round < kRounds; ++round) {
                const std::vector<svc::TuningResult> results =
                    service.submitBatch(batch);
                ASSERT_EQ(results.size(), batch.size());
                for (std::size_t i = 0; i < results.size(); ++i) {
                    ASSERT_NE(results[i].grid, nullptr);
                    EXPECT_EQ(results[i].budget, batch[i].budget);
                    EXPECT_EQ(results[i].grid->sampleCount(),
                              batch[i].workload.sampleCount());
                }
            }
        });
    }
    for (std::thread &client : clients)
        client.join();

    const svc::GridCache::Stats stats = service.cacheStats();
    EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds * 2);
    EXPECT_LE(stats.entries, 4u);
    // Two workloads were ever built; with coalescing the number of
    // misses is at most the number of builds that actually ran, and
    // at least one per distinct workload.
    EXPECT_GE(stats.misses, 2u);
    EXPECT_GE(stats.hits, 1u);
}

TEST(GridCacheProperty, HoldsCapacityDistinctKeysWithoutEviction)
{
    // Capacity is global: any N distinct keys fit in a cache of
    // capacity N, however they hash, and the next one evicts exactly
    // one entry.
    std::mt19937_64 rng(2024);
    for (const std::size_t capacity : {1u, 5u, 13u, 32u}) {
        svc::GridCache cache(capacity);
        std::vector<svc::GridKey> keys;
        for (std::size_t i = 0; i < capacity; ++i)
            keys.push_back(svc::GridKey{rng(), rng(), rng()});
        for (const svc::GridKey &key : keys)
            cache.insert(key, dummyGrid());
        EXPECT_EQ(cache.stats().evictions, 0u)
            << "capacity " << capacity;
        EXPECT_EQ(cache.stats().entries, capacity);
        for (const svc::GridKey &key : keys)
            EXPECT_NE(cache.find(key), nullptr) << "capacity " << capacity;

        cache.insert(svc::GridKey{0, 0, 0}, dummyGrid());
        EXPECT_EQ(cache.stats().evictions, 1u);
        EXPECT_EQ(cache.stats().entries, capacity);
    }
}

TEST(GridCacheProperty, DefaultServiceServesAsManyGridsAsItsCapacity)
{
    // Prime a default-sized service with one grid per distinct
    // workload up to its cache capacity: every read back must hit,
    // and none may rebuild.
    svc::CharacterizationService service(test::fastSystemConfig());
    const std::size_t capacity = svc::ServiceOptions{}.cacheCapacity;
    const auto grid =
        std::make_shared<const MeasuredGrid>(test::steadyGrid());
    std::vector<WorkloadProfile> workloads;
    for (std::size_t i = 0; i < capacity; ++i) {
        PhaseSpec spec;
        spec.name = "steady";
        workloads.emplace_back(
            "steady", 8, [spec](std::size_t) { return spec; }, 1000 + i);
        service.primeGrid(
            service.keyFor(workloads.back(), SettingsSpace::coarse()),
            grid);
    }

    obs::Counter builds =
        obs::MetricsRegistry::global().counter("svc.service.grid_builds");
    const std::uint64_t builds0 = builds.value();
    for (const WorkloadProfile &workload : workloads) {
        bool cache_hit = false;
        EXPECT_EQ(
            service.grid(workload, SettingsSpace::coarse(), cache_hit).get(),
            grid.get());
        EXPECT_TRUE(cache_hit);
    }
    EXPECT_EQ(builds.value(), builds0);
    const svc::GridCache::Stats stats = service.cacheStats();
    EXPECT_EQ(stats.hits, capacity);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.evictions, 0u);
}

} // namespace
} // namespace mcdvfs
