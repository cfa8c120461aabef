/**
 * @file
 * The two-stage characterization with a pool helper: byte-identical
 * profiles at any worker count and in both modes, and liveness when
 * the helper cannot run, when the pool drains and when a fill throws.
 */

#include <gtest/gtest.h>

#include <array>
#include <future>
#include <latch>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "sim/profile_cache.hh"
#include "sim/sample_simulator.hh"
#include "trace/workloads.hh"

#include "profile_bits.hh"

namespace mcdvfs
{
namespace
{

/**
 * Small enough for the sanitizer builds; a 20k-instruction sample
 * ends part-way through a block.
 */
SampleSimulatorConfig
smallConfig()
{
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 20'000;
    config.warmupInstructions = 150'000;
    config.profileWarmupInstructions = 30'000;
    return config;
}

/** Two phases alternating in runs of three, seeded per phase. */
WorkloadProfile
repeatingWorkload()
{
    const WorkloadProfile gobmk = makeGobmk();
    const auto script = [gobmk](std::size_t s) {
        return gobmk.phaseFor((s / 3) % 2 == 0 ? 0 : 20);
    };
    return WorkloadProfile("repeating", 18, script, 5, /*jitter=*/0.0,
                           WorkloadProfile::SeedMode::PerPhase);
}

using Bits = std::vector<std::array<std::uint64_t, 14>>;

Bits
bitsOf(const std::vector<SampleProfile> &profiles)
{
    Bits bits;
    for (const SampleProfile &p : profiles)
        bits.push_back(test::profileBits(p));
    return bits;
}

/** Characterize with @c pool (nullptr: none), canonical when asked. */
Bits
characterizeWith(const WorkloadProfile &workload, exec::ThreadPool *pool,
                 bool canonical = false)
{
    ProfileCache cache(64);
    SampleSimulator simulator(smallConfig());
    simulator.setThreadPool(pool);
    if (canonical)
        simulator.setProfileCache(&cache);
    return bitsOf(simulator.characterize(workload));
}

TEST(CharacterizeStages, ProfilesIdenticalAtAnyWorkerCount)
{
    exec::ThreadPool one(1);
    exec::ThreadPool three(3);
    for (const WorkloadProfile &workload :
         {makeGobmk(), makeGlrender(), repeatingWorkload()}) {
        for (const bool canonical : {false, true}) {
            const Bits alone = characterizeWith(workload, nullptr, canonical);
            ASSERT_EQ(alone.size(), workload.sampleCount());
            EXPECT_EQ(characterizeWith(workload, &one, canonical), alone)
                << workload.name() << (canonical ? " canonical" : "");
            EXPECT_EQ(characterizeWith(workload, &three, canonical), alone)
                << workload.name() << (canonical ? " canonical" : "");
        }
    }
}

/**
 * Repeats of a key within one workload are measured once and then
 * served from the cache, as they were one sample at a time.
 */
TEST(CharacterizeStages, CanonicalRepeatsCountAsHits)
{
    exec::ThreadPool pool(1);
    ProfileCache cache(64);
    SampleSimulator simulator(smallConfig());
    simulator.setThreadPool(&pool);
    simulator.setProfileCache(&cache);
    const std::vector<SampleProfile> profiles =
        simulator.characterize(repeatingWorkload());
    EXPECT_EQ(simulator.lastCharacterizeStats().cacheMisses, 2u);
    EXPECT_EQ(simulator.lastCharacterizeStats().cacheHits, 16u);
    EXPECT_EQ(cache.stats().hits, 16u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(test::profileBits(profiles[0]), test::profileBits(profiles[7]));
    EXPECT_EQ(test::profileBits(profiles[3]), test::profileBits(profiles[9]));
}

/** Occupy every worker of @c pool until the returned latch opens. */
class BlockedWorkers
{
  public:
    BlockedWorkers(exec::ThreadPool &pool, std::size_t count)
        : started_(static_cast<std::ptrdiff_t>(count))
    {
        for (std::size_t i = 0; i < count; ++i) {
            done_.push_back(pool.submit([this] {
                started_.count_down();
                gate_.wait();
            }));
        }
        started_.wait();
    }

    BlockedWorkers(const BlockedWorkers &) = delete;
    BlockedWorkers &operator=(const BlockedWorkers &) = delete;

    ~BlockedWorkers() { release(); }

    void
    release()
    {
        if (!released_) {
            released_ = true;
            gate_.count_down();
            for (std::future<void> &f : done_)
                f.get();
        }
    }

  private:
    std::latch started_;
    std::latch gate_{1};
    std::vector<std::future<void>> done_;
    bool released_ = false;
};

/**
 * With every worker blocked the helper never starts: the caller fills
 * and replays everything alone and returns the same profiles.
 */
TEST(CharacterizeStages, CallerFinishesAloneWhileEveryWorkerIsBlocked)
{
    const WorkloadProfile workload = makeGobmk();
    const Bits alone = characterizeWith(workload, nullptr);
    exec::ThreadPool pool(2);
    BlockedWorkers blocked(pool, 2);
    EXPECT_EQ(characterizeWith(workload, &pool), alone);
    EXPECT_EQ(characterizeWith(workload, &pool, true),
              characterizeWith(workload, nullptr, true));
    blocked.release();
}

/**
 * During drain() submit() refuses work, but a characterization still
 * runs, with the free worker as its helper.
 */
TEST(CharacterizeStages, RunsWhileThePoolDrains)
{
    const WorkloadProfile workload = makeGobmk();
    const Bits alone = characterizeWith(workload, nullptr);
    exec::ThreadPool pool(2);
    BlockedWorkers blocked(pool, 1);
    std::thread drainer([&pool] { pool.drain(); });
    while (!pool.draining())
        std::this_thread::yield();
    EXPECT_THROW(pool.submit([] {}), FatalError);
    EXPECT_EQ(characterizeWith(workload, &pool), alone);
    blocked.release();
    drainer.join();
}

/** A phase the generator refuses: its mix exceeds 1. */
PhaseSpec
invalidPhase()
{
    PhaseSpec spec;
    spec.name = "invalid";
    spec.loadFrac = 0.9;
    spec.storeFrac = 0.9;
    return spec;
}

/** Four samples, no warm-up: sample @c bad has an invalid phase. */
WorkloadProfile
brokenWorkload(std::size_t bad)
{
    const PhaseSpec good = makeGobmk().phaseFor(0);
    const auto script = [good, bad](std::size_t s) {
        return s == bad ? invalidPhase() : good;
    };
    return WorkloadProfile("broken", 4, script, 3, /*jitter=*/0.0);
}

/**
 * A fill that throws ends the run on both threads: the error surfaces
 * as a FatalError, nothing hangs, and the helper has returned (the
 * pool drains).  The bad sample comes first (the caller claims it) or
 * second (the helper usually does), over repeated runs.
 */
TEST(CharacterizeStages, FillErrorSurfacesAsFatalError)
{
    SampleSimulatorConfig config = smallConfig();
    config.warmupInstructions = 0;
    exec::ThreadPool pool(1);
    for (int round = 0; round < 10; ++round) {
        for (const std::size_t bad : {std::size_t{0}, std::size_t{1}}) {
            SampleSimulator simulator(config);
            EXPECT_THROW(simulator.characterize(brokenWorkload(bad)),
                         FatalError);
            simulator.setThreadPool(&pool);
            EXPECT_THROW(simulator.characterize(brokenWorkload(bad)),
                         FatalError)
                << "bad sample " << bad;
        }
    }
    // The pool is still whole.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
    pool.drain();

    exec::ThreadPool other(1);
    SampleSimulator simulator(config);
    simulator.setThreadPool(&other);
    EXPECT_THROW(simulator.characterizeOne(invalidPhase(), 1, 30'000),
                 FatalError);
    EXPECT_GT(
        simulator.characterizeOne(makeGobmk().phaseFor(0), 1, 30'000).l1Mpki,
        0.0);
}

} // namespace
} // namespace mcdvfs
