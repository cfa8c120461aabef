/**
 * @file
 * Unit tests for the memoized experiment suite and the analysis
 * bundle.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"

#include "profile_bits.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"

namespace mcdvfs
{
namespace
{

SystemConfig
fastConfig()
{
    SystemConfig config;
    config.sampler.simInstructionsPerSample = 10'000;
    config.sampler.warmupInstructions = 50'000;
    return config;
}

TEST(ReproSuite, BenchmarkNamesInPaperOrder)
{
    const auto &names = ReproSuite::benchmarkNames();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_EQ(names.front(), "bzip2");
    EXPECT_EQ(names.back(), "milc");
}

TEST(ReproSuite, GridsAreMemoized)
{
    ReproSuite suite(fastConfig());
    const MeasuredGrid &first = suite.grid("gobmk");
    const MeasuredGrid &second = suite.grid("gobmk");
    EXPECT_EQ(&first, &second);
}

TEST(ReproSuite, GridMatchesWorkloadShape)
{
    ReproSuite suite(fastConfig());
    const MeasuredGrid &grid = suite.grid("gobmk");
    EXPECT_EQ(grid.sampleCount(), 50u);
    EXPECT_EQ(grid.settingCount(), 70u);
    EXPECT_EQ(grid.workload(), "gobmk");
}

TEST(ReproSuite, UnknownWorkloadThrows)
{
    ReproSuite suite(fastConfig());
    EXPECT_THROW(suite.grid("quake"), FatalError);
}

/** Cell-for-cell and profile-for-profile bit equality. */
void
expectGridsIdentical(const MeasuredGrid &a, const MeasuredGrid &b)
{
    ASSERT_EQ(a.workload(), b.workload());
    ASSERT_EQ(a.sampleCount(), b.sampleCount());
    ASSERT_EQ(a.settingCount(), b.settingCount());
    for (std::size_t s = 0; s < a.sampleCount(); ++s) {
        ASSERT_EQ(test::profileBits(a.profile(s)),
                  test::profileBits(b.profile(s)))
            << a.workload() << " profile " << s;
        for (std::size_t k = 0; k < a.settingCount(); ++k) {
            const GridCell ca = a.cell(s, k);
            const GridCell cb = b.cell(s, k);
            ASSERT_EQ(ca.seconds, cb.seconds) << s << ", " << k;
            ASSERT_EQ(ca.cpuEnergy, cb.cpuEnergy) << s << ", " << k;
            ASSERT_EQ(ca.memEnergy, cb.memEnergy) << s << ", " << k;
            ASSERT_EQ(ca.busyFrac, cb.busyFrac) << s << ", " << k;
            ASSERT_EQ(ca.bwUtil, cb.bwUtil) << s << ", " << k;
            ASSERT_EQ(ca.gpuEnergy, cb.gpuEnergy) << s << ", " << k;
        }
    }
}

TEST(ReproSuite, DefaultPoolUsesAllowedCpus)
{
    ReproSuite suite(fastConfig());
    EXPECT_EQ(suite.service().jobs(),
              std::max<std::size_t>(
                  1, exec::ThreadPool::defaultThreads() - 1));
    // --jobs N still sets the worker count exactly.
    EXPECT_EQ(ReproSuite(fastConfig(), 3).service().jobs(), 3u);
}

TEST(ReproSuite, CharacterizeMatchesSerialGrids)
{
    ReproSuite serial(fastConfig(), 1);
    ReproSuite side_by_side(fastConfig(), 3);
    ReproSuite by_default(fastConfig());
    side_by_side.characterize(ReproSuite::benchmarkNames());
    by_default.characterize(ReproSuite::benchmarkNames());
    for (const std::string &name : ReproSuite::benchmarkNames()) {
        expectGridsIdentical(side_by_side.grid(name), serial.grid(name));
        expectGridsIdentical(by_default.grid(name), serial.grid(name));
    }
}

TEST(ReproSuite, CharacterizeSkipsPinnedAndDuplicates)
{
    const obs::Counter builds =
        obs::MetricsRegistry::global().counter("svc.service.grid_builds");
    ReproSuite suite(fastConfig(), 2);
    const MeasuredGrid &pinned = suite.grid("gobmk");
    const std::uint64_t builds0 = builds.value();

    suite.characterize({"gobmk", "lbm", "lbm", "gobmk"});

    EXPECT_EQ(&suite.grid("gobmk"), &pinned);
    // gobmk's grid() call, then one lookup for lbm: one build each.
    const svc::GridCache::Stats stats = suite.service().cacheStats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 2u);
    if (obs::kMetricsEnabled) {
        EXPECT_EQ(builds.value(), builds0 + 1);
    }

    // The built grids are pinned: grid() and a second characterize()
    // never reach the service again.
    const MeasuredGrid &lbm = suite.grid("lbm");
    suite.characterize({"lbm"});
    EXPECT_EQ(&suite.grid("lbm"), &lbm);
    EXPECT_EQ(suite.service().cacheStats().misses, 2u);
    EXPECT_EQ(suite.service().cacheStats().hits, 0u);
}

TEST(ReproSuite, CharacterizeUnknownWorkloadThrows)
{
    ReproSuite suite(fastConfig(), 2);
    EXPECT_THROW(suite.characterize({"gobmk", "quake"}), FatalError);
    // Nothing was built: the unknown name is rejected up front.
    EXPECT_EQ(suite.service().cacheStats().misses, 0u);
    EXPECT_EQ(suite.service().cacheStats().entries, 0u);

    suite.characterize({"gobmk"});
    EXPECT_EQ(suite.grid("gobmk").sampleCount(), 50u);
    EXPECT_EQ(suite.service().cacheStats().entries, 1u);
}

TEST(GridAnalyses, ChainIsConsistent)
{
    ReproSuite suite(fastConfig());
    const MeasuredGrid &grid = suite.grid("bzip2");
    GridAnalyses a(grid);
    EXPECT_EQ(&a.analysis.grid(), &grid);
    EXPECT_EQ(&a.finder.analysis(), &a.analysis);
    EXPECT_EQ(&a.clusters.finder(), &a.finder);
    // The chain produces sane end-to-end numbers.
    const PolicyOutcome outcome = a.tradeoff.optimalTracking(1.3);
    EXPECT_GT(outcome.time, 0.0);
    EXPECT_LE(outcome.achievedInefficiency, 1.3 + 1e-9);
}

} // namespace
} // namespace mcdvfs
