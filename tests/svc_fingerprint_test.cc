/**
 * @file
 * Fingerprint regression tests.
 *
 * The cache keys on content hashes of (workload, space, config);
 * any collision serves the wrong grid.  The historical space
 * fingerprint hashed the flattened cross product, which collides for
 * domain splits sharing the same frequency sequence — in particular a
 * three-domain space and a two-domain space sharing a CPU x mem
 * prefix.  These tests pin the domain-list hashing that fixes it, and
 * that the GPU additions (phase channel, power params) are covered.
 */

#include <gtest/gtest.h>

#include "svc/analysis_cache.hh"
#include "svc/fingerprint.hh"
#include "svc/grid_cache.hh"
#include "test_grid.hh"

namespace mcdvfs
{
namespace
{

FrequencyLadder
ladder(std::initializer_list<double> mhz)
{
    std::vector<Hertz> steps;
    for (const double m : mhz)
        steps.push_back(megaHertz(m));
    return FrequencyLadder(std::move(steps));
}

TEST(Fingerprint, ThreeDomainSpaceNeverCollidesWithItsPrefix)
{
    // The regression: a CPU x mem space and a CPU x mem x GPU space
    // sharing the CPU and memory ladders must key differently — even
    // with a one-step GPU ladder, whose cross product repeats the
    // two-domain settings with one extra coordinate.
    const SettingsSpace two(FrequencyLadder::cpuCoarse(),
                            FrequencyLadder::memCoarse());
    const SettingsSpace three(FrequencyLadder::cpuCoarse(),
                              FrequencyLadder::memCoarse(),
                              ladder({300}));
    EXPECT_NE(svc::fingerprintSpace(two), svc::fingerprintSpace(three));

    // Equal spaces built independently still key identically.
    const SettingsSpace three_again(FrequencyLadder::cpuCoarse(),
                                    FrequencyLadder::memCoarse(),
                                    ladder({300}));
    EXPECT_EQ(svc::fingerprintSpace(three),
              svc::fingerprintSpace(three_again));
}

TEST(Fingerprint, SpaceHashCoversTheDomainSplit)
{
    // Same flattened frequency sequence, different ladder boundary: a
    // flattened-cross-product hash cannot tell these apart.
    const SettingsSpace a(ladder({100, 200}), ladder({300}));
    const SettingsSpace b(ladder({100}), ladder({200, 300}));
    EXPECT_NE(svc::fingerprintSpace(a), svc::fingerprintSpace(b));
}

TEST(Fingerprint, SpaceHashCoversTheGpuLadder)
{
    const SettingsSpace a(FrequencyLadder::cpuCoarse(),
                          FrequencyLadder::memCoarse(),
                          FrequencyLadder::gpuCoarse());
    const SettingsSpace b(FrequencyLadder::cpuCoarse(),
                          FrequencyLadder::memCoarse(),
                          FrequencyLadder::gpuFine());
    EXPECT_NE(svc::fingerprintSpace(a), svc::fingerprintSpace(b));
}

TEST(Fingerprint, WorkloadHashCoversTheGpuChannel)
{
    const auto workload_with = [](double kick_frac) {
        PhaseSpec spec;
        spec.name = "render";
        spec.hotFrac = 0.9;
        spec.warmFrac = 0.05;
        spec.gpuKickFrac = kick_frac;
        spec.gpuCyclesPerKick = 4000.0;
        spec.gpuActivity = 0.7;
        return WorkloadProfile(
            "render", 4, [spec](std::size_t) { return spec; }, 7,
            /*jitter=*/0.0);
    };
    EXPECT_EQ(svc::fingerprintWorkload(workload_with(0.001)),
              svc::fingerprintWorkload(workload_with(0.001)));
    EXPECT_NE(svc::fingerprintWorkload(workload_with(0.001)),
              svc::fingerprintWorkload(workload_with(0.002)));
}

TEST(Fingerprint, ConfigHashCoversTheGpuPowerParams)
{
    const SystemConfig base = test::fastSystemConfig();
    SystemConfig hotter = base;
    hotter.gpuPower.peakDynamic += 0.05;
    EXPECT_EQ(svc::fingerprintConfig(base),
              svc::fingerprintConfig(test::fastSystemConfig()));
    EXPECT_NE(svc::fingerprintConfig(base),
              svc::fingerprintConfig(hotter));
}

TEST(Fingerprint, CombinedDigestsArePinned)
{
    // Snapshot files are named grid-<hex>.snap and analysis-<hex>.snap
    // after these digests: any change strands every on-disk store.
    EXPECT_EQ(svc::GridKey{}.combined(), 0x81d23fd7003c2305ull);
    EXPECT_EQ((svc::GridKey{1, 2, 3}.combined()),
              0xda2bfb225e0d1f05ull);
    EXPECT_EQ((svc::GridKey{0x0123456789abcdefull, 0xfedcba9876543210ull,
                            0xdeadbeefcafef00dull}
                   .combined()),
              0xd4fd52f383e193eeull);
    EXPECT_EQ(svc::AnalysisKey{}.combined(), 0x81d23fd7003c2305ull);
    EXPECT_EQ((svc::AnalysisKey{0x0123456789abcdefull, 1.3, 0.03}
                   .combined()),
              0xf7065cf5d259f279ull);
    EXPECT_EQ((svc::AnalysisKey{42, 1.0, -0.0}.combined()),
              0xb6bb1ba9338d8e6eull);
}

} // namespace
} // namespace mcdvfs
