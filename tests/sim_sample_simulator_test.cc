/**
 * @file
 * Unit tests for the sample characterization pass.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "obs/metrics.hh"

#include "profile_bits.hh"
#include "sim/sample_simulator.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{
namespace
{

PhaseSpec
cpuBoundPhase()
{
    PhaseSpec spec;
    spec.name = "cpu";
    spec.hotFrac = 1.0;
    spec.warmFrac = 0.0;
    spec.hotBytes = 16 * kKiB;
    return spec;
}

PhaseSpec
memBoundPhase()
{
    PhaseSpec spec;
    spec.name = "mem";
    spec.hotFrac = 0.5;
    spec.warmFrac = 0.0;
    spec.coldSeqFrac = 0.0;  // random: misses everywhere
    spec.coldBytes = 64ull << 20;
    return spec;
}

WorkloadProfile
tinyWorkload(const PhaseSpec &spec, std::size_t samples)
{
    return WorkloadProfile("tiny", samples,
                           [spec](std::size_t) { return spec; }, 99,
                           /*jitter=*/0.0);
}

SampleSimulatorConfig
fastConfig()
{
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 20'000;
    config.warmupInstructions = 60'000;
    return config;
}

TEST(SampleSimulator, Deterministic)
{
    const WorkloadProfile workload = tinyWorkload(memBoundPhase(), 3);
    SampleSimulator a(fastConfig());
    SampleSimulator b(fastConfig());
    const auto pa = a.characterize(workload);
    const auto pb = b.characterize(workload);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t s = 0; s < pa.size(); ++s) {
        EXPECT_DOUBLE_EQ(pa[s].l1Mpki, pb[s].l1Mpki);
        EXPECT_DOUBLE_EQ(pa[s].dramReadsPerInstr,
                         pb[s].dramReadsPerInstr);
        EXPECT_DOUBLE_EQ(pa[s].rowHitFrac, pb[s].rowHitFrac);
    }
}

TEST(SampleSimulator, OneProfilePerSample)
{
    const WorkloadProfile workload = tinyWorkload(cpuBoundPhase(), 5);
    SampleSimulator simulator(fastConfig());
    EXPECT_EQ(simulator.characterize(workload).size(), 5u);
}

TEST(SampleSimulator, CpuBoundPhaseHasNoDramTraffic)
{
    // A 16 KiB hot set lives entirely in the 64 KiB L1 after warmup.
    const WorkloadProfile workload = tinyWorkload(cpuBoundPhase(), 3);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    EXPECT_LT(profiles[2].l2Mpki, 0.5);
    EXPECT_LT(profiles[2].dramPerInstr(), 0.001);
}

TEST(SampleSimulator, MemBoundPhaseMissesEverywhere)
{
    const WorkloadProfile workload = tinyWorkload(memBoundPhase(), 3);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    // Half the accesses hit a 64 MiB random set: far beyond L2.
    EXPECT_GT(profiles[2].l2Mpki, 20.0);
    EXPECT_GT(profiles[2].l1Mpki, 20.0);
}

TEST(SampleSimulator, RandomColdAccessesRarelyRowHit)
{
    const WorkloadProfile workload = tinyWorkload(memBoundPhase(), 2);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    EXPECT_LT(profiles[1].rowHitFrac, 0.2);
    EXPECT_NEAR(profiles[1].rowHitFrac + profiles[1].rowClosedFrac +
                    profiles[1].rowConflictFrac,
                1.0, 1e-9);
}

TEST(SampleSimulator, SequentialColdAccessesMostlyRowHit)
{
    PhaseSpec spec = memBoundPhase();
    spec.coldSeqFrac = 1.0;
    const WorkloadProfile workload = tinyWorkload(spec, 2);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    EXPECT_GT(profiles[1].rowHitFrac, 0.7);
}

TEST(SampleSimulator, PhaseAttributesPassThrough)
{
    PhaseSpec spec = cpuBoundPhase();
    spec.baseCpi = 1.23;
    spec.mlp = 2.5;
    spec.activity = 0.77;
    const WorkloadProfile workload = tinyWorkload(spec, 1);
    SampleSimulator simulator(fastConfig());
    const auto profiles = simulator.characterize(workload);
    EXPECT_DOUBLE_EQ(profiles[0].baseCpi, 1.23);
    EXPECT_DOUBLE_EQ(profiles[0].mlp, 2.5);
    EXPECT_DOUBLE_EQ(profiles[0].activity, 0.77);
    EXPECT_EQ(profiles[0].phaseName, "cpu");
}

TEST(SampleSimulator, WarmupRemovesColdStartTransient)
{
    // With warmup, the first sample of a steady workload looks like
    // the later ones; without, it carries compulsory misses.
    PhaseSpec spec;
    spec.hotFrac = 0.85;
    spec.warmFrac = 0.15;
    spec.warmBytes = 256 * kKiB;  // L2-resident once warm
    const WorkloadProfile workload = tinyWorkload(spec, 4);

    SampleSimulatorConfig cold = fastConfig();
    cold.warmupInstructions = 0;
    SampleSimulator cold_sim(cold);
    const auto cold_profiles = cold_sim.characterize(workload);

    SampleSimulatorConfig warm = fastConfig();
    warm.warmupInstructions = 500'000;
    SampleSimulator warm_sim(warm);
    const auto warm_profiles = warm_sim.characterize(workload);

    EXPECT_GT(cold_profiles[0].l2Mpki, warm_profiles[0].l2Mpki * 2.0);
}

TEST(SampleSimulator, CharacterizeOneResetsState)
{
    SampleSimulator simulator(fastConfig());
    const SampleProfile a =
        simulator.characterizeOne(memBoundPhase(), 7, 20'000);
    const SampleProfile b =
        simulator.characterizeOne(memBoundPhase(), 7, 20'000);
    EXPECT_DOUBLE_EQ(a.l1Mpki, b.l1Mpki);
    EXPECT_DOUBLE_EQ(a.rowHitFrac, b.rowHitFrac);
}

/**
 * The fused generate->replay loop (characterizeOne) and the virtual
 * TraceSource path (characterizeTrace over the same generator) give
 * the same profile bit for bit, on both hierarchies and on CPU,
 * memory-bound, GPU-kick and all-kinds phases.
 */
TEST(SampleSimulator, FusedLoopMatchesVirtualSourcePath)
{
    PhaseSpec kick = cpuBoundPhase();
    kick.name = "kick";
    kick.gpuKickFrac = 0.04;
    kick.gpuCyclesPerKick = 3000.0;
    kick.gpuActivity = 0.5;
    PhaseSpec mixed;
    mixed.name = "mixed";
    mixed.fpFrac = 0.1;
    mixed.gpuKickFrac = 0.01;
    mixed.gpuCyclesPerKick = 100.0;

    for (const bool prefetch : {false, true}) {
        SampleSimulatorConfig config = fastConfig();
        config.hierarchy.nextLinePrefetch = prefetch;
        for (const PhaseSpec &spec :
             {cpuBoundPhase(), memBoundPhase(), kick, mixed}) {
            SampleSimulator fused(config);
            SampleSimulator virtual_path(config);
            TraceGenerator gen(spec, 31);
            const SampleProfile a = fused.characterizeOne(spec, 31, 60'000);
            const SampleProfile b =
                virtual_path.characterizeTrace(gen, 60'000, spec);
            EXPECT_EQ(test::profileBits(a), test::profileBits(b))
                << spec.name << (prefetch ? " prefetch" : "");
            EXPECT_EQ(a.phaseName, b.phaseName);
        }
    }
}

TEST(SampleSimulator, ZeroInstructionConfigThrows)
{
    SampleSimulatorConfig config;
    config.simInstructionsPerSample = 0;
    EXPECT_THROW(SampleSimulator{config}, FatalError);
}

TEST(SampleSimulator, ReportsSequentialWarmupTime)
{
    SampleSimulator simulator(fastConfig());
    simulator.characterize(tinyWorkload(memBoundPhase(), 2));
    EXPECT_EQ(simulator.lastCharacterizeStats().warmupNs > 0,
              obs::kMetricsEnabled);
}

/** A sample of no instructions has no rates (0/0), so it is refused. */
TEST(SampleSimulator, ZeroInstructionSampleThrows)
{
    SampleSimulator simulator(fastConfig());
    EXPECT_THROW(simulator.characterizeOne(memBoundPhase(), 7, 0),
                 FatalError);
    TraceGenerator gen(memBoundPhase(), 7);
    EXPECT_THROW(simulator.characterizeTrace(gen, 0, memBoundPhase()),
                 FatalError);
    // The simulator stays usable after the refusal.
    EXPECT_GT(simulator.characterizeOne(memBoundPhase(), 7, 1'000).l1Mpki,
              0.0);
}

} // namespace
} // namespace mcdvfs
