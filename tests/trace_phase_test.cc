/**
 * @file
 * Unit tests for PhaseSpec validation and interpolation.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "trace/phase.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{
namespace
{

TEST(PhaseSpec, DefaultValidates)
{
    EXPECT_NO_THROW(PhaseSpec{}.validate());
}

TEST(PhaseSpec, RejectsMixOverOne)
{
    PhaseSpec spec;
    spec.loadFrac = 0.6;
    spec.storeFrac = 0.5;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsNegativeFraction)
{
    PhaseSpec spec;
    spec.branchFrac = -0.1;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsBadFootprintTiers)
{
    PhaseSpec spec;
    spec.hotFrac = 0.8;
    spec.warmFrac = 0.3;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsNonPositiveCpi)
{
    PhaseSpec spec;
    spec.baseCpi = 0.0;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsMlpBelowOne)
{
    PhaseSpec spec;
    spec.mlp = 0.5;
    EXPECT_THROW(spec.validate(), FatalError);
}

TEST(PhaseSpec, RejectsZeroFootprint)
{
    PhaseSpec spec;
    spec.hotBytes = 0;
    EXPECT_THROW(spec.validate(), FatalError);
}

/**
 * Characterization packs each access into 32 bits: a tier may end at
 * 2^32 but not past it.
 */
TEST(PhaseSpec, RejectsTierPast32BitAddresses)
{
    PhaseSpec spec;
    spec.coldBytes = (1ull << 32) - TraceGenerator::kColdBase;
    EXPECT_NO_THROW(spec.validate());
    spec.coldBytes += 8;
    EXPECT_THROW(spec.validate(), FatalError);
    spec.coldBytes = 4ull << 30;
    EXPECT_THROW(spec.validate(), FatalError);

    PhaseSpec hot;
    hot.hotBytes = (1ull << 32) - TraceGenerator::kHotBase + 1;
    EXPECT_THROW(hot.validate(), FatalError);
    PhaseSpec warm;
    warm.warmBytes = (1ull << 32) - TraceGenerator::kWarmBase + 1;
    EXPECT_THROW(warm.validate(), FatalError);
}

TEST(PhaseSpec, ColdFracIsRemainder)
{
    PhaseSpec spec;
    spec.hotFrac = 0.7;
    spec.warmFrac = 0.2;
    EXPECT_NEAR(spec.coldFrac(), 0.1, 1e-12);
}

TEST(PhaseSpec, MemFracSumsLoadsAndStores)
{
    PhaseSpec spec;
    spec.loadFrac = 0.2;
    spec.storeFrac = 0.15;
    EXPECT_NEAR(spec.memFrac(), 0.35, 1e-12);
}

TEST(PhaseSpec, LerpEndpoints)
{
    PhaseSpec a;
    a.baseCpi = 1.0;
    a.mlp = 1.0;
    PhaseSpec b;
    b.baseCpi = 3.0;
    b.mlp = 4.0;

    const PhaseSpec at0 = a.lerp(b, 0.0);
    EXPECT_DOUBLE_EQ(at0.baseCpi, 1.0);
    const PhaseSpec at1 = a.lerp(b, 1.0);
    EXPECT_DOUBLE_EQ(at1.baseCpi, 3.0);
    EXPECT_DOUBLE_EQ(at1.mlp, 4.0);
}

TEST(PhaseSpec, LerpMidpoint)
{
    PhaseSpec a;
    a.baseCpi = 1.0;
    PhaseSpec b;
    b.baseCpi = 2.0;
    EXPECT_DOUBLE_EQ(a.lerp(b, 0.5).baseCpi, 1.5);
}

TEST(PhaseSpec, LerpClampsParameter)
{
    PhaseSpec a;
    a.baseCpi = 1.0;
    PhaseSpec b;
    b.baseCpi = 2.0;
    EXPECT_DOUBLE_EQ(a.lerp(b, -1.0).baseCpi, 1.0);
    EXPECT_DOUBLE_EQ(a.lerp(b, 2.0).baseCpi, 2.0);
}

TEST(PhaseSpec, LerpInterpolatesSizes)
{
    PhaseSpec a;
    a.hotBytes = 1000;
    PhaseSpec b;
    b.hotBytes = 3000;
    EXPECT_EQ(a.lerp(b, 0.5).hotBytes, 2000u);
}

TEST(PhaseSpec, LerpResultValidates)
{
    PhaseSpec a;
    PhaseSpec b;
    b.hotFrac = 0.5;
    b.warmFrac = 0.3;
    EXPECT_NO_THROW(a.lerp(b, 0.37).validate());
}

} // namespace
} // namespace mcdvfs
