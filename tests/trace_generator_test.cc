/**
 * @file
 * Unit and property tests for the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/trace_generator.hh"

namespace mcdvfs
{

/**
 * Print a phase by its name.  Without this GoogleTest prints the raw
 * bytes of the PhaseSpec, among them the heap address of the name's
 * buffer, and the listed test names change from run to run.
 */
void
PrintTo(const PhaseSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

namespace
{

PhaseSpec
testSpec()
{
    PhaseSpec spec;
    spec.loadFrac = 0.25;
    spec.storeFrac = 0.10;
    spec.branchFrac = 0.15;
    spec.fpFrac = 0.10;
    spec.mulFrac = 0.02;
    spec.hotFrac = 0.6;
    spec.warmFrac = 0.3;
    spec.coldSeqFrac = 0.5;
    return spec;
}

TEST(TraceGenerator, Deterministic)
{
    TraceGenerator a(testSpec(), 42);
    TraceGenerator b(testSpec(), 42);
    for (int i = 0; i < 10000; ++i) {
        const InstrRecord ra = a.next();
        const InstrRecord rb = b.next();
        ASSERT_EQ(ra.kind, rb.kind);
        ASSERT_EQ(ra.addr, rb.addr);
    }
}

TEST(TraceGenerator, SeedChangesStream)
{
    TraceGenerator a(testSpec(), 1);
    TraceGenerator b(testSpec(), 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        const InstrRecord ra = a.next();
        const InstrRecord rb = b.next();
        same += ra.kind == rb.kind && ra.addr == rb.addr;
    }
    EXPECT_LT(same, 700);
}

TEST(TraceGenerator, MixMatchesSpec)
{
    const PhaseSpec spec = testSpec();
    TraceGenerator gen(spec, 7);
    const int n = 200000;
    int loads = 0;
    int stores = 0;
    int branches = 0;
    int fp = 0;
    for (int i = 0; i < n; ++i) {
        switch (gen.next().kind) {
          case InstrKind::Load:
            ++loads;
            break;
          case InstrKind::Store:
            ++stores;
            break;
          case InstrKind::Branch:
            ++branches;
            break;
          case InstrKind::FpOp:
            ++fp;
            break;
          default:
            break;
        }
    }
    EXPECT_NEAR(static_cast<double>(loads) / n, spec.loadFrac, 0.01);
    EXPECT_NEAR(static_cast<double>(stores) / n, spec.storeFrac, 0.01);
    EXPECT_NEAR(static_cast<double>(branches) / n, spec.branchFrac, 0.01);
    EXPECT_NEAR(static_cast<double>(fp) / n, spec.fpFrac, 0.01);
}

TEST(TraceGenerator, MemoryInstructionsCarryAddresses)
{
    TraceGenerator gen(testSpec(), 11);
    for (int i = 0; i < 10000; ++i) {
        const InstrRecord rec = gen.next();
        if (isMemory(rec.kind)) {
            ASSERT_NE(rec.addr, 0u);
        }
    }
}

TEST(TraceGenerator, AddressesStayInTierRanges)
{
    const PhaseSpec spec = testSpec();
    TraceGenerator gen(spec, 13);
    for (int i = 0; i < 50000; ++i) {
        const InstrRecord rec = gen.next();
        if (!isMemory(rec.kind))
            continue;
        const std::uint64_t addr = rec.addr;
        const bool in_hot =
            addr >= TraceGenerator::kHotBase &&
            addr < TraceGenerator::kHotBase + spec.hotBytes;
        const bool in_warm =
            addr >= TraceGenerator::kWarmBase &&
            addr < TraceGenerator::kWarmBase + spec.warmBytes;
        const bool in_cold =
            addr >= TraceGenerator::kColdBase &&
            addr < TraceGenerator::kColdBase + spec.coldBytes;
        ASSERT_TRUE(in_hot || in_warm || in_cold)
            << "address " << std::hex << addr << " outside all tiers";
    }
}

TEST(TraceGenerator, TierFrequenciesMatchSpec)
{
    const PhaseSpec spec = testSpec();
    TraceGenerator gen(spec, 17);
    int hot = 0;
    int warm = 0;
    int cold = 0;
    int mem = 0;
    for (int i = 0; i < 300000; ++i) {
        const InstrRecord rec = gen.next();
        if (!isMemory(rec.kind))
            continue;
        ++mem;
        if (rec.addr < TraceGenerator::kWarmBase)
            ++hot;
        else if (rec.addr < TraceGenerator::kColdBase)
            ++warm;
        else
            ++cold;
    }
    EXPECT_NEAR(static_cast<double>(hot) / mem, spec.hotFrac, 0.02);
    EXPECT_NEAR(static_cast<double>(warm) / mem, spec.warmFrac, 0.02);
    EXPECT_NEAR(static_cast<double>(cold) / mem, spec.coldFrac(), 0.02);
}

TEST(TraceGenerator, SequentialColdStreamAdvancesAndWraps)
{
    PhaseSpec spec = testSpec();
    spec.hotFrac = 0.0;
    spec.warmFrac = 0.0;
    spec.coldSeqFrac = 1.0;
    spec.coldBytes = 4096;  // tiny, to force wraparound
    spec.loadFrac = 1.0;
    spec.storeFrac = 0.0;
    spec.branchFrac = 0.0;
    spec.fpFrac = 0.0;
    spec.mulFrac = 0.0;

    TraceGenerator gen(spec, 19);
    std::uint64_t prev = gen.next().addr;
    int wraps = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t addr = gen.next().addr;
        if (addr < prev)
            ++wraps;
        else
            ASSERT_EQ(addr, prev + 8);
        ASSERT_LT(addr, TraceGenerator::kColdBase + spec.coldBytes);
        prev = addr;
    }
    EXPECT_GT(wraps, 0);
}

TEST(TraceGenerator, GenerateAppends)
{
    TraceGenerator gen(testSpec(), 23);
    std::vector<InstrRecord> out;
    gen.generate(100, out);
    EXPECT_EQ(out.size(), 100u);
    gen.generate(50, out);
    EXPECT_EQ(out.size(), 150u);
}

/** A render-loop phase: GPU kicks in the mix, all three tiers live. */
PhaseSpec
gpuKickSpec()
{
    PhaseSpec spec = testSpec();
    spec.name = "kick";
    spec.gpuKickFrac = 0.05;
    spec.gpuCyclesPerKick = 4000.0;
    spec.gpuActivity = 0.6;
    return spec;
}

/** hotFrac + warmFrac = 1: the cold tier is never drawn. */
PhaseSpec
noColdSpec()
{
    PhaseSpec spec = testSpec();
    spec.name = "nocold";
    spec.hotFrac = 0.75;
    spec.warmFrac = 0.25;
    return spec;
}

/**
 * Mostly cold and all sequential, over a cold set small enough that
 * the cursor wraps every 512 cold references.
 */
PhaseSpec
coldSequentialSpec()
{
    PhaseSpec spec = testSpec();
    spec.name = "coldseq";
    spec.hotFrac = 0.2;
    spec.warmFrac = 0.1;
    spec.coldSeqFrac = 1.0;
    spec.coldBytes = 4096;
    return spec;
}

/** Mostly cold and all random: coldSeqFrac 0. */
PhaseSpec
coldRandomSpec()
{
    PhaseSpec spec = testSpec();
    spec.name = "coldrandom";
    spec.hotFrac = 0.3;
    spec.warmFrac = 0.1;
    spec.coldSeqFrac = 0.0;
    return spec;
}

class TraceGeneratorPaths : public ::testing::TestWithParam<PhaseSpec>
{
};

/**
 * run() keeps the RNG state and the cold cursor in locals: after
 * runs of n1 and n2 instructions the generator continues exactly as
 * after n1 + n2 next() calls.
 */
TEST_P(TraceGeneratorPaths, RunWritesStateBack)
{
    for (const Count n1 : {Count{0}, Count{1}, Count{777}, Count{20'000}}) {
        const Count n2 = 3'001;
        TraceGenerator by_next(GetParam(), 11);
        TraceGenerator by_run(GetParam(), 11);
        for (Count i = 0; i < n1 + n2; ++i)
            by_next.next();
        by_run.run(n1, [](const InstrRecord &) {});
        by_run.run(n2, [](const InstrRecord &) {});
        for (int i = 0; i < 1'000; ++i) {
            const InstrRecord want = by_next.next();
            const InstrRecord got = by_run.next();
            ASSERT_EQ(got.kind, want.kind) << "n1 " << n1 << " instr " << i;
            ASSERT_EQ(got.addr, want.addr) << "n1 " << n1 << " instr " << i;
        }
    }
}

TEST_P(TraceGeneratorPaths, RunNextAndGenerateAgree)
{
    const Count n = 40'000;
    TraceGenerator by_next(GetParam(), 5);
    TraceGenerator by_run(GetParam(), 5);
    TraceGenerator by_generate(GetParam(), 5);

    std::vector<InstrRecord> ran;
    by_run.run(n, [&ran](const InstrRecord &rec) { ran.push_back(rec); });
    std::vector<InstrRecord> generated;
    by_generate.generate(n, generated);
    ASSERT_EQ(ran.size(), n);
    ASSERT_EQ(generated.size(), n);

    Count kicks = 0;
    for (Count i = 0; i < n; ++i) {
        const InstrRecord want = by_next.next();
        ASSERT_EQ(ran[i].kind, want.kind) << "instr " << i;
        ASSERT_EQ(ran[i].addr, want.addr) << "instr " << i;
        ASSERT_EQ(generated[i].kind, want.kind) << "instr " << i;
        ASSERT_EQ(generated[i].addr, want.addr) << "instr " << i;
        kicks += want.kind == InstrKind::GpuKick;
    }
    EXPECT_EQ(kicks > 0, GetParam().gpuKickFrac > 0.0);
    // The streams stay in step after the first block.
    EXPECT_EQ(by_run.next().addr, by_next.next().addr);
}

/**
 * fill() keeps exactly run()'s loads and stores, in order, with the
 * store flag in bit 0, and counts its GPU kicks; runs of fills of any
 * length (1,000 and 4,097 instructions among them) continue one
 * stream.
 */
TEST_P(TraceGeneratorPaths, FillKeepsRunMemoryStream)
{
    const Count n = 40'000;
    TraceGenerator by_run(GetParam(), 9);
    std::vector<std::uint32_t> want;
    Count want_kicks = 0;
    by_run.run(n, [&](const InstrRecord &rec) {
        want_kicks += rec.kind == InstrKind::GpuKick;
        if (isMemory(rec.kind)) {
            ASSERT_LT(rec.addr, 1ull << 32);
            ASSERT_EQ(rec.addr % TraceGenerator::kAccessBytes, 0u);
            want.push_back(static_cast<std::uint32_t>(rec.addr) |
                           (rec.kind == InstrKind::Store ? 1u : 0u));
        }
    });

    for (const Count block : {Count{4'096}, Count{1'000}, Count{4'097},
                              Count{40'000}}) {
        TraceGenerator by_fill(GetParam(), 9);
        std::vector<std::uint32_t> got(n);
        std::size_t accesses = 0;
        Count kicks = 0;
        for (Count done = 0; done < n; done += std::min(block, n - done)) {
            const TraceGenerator::Fill f =
                by_fill.fill(std::min(block, n - done), got.data() + accesses);
            accesses += f.accesses;
            kicks += f.gpuKicks;
        }
        got.resize(accesses);
        EXPECT_EQ(got, want) << "block " << block;
        EXPECT_EQ(kicks, want_kicks) << "block " << block;
        // The generator continues where run() would.
        EXPECT_EQ(by_fill.next().addr, TraceGenerator(by_run).next().addr);
    }
    EXPECT_EQ(want_kicks > 0, GetParam().gpuKickFrac > 0.0);
}

INSTANTIATE_TEST_SUITE_P(Phases, TraceGeneratorPaths,
                         ::testing::Values(testSpec(), gpuKickSpec(),
                                           noColdSpec(),
                                           coldSequentialSpec(),
                                           coldRandomSpec()),
                         [](const auto &info) { return info.param.name; });

/**
 * The generator as it read with floating-point draws: kind and tier
 * chosen by comparing Rng::uniform() with the cumulative fractions,
 * one branch per edge.  The reference the integer-threshold,
 * branch-free classification is compared with.
 */
class ReferenceGenerator
{
  public:
    ReferenceGenerator(const PhaseSpec &spec, std::uint64_t seed)
        : spec_(spec), rng_(seed)
    {
        const double fracs[6] = {spec.loadFrac,  spec.storeFrac,
                                 spec.branchFrac, spec.fpFrac,
                                 spec.mulFrac,   spec.gpuKickFrac};
        double edge = 0.0;
        for (int i = 0; i < 6; ++i)
            edge_[i] = edge += fracs[i];
        cursor_ = rng_.uniformInt(spec.coldBytes / 8) * 8;
    }

    InstrRecord
    next()
    {
        const double k = rng_.uniform();
        if (k < edge_[0])
            return {InstrKind::Load, address()};
        if (k < edge_[1])
            return {InstrKind::Store, address()};
        if (k < edge_[2])
            return {InstrKind::Branch, 0};
        if (k < edge_[3])
            return {InstrKind::FpOp, 0};
        if (k < edge_[4])
            return {InstrKind::IntMul, 0};
        if (k < edge_[5])
            return {InstrKind::GpuKick, 0};
        return {InstrKind::IntAlu, 0};
    }

  private:
    std::uint64_t
    address()
    {
        const double tier = rng_.uniform();
        if (tier < spec_.hotFrac)
            return TraceGenerator::kHotBase +
                   rng_.uniformInt(spec_.hotBytes / 8) * 8;
        if (tier < spec_.hotFrac + spec_.warmFrac)
            return TraceGenerator::kWarmBase +
                   rng_.uniformInt(spec_.warmBytes / 8) * 8;
        if (rng_.chance(spec_.coldSeqFrac)) {
            const std::uint64_t addr = TraceGenerator::kColdBase + cursor_;
            cursor_ += 8;
            if (cursor_ >= spec_.coldBytes)
                cursor_ = 0;
            return addr;
        }
        return TraceGenerator::kColdBase +
               rng_.uniformInt(spec_.coldBytes / 8) * 8;
    }

    PhaseSpec spec_;
    Rng rng_;
    double edge_[6];
    std::uint64_t cursor_;
};

/**
 * Integer thresholds pick the same kind and tier as the floating-point
 * compares, including at the edges: empty and certain fractions, a
 * tiny one, sums that do not round to a tenth, and a mix summing to a
 * hair over 1 (validate() allows 1e-9).
 */
TEST(TraceGenerator, ThresholdsMatchFloatingPointDraws)
{
    PhaseSpec tiny = testSpec();
    tiny.name = "tiny";
    tiny.mulFrac = 1e-12;
    tiny.gpuKickFrac = 3e-300;
    tiny.hotFrac = 0.1;
    tiny.warmFrac = 0.2;
    PhaseSpec certain = testSpec();
    certain.name = "certain";
    certain.loadFrac = 0.0;
    certain.storeFrac = 1.0;
    certain.branchFrac = 0.0;
    certain.fpFrac = 0.0;
    certain.mulFrac = 0.0;
    certain.hotFrac = 0.0;
    certain.warmFrac = 1.0;
    PhaseSpec over = testSpec();
    over.name = "over";
    over.loadFrac = 0.3;
    over.storeFrac = 0.3;
    over.branchFrac = 0.1;
    over.fpFrac = 0.2;
    over.mulFrac = 0.1 + 5e-10;
    over.hotFrac = 0.7;
    over.warmFrac = 0.1;
    over.coldSeqFrac = 0.0;

    for (const PhaseSpec &spec :
         {testSpec(), gpuKickSpec(), noColdSpec(), coldSequentialSpec(),
          tiny, certain, over}) {
        TraceGenerator gen(spec, 17);
        ReferenceGenerator reference(spec, 17);
        for (int i = 0; i < 100'000; ++i) {
            const InstrRecord want = reference.next();
            const InstrRecord got = gen.next();
            ASSERT_EQ(got.kind, want.kind) << spec.name << " instr " << i;
            ASSERT_EQ(got.addr, want.addr) << spec.name << " instr " << i;
        }
    }
}

TEST(TraceGenerator, ZeroColdFractionNeverTouchesColdSet)
{
    TraceGenerator gen(noColdSpec(), 9);
    gen.run(20'000, [](const InstrRecord &rec) {
        if (isMemory(rec.kind)) {
            ASSERT_LT(rec.addr, TraceGenerator::kColdBase);
        }
    });
}

TEST(TraceGenerator, SubWordFootprintRejected)
{
    PhaseSpec spec = testSpec();
    spec.warmBytes = 4;  // less than one 8-byte word
    EXPECT_THROW((TraceGenerator{spec, 1}), FatalError);
}

TEST(TraceGenerator, InvalidSpecThrows)
{
    PhaseSpec spec = testSpec();
    spec.baseCpi = -1.0;
    EXPECT_THROW((TraceGenerator{spec, 1}), FatalError);
}

} // namespace
} // namespace mcdvfs
