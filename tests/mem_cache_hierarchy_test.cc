/**
 * @file
 * Unit tests for the two-level cache hierarchy.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache_hierarchy.hh"
#include "recorded_access.hh"
#include "mem/dram.hh"

namespace mcdvfs
{
namespace
{

HierarchyConfig
tinyConfig()
{
    HierarchyConfig config;
    config.l1.name = "l1";
    config.l1.sizeBytes = 512;
    config.l1.associativity = 2;
    config.l1.lineBytes = 64;
    config.l2.name = "l2";
    config.l2.sizeBytes = 2048;
    config.l2.associativity = 2;
    config.l2.lineBytes = 64;
    return config;
}

TEST(HierarchyConfig, PaperDefaultMatchesSection3)
{
    const HierarchyConfig config = HierarchyConfig::paperDefault();
    EXPECT_EQ(config.l1.sizeBytes, 64u * kKiB);
    EXPECT_EQ(config.l1.latencyCycles, 2u);
    EXPECT_EQ(config.l2.sizeBytes, 2u * kMiB);
    EXPECT_EQ(config.l2.latencyCycles, 12u);
}

TEST(CacheHierarchy, FirstTouchGoesToDram)
{
    CacheHierarchy hierarchy(tinyConfig());
    const test::RecordedAccess outcome =
        test::recordAccess(hierarchy, 0x10000, false);
    EXPECT_EQ(outcome.level, ServiceLevel::Dram);
    ASSERT_EQ(outcome.dram.size(), 1u);
    EXPECT_EQ(outcome.dram[0].addr, 0x10000u);
    EXPECT_FALSE(outcome.dram[0].isWrite);
}

TEST(CacheHierarchy, SecondTouchHitsL1)
{
    CacheHierarchy hierarchy(tinyConfig());
    test::recordAccess(hierarchy, 0x10000, false);
    const test::RecordedAccess outcome =
        test::recordAccess(hierarchy, 0x10000, false);
    EXPECT_EQ(outcome.level, ServiceLevel::L1);
    EXPECT_EQ(outcome.dram.size(), 0u);
}

TEST(CacheHierarchy, L1VictimServedByL2)
{
    CacheHierarchy hierarchy(tinyConfig());
    // L1: 512B/2-way/64B = 4 sets; lines 4 sets apart conflict.
    const std::uint64_t stride = 4 * 64;
    test::recordAccess(hierarchy, 0 * stride, false);
    test::recordAccess(hierarchy, 1 * stride, false);
    // Evicts line 0 from L1.
    test::recordAccess(hierarchy, 2 * stride, false);
    const test::RecordedAccess outcome =
        test::recordAccess(hierarchy, 0, false);
    EXPECT_EQ(outcome.level, ServiceLevel::L2);
    EXPECT_EQ(outcome.dram.size(), 0u);
}

TEST(CacheHierarchy, FillsEmptyWayBeforeEvicting)
{
    CacheHierarchy hierarchy(tinyConfig());
    // Two lines of one L1 set (4 sets, 2 ways) both stay resident: the
    // line filled first after the reset is not mistaken for an empty
    // way.
    const std::uint64_t stride = 4 * 64;
    test::recordAccess(hierarchy, 0, false);
    test::recordAccess(hierarchy, stride, false);
    EXPECT_EQ(test::recordAccess(hierarchy, 0, false).level,
              ServiceLevel::L1);
    EXPECT_EQ(test::recordAccess(hierarchy, stride, false).level,
              ServiceLevel::L1);
}

TEST(CacheHierarchy, DirtyL2EvictionReachesDram)
{
    CacheHierarchy hierarchy(tinyConfig());
    // Write lines that conflict in both L1 and L2 until a dirty line
    // falls out of L2.  L2: 2048/2/64 = 16 sets; stride of 16 lines.
    const std::uint64_t stride = 16 * 64;
    bool saw_dram_write = false;
    for (int i = 0; i < 8 && !saw_dram_write; ++i) {
        const test::RecordedAccess outcome =
            test::recordAccess(hierarchy, i * stride, true);
        for (std::size_t d = 0; d < outcome.dram.size(); ++d)
            saw_dram_write |= outcome.dram[d].isWrite;
    }
    EXPECT_TRUE(saw_dram_write);
}

TEST(CacheHierarchy, ResetRestoresColdState)
{
    CacheHierarchy hierarchy(tinyConfig());
    test::recordAccess(hierarchy, 0x4000, false);
    hierarchy.reset();
    EXPECT_EQ(test::recordAccess(hierarchy, 0x4000, false).level,
              ServiceLevel::Dram);
    EXPECT_EQ(hierarchy.l1().stats().accesses(), 1u);
}

TEST(CacheHierarchy, ClearStatsKeepsWarmContents)
{
    CacheHierarchy hierarchy(tinyConfig());
    test::recordAccess(hierarchy, 0x4000, false);
    hierarchy.clearStats();
    EXPECT_EQ(hierarchy.l1().stats().accesses(), 0u);
    EXPECT_EQ(test::recordAccess(hierarchy, 0x4000, false).level,
              ServiceLevel::L1);
}

TEST(CacheHierarchy, StatsAccumulatePerLevel)
{
    CacheHierarchy hierarchy(tinyConfig());
    test::recordAccess(hierarchy, 0x0, false);
    test::recordAccess(hierarchy, 0x0, false);
    EXPECT_EQ(hierarchy.l1().stats().reads, 2u);
    EXPECT_EQ(hierarchy.l1().stats().readMisses, 1u);
    // L2 consulted only on the L1 miss.
    EXPECT_EQ(hierarchy.l2().stats().accesses(), 1u);
}

/**
 * The hierarchy's per-access semantics written out over two public
 * Cache levels, one access at a time: the reference the pass is
 * compared with.
 */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const HierarchyConfig &config)
        : l1_(config.l1), l2_(config.l2), prefetch_(config.nextLinePrefetch),
          l2Line_(config.l2.lineBytes)
    {
    }

    test::RecordedAccess
    access(std::uint64_t addr, bool is_write)
    {
        test::RecordedAccess outcome;
        const CacheAccessResult l1_result = l1_.access(addr, is_write);
        if (l1_result.writeback) {
            const CacheAccessResult wb =
                l2_.fill(l1_result.writebackAddr, true);
            if (wb.writeback)
                outcome.addDram(wb.writebackAddr, true);
        }
        if (l1_result.hit) {
            outcome.level = ServiceLevel::L1;
            return outcome;
        }
        const CacheAccessResult l2_result = l2_.access(addr, false);
        if (l2_result.writeback)
            outcome.addDram(l2_result.writebackAddr, true);
        if (l2_result.hit) {
            outcome.level = ServiceLevel::L2;
            return outcome;
        }
        outcome.level = ServiceLevel::Dram;
        outcome.addDram(addr, false);
        if (prefetch_) {
            const std::uint64_t next = (addr / l2Line_ + 1) * l2Line_;
            if (!l2_.probe(next)) {
                const CacheAccessResult pf = l2_.fill(next, false);
                if (pf.writeback)
                    outcome.addDram(pf.writebackAddr, true);
                outcome.addDram(next, false, true);
            }
        }
        return outcome;
    }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

  private:
    Cache l1_;
    Cache l2_;
    bool prefetch_;
    std::uint64_t l2Line_;
};

/** A DRAM sink that classifies each request and keeps the sequence. */
struct RecordingSink
{
    explicit RecordingSink(DramDevice &dram) : dram(dram) {}

    void
    operator()(std::uint64_t addr, bool is_write, bool is_prefetch)
    {
        requests.push_back(test::DramRequest{addr, is_write, is_prefetch});
        outcomes.push_back(dram.access(addr, is_write));
    }

    DramDevice &dram;
    std::vector<test::DramRequest> requests;
    std::vector<RowOutcome> outcomes;
};

struct HierarchyGeometry
{
    std::uint32_t l1Assoc;
    std::uint32_t l2Assoc;
    bool prefetch;
};

HierarchyConfig
differentialConfig(const HierarchyGeometry &geometry)
{
    HierarchyConfig config;
    config.l1.name = "l1";
    config.l1.sizeBytes = 2048;
    config.l1.associativity = geometry.l1Assoc;
    config.l2.name = "l2";
    config.l2.sizeBytes = 16 * 1024;
    config.l2.associativity = geometry.l2Assoc;
    config.nextLinePrefetch = geometry.prefetch;
    return config;
}

void
expectSameCacheStats(const CacheStats &got, const CacheStats &want,
                     const char *level, int step)
{
    ASSERT_EQ(got.reads, want.reads) << level << " step " << step;
    ASSERT_EQ(got.writes, want.writes) << level << " step " << step;
    ASSERT_EQ(got.readMisses, want.readMisses) << level << " step " << step;
    ASSERT_EQ(got.writeMisses, want.writeMisses)
        << level << " step " << step;
    ASSERT_EQ(got.writebacks, want.writebacks) << level << " step " << step;
}

void
expectSameDramStats(const DramStats &got, const DramStats &want, int step)
{
    ASSERT_EQ(got.reads, want.reads) << "step " << step;
    ASSERT_EQ(got.writes, want.writes) << "step " << step;
    ASSERT_EQ(got.rowHits, want.rowHits) << "step " << step;
    ASSERT_EQ(got.rowClosed, want.rowClosed) << "step " << step;
    ASSERT_EQ(got.rowConflicts, want.rowConflicts) << "step " << step;
}

class HierarchyDifferential
    : public ::testing::TestWithParam<HierarchyGeometry>
{
};

/**
 * Random loads and stores (30% stores, sub-line offsets, over four
 * times the L2 capacity) through a long Pass with a recording sink,
 * through one-access passes (test::recordAccess) and through the
 * reference.  Every step compares the service level, the DRAM request
 * sequence (address, write, prefetch) with its row outcomes, the
 * DramStats, both levels' CacheStats of the one-access hierarchy and
 * everything the long pass counts as it goes (L2, L1 misses and
 * writebacks).  A pass publishes L1's read and write counts when it
 * ends, so long passes run 1 to 8 accesses and those are compared at
 * each pass end.
 */
TEST_P(HierarchyDifferential, PassMatchesOutcomeSemantics)
{
    const HierarchyGeometry &geometry = GetParam();
    const HierarchyConfig config = differentialConfig(geometry);
    CacheHierarchy hierarchy(config);
    CacheHierarchy single(config);
    ReferenceHierarchy reference(config);
    DramDevice pass_dram(DramConfig{});
    DramDevice ref_dram(DramConfig{});
    RecordingSink sink(pass_dram);

    const std::uint64_t lines = 4 * config.l2.sizeBytes / 64;
    Rng rng(geometry.l1Assoc * 131 + geometry.l2Assoc * 7 + geometry.prefetch);
    int step = 0;
    while (step < 20'000) {
        const std::uint64_t pass_length = 1 + rng.uniformInt(8);
        {
            CacheHierarchy::Pass<RecordingSink> pass(hierarchy, sink);
            for (std::uint64_t a = 0; a < pass_length; ++a, ++step) {
                const std::uint64_t addr = 0x4000'0000ull +
                                           rng.uniformInt(lines) * 64 +
                                           rng.uniformInt(64);
                const bool is_write = rng.chance(0.3);
                sink.requests.clear();
                sink.outcomes.clear();
                const ServiceLevel level = pass.access(addr, is_write);
                const test::RecordedAccess one =
                    test::recordAccess(single, addr, is_write);
                const test::RecordedAccess want =
                    reference.access(addr, is_write);

                ASSERT_EQ(level, want.level) << "step " << step;
                ASSERT_EQ(one.level, want.level) << "step " << step;
                ASSERT_EQ(sink.requests.size(), want.dram.size())
                    << "step " << step;
                ASSERT_EQ(one.dram.size(), want.dram.size())
                    << "step " << step;
                for (std::size_t d = 0; d < want.dram.size(); ++d) {
                    const test::DramRequest &w = want.dram[d];
                    for (const test::DramRequest &got :
                         {sink.requests[d], one.dram[d]}) {
                        ASSERT_EQ(got.addr, w.addr) << "step " << step;
                        ASSERT_EQ(got.isWrite, w.isWrite) << "step " << step;
                        ASSERT_EQ(got.isPrefetch, w.isPrefetch)
                            << "step " << step;
                    }
                    ASSERT_EQ(sink.outcomes[d],
                              ref_dram.access(w.addr, w.isWrite))
                        << "step " << step;
                }
                ASSERT_NO_FATAL_FAILURE(expectSameDramStats(
                    pass_dram.stats(), ref_dram.stats(), step));
                ASSERT_NO_FATAL_FAILURE(expectSameCacheStats(
                    single.l1().stats(), reference.l1().stats(),
                    "single l1", step));
                ASSERT_NO_FATAL_FAILURE(expectSameCacheStats(
                    single.l2().stats(), reference.l2().stats(),
                    "single l2", step));
                ASSERT_NO_FATAL_FAILURE(expectSameCacheStats(
                    hierarchy.l2().stats(), reference.l2().stats(), "l2",
                    step));
                const CacheStats &l1 = hierarchy.l1().stats();
                const CacheStats &want_l1 = reference.l1().stats();
                ASSERT_EQ(l1.readMisses, want_l1.readMisses)
                    << "step " << step;
                ASSERT_EQ(l1.writeMisses, want_l1.writeMisses)
                    << "step " << step;
                ASSERT_EQ(l1.writebacks, want_l1.writebacks)
                    << "step " << step;
            }
        }
        ASSERT_NO_FATAL_FAILURE(expectSameCacheStats(
            hierarchy.l1().stats(), reference.l1().stats(), "l1", step));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HierarchyDifferential,
    ::testing::Values(HierarchyGeometry{1, 1, false},
                      HierarchyGeometry{1, 1, true},
                      HierarchyGeometry{4, 4, false},
                      HierarchyGeometry{4, 4, true},
                      HierarchyGeometry{16, 16, false},
                      HierarchyGeometry{16, 16, true},
                      HierarchyGeometry{4, 16, false},
                      HierarchyGeometry{4, 16, true}),
    [](const ::testing::TestParamInfo<HierarchyGeometry> &info) {
        return "l1_" + std::to_string(info.param.l1Assoc) + "way_l2_" +
               std::to_string(info.param.l2Assoc) + "way_" +
               (info.param.prefetch ? "prefetch" : "noprefetch");
    });

} // namespace
} // namespace mcdvfs
