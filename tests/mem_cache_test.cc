/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "mem/cache.hh"

namespace mcdvfs
{
namespace
{

CacheConfig
smallConfig()
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = 1024;
    config.associativity = 2;
    config.lineBytes = 64;
    return config;
}

TEST(CacheConfig, GeometryValidation)
{
    CacheConfig config = smallConfig();
    EXPECT_NO_THROW(config.validate());

    config.lineBytes = 48;  // not a power of two
    EXPECT_THROW(config.validate(), FatalError);

    config = smallConfig();
    config.associativity = 0;
    EXPECT_THROW(config.validate(), FatalError);

    config = smallConfig();
    config.sizeBytes = 1000;  // not divisible
    EXPECT_THROW(config.validate(), FatalError);

    config = smallConfig();
    config.associativity = 3;  // 1024/64/3 not a power of two
    EXPECT_THROW(config.validate(), FatalError);
}

TEST(CacheConfig, NumSets)
{
    EXPECT_EQ(smallConfig().numSets(), 8u);
    CacheConfig paper;
    paper.sizeBytes = 64 * kKiB;
    paper.associativity = 4;
    paper.lineBytes = 64;
    EXPECT_EQ(paper.numSets(), 256u);
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    // Same line, different offset also hits.
    EXPECT_TRUE(cache.access(0x1038, false).hit);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache cache(smallConfig());
    cache.access(0x0, false);
    cache.access(0x40, false);  // next set
    EXPECT_TRUE(cache.access(0x0, false).hit);
    EXPECT_TRUE(cache.access(0x40, false).hit);
}

TEST(Cache, LruEviction)
{
    // 2-way set: three conflicting lines evict the least recent.
    Cache cache(smallConfig());
    const std::uint64_t set_stride = 8 * 64;  // 8 sets * 64B lines
    cache.access(0 * set_stride, false);      // A
    cache.access(1 * set_stride, false);      // B
    cache.access(0 * set_stride, false);      // touch A
    cache.access(2 * set_stride, false);      // C evicts B
    EXPECT_TRUE(cache.access(0 * set_stride, false).hit);
    EXPECT_FALSE(cache.access(1 * set_stride, false).hit);
}

TEST(Cache, DirtyEvictionGeneratesWriteback)
{
    Cache cache(smallConfig());
    const std::uint64_t set_stride = 8 * 64;
    cache.access(0, true);  // dirty line A
    cache.access(1 * set_stride, false);
    const CacheAccessResult result = cache.access(2 * set_stride, false);
    EXPECT_TRUE(result.writeback);
    EXPECT_EQ(result.writebackAddr, 0u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache cache(smallConfig());
    const std::uint64_t set_stride = 8 * 64;
    cache.access(0, false);
    cache.access(1 * set_stride, false);
    EXPECT_FALSE(cache.access(2 * set_stride, false).writeback);
}

TEST(Cache, WriteHitMarksLineDirty)
{
    Cache cache(smallConfig());
    const std::uint64_t set_stride = 8 * 64;
    cache.access(0, false);  // clean fill
    cache.access(0, true);   // write hit dirties it
    cache.access(1 * set_stride, false);
    const CacheAccessResult result = cache.access(2 * set_stride, false);
    EXPECT_TRUE(result.writeback);
}

TEST(Cache, FillInstallsWithoutAccessCounters)
{
    Cache cache(smallConfig());
    cache.fill(0x2000, /*dirty=*/true);
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_TRUE(cache.access(0x2000, false).hit);
}

TEST(Cache, StatsCounters)
{
    Cache cache(smallConfig());
    cache.access(0x0, false);   // read miss
    cache.access(0x0, false);   // read hit
    cache.access(0x40, true);   // write miss
    cache.access(0x40, true);   // write hit
    const CacheStats &stats = cache.stats();
    EXPECT_EQ(stats.reads, 2u);
    EXPECT_EQ(stats.writes, 2u);
    EXPECT_EQ(stats.readMisses, 1u);
    EXPECT_EQ(stats.writeMisses, 1u);
    EXPECT_DOUBLE_EQ(stats.missRatio(), 0.5);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache cache(smallConfig());
    cache.access(0x0, true);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_FALSE(cache.access(0x0, false).hit);
}

TEST(Cache, ClearStatsKeepsContents)
{
    Cache cache(smallConfig());
    cache.access(0x0, false);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses(), 0u);
    EXPECT_TRUE(cache.access(0x0, false).hit);
}

TEST(Cache, WorkingSetWithinCapacityAlwaysHitsAfterWarmup)
{
    Cache cache(smallConfig());  // 1 KiB
    // Touch 16 lines (exactly capacity), then re-touch: all hits.
    for (std::uint64_t line = 0; line < 16; ++line)
        cache.access(line * 64, false);
    for (std::uint64_t line = 0; line < 16; ++line)
        EXPECT_TRUE(cache.access(line * 64, false).hit);
}

/**
 * Property: the cache agrees with a simple reference model (per-set
 * LRU list) on hit/miss for random access streams, across geometries.
 */
struct Geometry
{
    std::uint64_t size;
    std::uint32_t assoc;
};

class CacheModelProperty : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheModelProperty, MatchesReferenceLru)
{
    CacheConfig config;
    config.sizeBytes = GetParam().size;
    config.associativity = GetParam().assoc;
    config.lineBytes = 64;
    Cache cache(config);

    const std::uint64_t sets = config.numSets();
    std::map<std::uint64_t, std::vector<std::uint64_t>> model;

    Rng rng(GetParam().size * 31 + GetParam().assoc);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t line = rng.uniformInt(4 * sets *
                                                  config.associativity);
        const std::uint64_t addr = line * 64;
        const std::uint64_t set = line % sets;
        const std::uint64_t tag = line / sets;

        auto &ways = model[set];
        const auto it = std::find(ways.begin(), ways.end(), tag);
        const bool expect_hit = it != ways.end();
        if (expect_hit)
            ways.erase(it);
        ways.push_back(tag);  // most recent at the back
        if (ways.size() > config.associativity)
            ways.erase(ways.begin());

        ASSERT_EQ(cache.access(addr, false).hit, expect_hit)
            << "divergence at access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelProperty,
    ::testing::Values(Geometry{1024, 1}, Geometry{1024, 2},
                      Geometry{4096, 4}, Geometry{8192, 8},
                      Geometry{64 * 1024, 4}, Geometry{4096, 64}));


/**
 * The array-of-structs, early-exit cache model the SoA Cache replaced,
 * kept here verbatim in behaviour as the oracle for the rewrite.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config), numSets_(config.numSets()),
          lines_(numSets_ * config.associativity)
    {
        while ((1ull << lineShift_) < config.lineBytes)
            ++lineShift_;
    }

    CacheAccessResult
    access(std::uint64_t addr, bool is_write)
    {
        const std::uint64_t line_addr = addr >> lineShift_;
        const std::uint64_t set = line_addr & (numSets_ - 1);
        const std::uint64_t tag = line_addr / numSets_;
        if (is_write)
            ++stats_.writes;
        else
            ++stats_.reads;
        if (Line *line = findLine(set, tag)) {
            line->lastUse = ++useClock_;
            if (is_write)
                line->dirty = true;
            CacheAccessResult result;
            result.hit = true;
            return result;
        }
        if (is_write)
            ++stats_.writeMisses;
        else
            ++stats_.readMisses;
        return insert(set, tag, is_write);
    }

    CacheAccessResult
    fill(std::uint64_t addr, bool dirty)
    {
        const std::uint64_t line_addr = addr >> lineShift_;
        const std::uint64_t set = line_addr & (numSets_ - 1);
        const std::uint64_t tag = line_addr / numSets_;
        if (Line *line = findLine(set, tag)) {
            line->lastUse = ++useClock_;
            line->dirty = line->dirty || dirty;
            CacheAccessResult result;
            result.hit = true;
            return result;
        }
        return insert(set, tag, dirty);
    }

    bool
    probe(std::uint64_t addr)
    {
        const std::uint64_t line_addr = addr >> lineShift_;
        return findLine(line_addr & (numSets_ - 1),
                        line_addr / numSets_) != nullptr;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    Line *
    findLine(std::uint64_t set, std::uint64_t tag)
    {
        Line *base = &lines_[set * config_.associativity];
        for (std::uint32_t way = 0; way < config_.associativity; ++way) {
            if (base[way].valid && base[way].tag == tag)
                return &base[way];
        }
        return nullptr;
    }

    CacheAccessResult
    insert(std::uint64_t set, std::uint64_t tag, bool dirty)
    {
        Line *base = &lines_[set * config_.associativity];
        Line *victim = &base[0];
        for (std::uint32_t way = 0; way < config_.associativity; ++way) {
            if (!base[way].valid) {
                victim = &base[way];
                break;
            }
            if (base[way].lastUse < victim->lastUse)
                victim = &base[way];
        }
        CacheAccessResult result;
        if (victim->valid && victim->dirty) {
            result.writeback = true;
            result.writebackAddr = ((victim->tag * numSets_) + set)
                                   << lineShift_;
            ++stats_.writebacks;
        }
        victim->valid = true;
        victim->dirty = dirty;
        victim->tag = tag;
        victim->lastUse = ++useClock_;
        return result;
    }

    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint32_t lineShift_ = 0;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want, int step)
{
    ASSERT_EQ(got.reads, want.reads) << "step " << step;
    ASSERT_EQ(got.writes, want.writes) << "step " << step;
    ASSERT_EQ(got.readMisses, want.readMisses) << "step " << step;
    ASSERT_EQ(got.writeMisses, want.writeMisses) << "step " << step;
    ASSERT_EQ(got.writebacks, want.writebacks) << "step " << step;
}

class CacheDifferential : public ::testing::TestWithParam<Geometry>
{
};

/**
 * Random access/fill/probe sequences (reads and writes, clean and
 * dirty fills, addresses at sub-line offsets over four times the
 * capacity) give the same hit, writeback, writeback address and
 * counters at every step as the reference model.
 */
TEST_P(CacheDifferential, MatchesArrayOfStructsModel)
{
    CacheConfig config;
    config.sizeBytes = GetParam().size;
    config.associativity = GetParam().assoc;
    config.lineBytes = 64;
    Cache cache(config);
    ReferenceCache reference(config);

    const std::uint64_t lines = 4 * config.numSets() * config.associativity;
    Rng rng(GetParam().size * 131 + GetParam().assoc);
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t addr =
            0x4000'0000ull + rng.uniformInt(lines) * 64 + rng.uniformInt(64);
        const std::uint64_t op = rng.uniformInt(8);
        if (op == 0) {
            ASSERT_EQ(cache.probe(addr), reference.probe(addr))
                << "step " << i;
            continue;
        }
        const bool flag = rng.chance(0.3);
        const CacheAccessResult got =
            op == 1 ? cache.fill(addr, flag) : cache.access(addr, flag);
        const CacheAccessResult want = op == 1 ? reference.fill(addr, flag)
                                               : reference.access(addr, flag);
        ASSERT_EQ(got.hit, want.hit) << "step " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "step " << i;
        ASSERT_EQ(got.writebackAddr, want.writebackAddr) << "step " << i;
        expectSameStats(cache.stats(), reference.stats(), i);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(Geometry{1024, 1}, Geometry{4096, 4},
                      Geometry{64 * 1024, 4}, Geometry{16 * 1024, 16}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::to_string(info.param.size) + "B_" +
               std::to_string(info.param.assoc) + "way";
    });

TEST(CacheConfig, AtMost64Ways)
{
    CacheConfig config;
    config.sizeBytes = 128 * 64;
    config.lineBytes = 64;
    config.associativity = 64;
    EXPECT_NO_THROW(config.validate());
    config.associativity = 128;
    EXPECT_THROW(config.validate(), FatalError);
}

} // namespace
} // namespace mcdvfs
