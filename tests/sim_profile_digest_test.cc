/**
 * @file
 * Byte-exact pins of the characterization pass.
 *
 * For every workload (the twelve SPEC-like profiles and glrender),
 * both characterization modes (detached sequential warm-up, and
 * canonical with a ProfileCache attached) and both hierarchies
 * (paper default, and next-line prefetch on), the SampleProfile vector
 * is folded into one FNV-1a digest over every field by bit pattern.
 * The calibration tests compare with tolerances and would let a
 * rewrite of the trace generator or cache model drift unnoticed; these
 * digests move if a single bit of a single profile moves.
 *
 * On a mismatch the test prints the table row it computed, so an
 * intended model change can re-pin the table in one pass.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.hh"
#include "sim/profile_cache.hh"
#include "sim/sample_simulator.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{
namespace
{

std::uint64_t
addDouble(std::uint64_t h, double v)
{
    return fnv1aWordBytes(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t
digestProfiles(const std::vector<SampleProfile> &profiles)
{
    std::uint64_t h = fnv1aWordBytes(kFnvOffsetBasis, profiles.size());
    for (const SampleProfile &p : profiles) {
        h = fnv1aString(h, p.phaseName);
        h = fnv1aWordBytes(h, p.phaseName.size());
        for (const double v :
             {p.baseCpi, p.activity, p.mlp, p.gpuWorkPerInstr,
              p.gpuActivity, p.l1Mpki, p.l2Mpki, p.l2PerInstr,
              p.dramReadsPerInstr, p.dramWritesPerInstr,
              p.dramPrefetchPerInstr, p.rowHitFrac, p.rowClosedFrac,
              p.rowConflictFrac})
            h = addDouble(h, v);
    }
    return h;
}

/** The thirteen workloads (twelve SPEC-like profiles and glrender). */
std::vector<WorkloadProfile>
allWorkloads()
{
    return extendedWorkloads();
}

/** (workload name, canonical mode, next-line prefetch). */
using DigestCase = std::tuple<std::string, bool, bool>;

/** Pinned digests, generated before the characterization rewrite. */
const std::map<DigestCase, std::uint64_t> &
pinned()
{
    static const std::map<DigestCase, std::uint64_t> table = {
        {{"bzip2", false, false}, 0xe6b2d898e669d45bull},
{{"bzip2", false, true}, 0xbe216b85d1b8a8b2ull},
        {{"bzip2", true, false}, 0x6952f46812b34841ull},
        {{"bzip2", true, true}, 0xc3166b2a71521d52ull},
        {{"gcc", false, false}, 0x7ec006e106136b1aull},
        {{"gcc", false, true}, 0xfe8efc4bab916efcull},
        {{"gcc", true, false}, 0xc35077462555ffabull},
        {{"gcc", true, true}, 0x6fd8808e04bd095aull},
        {{"gobmk", false, false}, 0xd5c0e0d5fec77861ull},
        {{"gobmk", false, true}, 0xef5cedb917b0846eull},
        {{"gobmk", true, false}, 0x98771b381a2320b3ull},
        {{"gobmk", true, true}, 0xe7d81056a3b52359ull},
        {{"lbm", false, false}, 0xcafcc03aa07a70f3ull},
        {{"lbm", false, true}, 0xf0bd9e7e7ec32f62ull},
        {{"lbm", true, false}, 0x8f92178e870c5b2full},
        {{"lbm", true, true}, 0x7f4c48fb0aa6b1bcull},
        {{"libq.", false, false}, 0x97aa08d069dc9e2bull},
        {{"libq.", false, true}, 0xd6c9914ce097b897ull},
        {{"libq.", true, false}, 0xbfc9fcbfe67e4b0eull},
        {{"libq.", true, true}, 0x2d7224f5842bad8ull},
        {{"milc", false, false}, 0xdc838065a72b3a9ull},
        {{"milc", false, true}, 0x20d10f0c13f9d352ull},
        {{"milc", true, false}, 0x48616f82fbb97deull},
        {{"milc", true, true}, 0xb22b3c377bd82e7full},
        {{"mcf", false, false}, 0x75c01accb828ebb5ull},
        {{"mcf", false, true}, 0xce6fe7b7646d208aull},
        {{"mcf", true, false}, 0xef0836d8a03f04a8ull},
        {{"mcf", true, true}, 0x3ad50936282b2c93ull},
        {{"hmmer", false, false}, 0x8c324f496280018bull},
        {{"hmmer", false, true}, 0x42c5b2534f0e4445ull},
        {{"hmmer", true, false}, 0xdecfd0d9282d9208ull},
        {{"hmmer", true, true}, 0xa3e2180ba4d739edull},
        {{"sjeng", false, false}, 0x772a0858e1de4d2bull},
        {{"sjeng", false, true}, 0xfadfd5dcdca6bc44ull},
        {{"sjeng", true, false}, 0x4b414ea8871ca4fcull},
        {{"sjeng", true, true}, 0x4b4672a1a689c771ull},
        {{"omnetpp", false, false}, 0xf3cf16b326e06af2ull},
        {{"omnetpp", false, true}, 0x22e85f4556ead1adull},
        {{"omnetpp", true, false}, 0x31ede5fd9e98f3e6ull},
        {{"omnetpp", true, true}, 0x92c453b9a7c42508ull},
        {{"namd", false, false}, 0x9fab4f831ea8d178ull},
        {{"namd", false, true}, 0xb45996330f17709cull},
        {{"namd", true, false}, 0x9958dfd3d462f668ull},
        {{"namd", true, true}, 0x45da35e9a800cf2aull},
        {{"soplex", false, false}, 0xb276ae6f7bfa8ffaull},
        {{"soplex", false, true}, 0x54b77e3e8c32144bull},
        {{"soplex", true, false}, 0xcb2145b5464b79e5ull},
        {{"soplex", true, true}, 0xf0c2afd44ae86b03ull},
        {{"glrender", false, false}, 0x8879cb41c0909458ull},
        {{"glrender", false, true}, 0xd877dce81b573f6bull},
        {{"glrender", true, false}, 0x5a1d94423db6db51ull},
        {{"glrender", true, true}, 0x739d80fa01cb3c0bull},
    };
    return table;
}

class ProfileDigest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(ProfileDigest, MatchesPinnedBytes)
{
    const auto &[name, canonical, prefetch] = GetParam();
    SampleSimulatorConfig config;
    config.hierarchy.nextLinePrefetch = prefetch;
    SampleSimulator simulator(config);
    ProfileCache cache(4096);
    if (canonical)
        simulator.setProfileCache(&cache);

    const std::uint64_t got =
        digestProfiles(simulator.characterize(workloadByName(name)));
    const auto it = pinned().find(GetParam());
    const bool match = it != pinned().end() && it->second == got;
    EXPECT_TRUE(match) << "re-pin: {{\"" << name << "\", "
                       << (canonical ? "true" : "false") << ", "
                       << (prefetch ? "true" : "false") << "}, 0x"
                       << std::hex << got << "ull},";
}

std::vector<DigestCase>
allCases()
{
    std::vector<DigestCase> cases;
    for (const WorkloadProfile &wl : allWorkloads())
        for (const bool canonical : {false, true})
            for (const bool prefetch : {false, true})
                cases.emplace_back(wl.name(), canonical, prefetch);
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<DigestCase> &info)
{
    const auto &[name, canonical, prefetch] = info.param;
    std::string id = name + (canonical ? "_canonical" : "_detached") +
                     (prefetch ? "_prefetch" : "_default");
    for (char &c : id)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return id;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ProfileDigest,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(ProfileDigest, CoversEveryWorkloadModeAndHierarchy)
{
    EXPECT_EQ(allWorkloads().size(), 13u);
    EXPECT_EQ(allCases().size(), 52u);
    EXPECT_EQ(pinned().size(), 52u);
}

} // namespace
} // namespace mcdvfs
