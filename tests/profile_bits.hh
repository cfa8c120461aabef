/**
 * @file
 * Bit-pattern view of a SampleProfile for byte-exact test comparisons.
 */

#ifndef MCDVFS_TESTS_PROFILE_BITS_HH
#define MCDVFS_TESTS_PROFILE_BITS_HH

#include <array>
#include <bit>
#include <cstdint>

#include "sim/sample_profile.hh"

namespace mcdvfs
{
namespace test
{

/** Every numeric field of @c p by bit pattern, in declaration order. */
inline std::array<std::uint64_t, 14>
profileBits(const SampleProfile &p)
{
    const double fields[14] = {
        p.baseCpi,           p.activity,           p.mlp,
        p.gpuWorkPerInstr,   p.gpuActivity,        p.l1Mpki,
        p.l2Mpki,            p.l2PerInstr,         p.dramReadsPerInstr,
        p.dramWritesPerInstr, p.dramPrefetchPerInstr, p.rowHitFrac,
        p.rowClosedFrac,     p.rowConflictFrac};
    std::array<std::uint64_t, 14> bits{};
    for (std::size_t i = 0; i < bits.size(); ++i)
        bits[i] = std::bit_cast<std::uint64_t>(fields[i]);
    return bits;
}

} // namespace test
} // namespace mcdvfs

#endif // MCDVFS_TESTS_PROFILE_BITS_HH
