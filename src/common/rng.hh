/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Workload traces must be exactly reproducible across runs and across
 * machines, so mcdvfs does not use std::mt19937 (whose distributions
 * are implementation-defined).  Rng implements xoshiro256** seeded via
 * SplitMix64, with distribution helpers defined by this library.
 */

#ifndef MCDVFS_COMMON_RNG_HH
#define MCDVFS_COMMON_RNG_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace mcdvfs
{

/**
 * A uniformInt() bound with its rejection threshold precomputed, so a
 * hot loop drawing against a fixed bound pays the 64-bit remainder
 * once instead of per draw.
 */
struct UniformBound
{
    explicit UniformBound(std::uint64_t n) : bound(n)
    {
        MCDVFS_ASSERT(n > 0, "uniformInt bound must be positive");
        threshold = (0 - n) % n;
    }

    std::uint64_t bound;
    std::uint64_t threshold = 0;  ///< draws below this are rejected
};

/**
 * Deterministic xoshiro256** generator with convenience draws.  The
 * draws the trace generator makes per instruction are defined here so
 * they inline into its loop.
 */
class Rng
{
  public:
    /** Seed deterministically from a 64-bit seed via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits give a uniform double in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) without modulo bias; bound > 0. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        return uniformInt(UniformBound(bound));
    }

    /** uniformInt() against a precomputed bound. */
    std::uint64_t
    uniformInt(const UniformBound &b)
    {
        // Rejection sampling to avoid modulo bias.
        for (;;) {
            const std::uint64_t r = next();
            if (r >= b.threshold)
                return r % b.bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::int64_t uniformRange(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw: true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Geometric draw: number of failures before the first success with
     * success probability p in (0, 1]; returns 0 when p >= 1.
     */
    std::uint64_t geometric(double p);

    /** Standard normal draw (Box-Muller, deterministic). */
    double gaussian();

    /** Fork a child generator whose stream is independent of ours. */
    Rng fork();

  private:
    std::uint64_t state_[4];
};

} // namespace mcdvfs

#endif // MCDVFS_COMMON_RNG_HH
