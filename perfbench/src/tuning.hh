/**
 * @file
 * Requests and output checks of the cold_tune workload: the
 * (workload, space) mix, re-seeded paper workloads, result digests,
 * and the re-check against the scalar oracles (sim/reference_kernel,
 * core/reference_analysis).
 */

#ifndef PERFBENCH_TUNING_HH
#define PERFBENCH_TUNING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "svc/characterization_service.hh"

namespace perfbench
{

enum class SpaceKind
{
    Coarse,   ///< 10 x 7 = 70 settings
    Fine,     ///< 496 settings
    Coarse3,  ///< 10 x 7 x 8 = 560 settings (CPU x mem x GPU)
};

/** One (workload, settings space) pair of the request mix. */
struct MixSlot
{
    const char *workload;
    SpaceKind space;
};

/**
 * The request mix: the paper's six workloads on the coarse and fine
 * spaces, plus glrender on the three-domain space.  Tiny runs keep the
 * first two slots.
 */
std::vector<MixSlot> requestMix(bool tiny);

mcdvfs::SettingsSpace spaceOf(SpaceKind kind);
const char *spaceName(SpaceKind kind);

/** The paper's budget and cluster-threshold ranges. */
extern const std::vector<double> kBudgets;
extern const std::vector<double> kThresholds;

/**
 * A paper workload with fresh trace streams: the same post-jitter
 * phase script, sample count and name, but every sample's trace seed
 * derived from @c seed, so no two seeds share a grid.
 */
mcdvfs::WorkloadProfile reseeded(const std::string &name,
                                 std::uint64_t seed);

/** Simulated instructions (warm-up plus samples) of one grid build. */
std::uint64_t simulatedInstructions(const mcdvfs::WorkloadProfile &wl,
                                    const mcdvfs::SystemConfig &config);

/** Digests of one tuning result's parts. */
struct ResultDigests
{
    std::uint64_t grid = 0;  ///< binary grid bytes
    std::uint64_t optimal = 0;
    std::uint64_t clusters = 0;
    std::uint64_t regions = 0;
    bool operator==(const ResultDigests &) const = default;
};

/** Digest of a grid's binary serialization (sim/grid_io). */
std::uint64_t digestGrid(const mcdvfs::MeasuredGrid &grid);

/** Digests of a full result (grid bytes included). */
ResultDigests digestResult(const mcdvfs::svc::TuningResult &result);

/**
 * Rebuild @c result's grid with the cell-at-a-time reference kernel
 * from the grid's own profiles, rerun the analysis with the scalar
 * reference chain, and return their digests for comparison.
 */
ResultDigests referenceDigests(const mcdvfs::SystemConfig &config,
                               const mcdvfs::svc::TuningResult &result);

} // namespace perfbench

#endif // PERFBENCH_TUNING_HH
