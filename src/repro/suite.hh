/**
 * @file
 * Shared experiment harness for the figure benchmarks.
 *
 * Every bench binary needs measured grids for some subset of the six
 * benchmarks over the coarse 70-setting space.  ReproSuite serves them
 * through the characterization service, so a binary touching several
 * figures pays for each characterization once (the service's grid
 * cache).  A binary that reads several workloads names them up front
 * (characterize()), and their independent builds run side by side on
 * the service's pool.
 */

#ifndef MCDVFS_REPRO_SUITE_HH
#define MCDVFS_REPRO_SUITE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "svc/characterization_service.hh"

namespace mcdvfs
{

/** Memoized grid provider over the paper's configuration. */
class ReproSuite
{
  public:
    /**
     * @param config system configuration shared by every grid
     * @param jobs worker threads of the service's pool; 0 (the
     *        default) means exec::ThreadPool::defaultWorkers(), so the
     *        workers plus the calling thread fill the CPUs the process
     *        may run on.  Grid builds and characterize() run on the
     *        calling thread plus these workers; results are
     *        bit-identical at any count.
     */
    explicit ReproSuite(const SystemConfig &config =
                            SystemConfig::paperDefault(),
                        std::size_t jobs = 0);

    /** The paper's six benchmarks in reporting order. */
    static const std::vector<std::string> &benchmarkNames();

    /** Coarse 70-setting space shared by all figures. */
    const SettingsSpace &coarseSpace() const { return coarse_; }

    /**
     * The measured grid of @c workload over the coarse space
     * (characterized on first use, then cached).
     *
     * @throws FatalError for unknown workload names
     */
    const MeasuredGrid &grid(const std::string &workload);

    /**
     * Build the coarse grid of every listed workload that grid() has
     * not served yet, side by side on the service's pool (the calling
     * thread participates), largest workload first.  Duplicate names
     * build once.  grid() then serves the results unchanged.
     *
     * @throws FatalError for unknown workload names, before any build
     *         starts
     */
    void characterize(const std::vector<std::string> &workloads);

    /** The underlying service (batched tuning, cache statistics). */
    svc::CharacterizationService &service() { return service_; }

  private:
    static svc::CharacterizationService::Options serviceOptions(
        std::size_t jobs);

    SettingsSpace coarse_;
    svc::CharacterizationService service_;
    /** Pins served grids so grid()'s references outlive cache churn. */
    std::map<std::string, std::shared_ptr<const MeasuredGrid>> pinned_;
};

} // namespace mcdvfs

#endif // MCDVFS_REPRO_SUITE_HH
