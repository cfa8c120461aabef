/**
 * @file
 * Figure 5: performance clusters of milc for budgets {1.0, 1.3} and
 * cluster thresholds {1%, 5%}.
 *
 * Reproduced observation (§VI-A): milc is largely CPU intensive with
 * memory-intensive bursts; at higher thresholds the CPU frequency
 * stays tightly bound while the cluster spans a wide range of memory
 * frequencies (small performance difference across memory settings).
 *
 * --jobs N fans the sweep's per-sample cluster kernel over the suite's
 * thread pool (output is bit-identical to the serial run).
 */

#include <algorithm>
#include <iostream>

#include "cluster_panels.hh"
#include "common/args.hh"

int
main(int argc, char **argv)
{
    mcdvfs::ArgParser args("fig05_clusters_milc");
    args.addOption("jobs");
    std::size_t jobs = 0;
    try {
        args.parse(argc, argv);
        jobs = static_cast<std::size_t>(args.getInt("jobs", 0, 0, 1024));
    } catch (const mcdvfs::FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 2;
    }

    mcdvfs::ReproSuite suite(mcdvfs::SystemConfig::paperDefault(),
                             std::max<std::size_t>(1, jobs));
    mcdvfs::printClusterPanels(
        suite, "milc", jobs > 0 ? &suite.service().pool() : nullptr);
    return 0;
}
