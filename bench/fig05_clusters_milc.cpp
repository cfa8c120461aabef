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
 * --jobs N sizes the pool the grid and the sweep run on; absent or 0,
 * it takes one worker fewer than the allowed CPUs (clusterFigureMain).
 */

#include "cluster_panels.hh"

int
main(int argc, char **argv)
{
    return mcdvfs::clusterFigureMain(argc, argv, "fig05_clusters_milc",
                                     "milc");
}
