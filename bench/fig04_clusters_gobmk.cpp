/**
 * @file
 * Figure 4: performance clusters of gobmk for budgets {1.0, 1.3} and
 * cluster thresholds {1%, 5%}.
 *
 * Reproduced observations (§VI-A): raising the threshold widens the
 * per-sample cluster (more settings available), which raises the
 * chance of consecutive samples sharing a setting and so reduces
 * transitions; whether a higher budget lengthens stable regions is
 * workload dependent.
 *
 * --jobs N sizes the pool the grid and the sweep run on; absent or 0,
 * it takes one worker fewer than the allowed CPUs (clusterFigureMain).
 */

#include "cluster_panels.hh"

int
main(int argc, char **argv)
{
    return mcdvfs::clusterFigureMain(argc, argv, "fig04_clusters_gobmk",
                                     "gobmk");
}
