/**
 * @file
 * Shared budget/threshold sweep setup and panel renderers for the
 * cluster figures (Figs. 4, 5 and 9).
 *
 * Every cluster figure evaluates a cross product of inefficiency
 * budgets and cluster thresholds over one grid.  The helpers here
 * build the sweep points in panel order, run them through
 * AnalysisSweep, and render the per-sample cluster-extent panels of
 * Figs. 4/5.
 */

#ifndef MCDVFS_BENCH_CLUSTER_PANELS_HH
#define MCDVFS_BENCH_CLUSTER_PANELS_HH

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "common/args.hh"
#include "common/table.hh"
#include "core/analysis_sweep.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"

namespace mcdvfs
{

/** Cross product of budgets x thresholds, in panel order. */
inline std::vector<SweepPoint>
sweepGrid(std::initializer_list<double> budgets,
          std::initializer_list<double> thresholds)
{
    std::vector<SweepPoint> points;
    points.reserve(budgets.size() * thresholds.size());
    for (const double budget : budgets) {
        for (const double threshold : thresholds)
            points.push_back({budget, threshold});
    }
    return points;
}

/** "1.3/3%" row label of one sweep point. */
inline std::string
sweepLabel(const SweepPoint &point)
{
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f/%.0f%%", point.budget,
                  point.threshold * 100.0);
    return label;
}

/** Render one (budget, threshold) cluster panel for a workload. */
inline void
printClusterPanel(const MeasuredGrid &grid, GridAnalyses &a,
                  const SweepResult &result)
{
    const double budget = result.point.budget;
    const double threshold = result.point.threshold;
    Table table({"sample", "cpu lo", "cpu hi", "mem lo", "mem hi",
                 "size", "opt"});
    char title[128];
    std::snprintf(title, sizeof(title),
                  "clusters: %s, I=%.1f, threshold=%.0f%%",
                  grid.workload().c_str(), budget, threshold * 100.0);
    table.setTitle(title);

    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        const PerformanceCluster cluster = result.table.materialize(s);
        Hertz cpu_lo = grid.space().cpuLadder().highest();
        Hertz cpu_hi = grid.space().cpuLadder().lowest();
        Hertz mem_lo = grid.space().memLadder().highest();
        Hertz mem_hi = grid.space().memLadder().lowest();
        for (const std::size_t k : cluster.settings) {
            const FrequencySetting setting = grid.space().at(k);
            cpu_lo = std::min(cpu_lo, setting.cpu);
            cpu_hi = std::max(cpu_hi, setting.cpu);
            mem_lo = std::min(mem_lo, setting.mem);
            mem_hi = std::max(mem_hi, setting.mem);
        }
        table.addRow({Table::num(static_cast<long long>(s)),
                      Table::num(toMegaHertz(cpu_lo), 0),
                      Table::num(toMegaHertz(cpu_hi), 0),
                      Table::num(toMegaHertz(mem_lo), 0),
                      Table::num(toMegaHertz(mem_hi), 0),
                      Table::num(static_cast<long long>(
                          cluster.settings.size())),
                      cluster.optimal.setting.label()});
    }
    table.print(std::cout);

    std::cout << "avg cluster size: "
              << Table::num(result.avgClusterSize(), 2)
              << "; stable regions: " << result.regions.size()
              << "; transitions: "
              << a.transitions.forClusterPolicy(budget, threshold)
                     .transitions
              << "\n\n";
}

/**
 * main() of a one-workload cluster figure (Figs. 4/5): the four panels
 * of @c workload, budgets {1.0, 1.3} x thresholds {1%, 5%}.  The grid
 * build and the sweep's per-sample kernel run on the suite's pool.
 * --jobs N sizes it; absent or 0, it takes one worker fewer than the
 * CPUs the process may run on.  Output is bit-identical at any size.
 */
inline int
clusterFigureMain(int argc, char **argv, const char *binary,
                  const std::string &workload)
{
    ArgParser args(binary);
    args.addOption("jobs");
    std::size_t jobs = 0;
    try {
        args.parse(argc, argv);
        jobs = static_cast<std::size_t>(args.getInt("jobs", 0, 0, 1024));
    } catch (const FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 2;
    }

    ReproSuite suite(SystemConfig::paperDefault(), jobs);
    const MeasuredGrid &grid = suite.grid(workload);
    GridAnalyses a(grid);
    AnalysisSweep sweep(a.clusters);
    for (const SweepResult &result :
         sweep.run(sweepGrid({1.0, 1.3}, {0.01, 0.05}),
                   &suite.service().pool()))
        printClusterPanel(grid, a, result);
    return 0;
}

} // namespace mcdvfs

#endif // MCDVFS_BENCH_CLUSTER_PANELS_HH
