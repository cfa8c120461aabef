/**
 * @file
 * Figure 9: distribution of stable-region lengths.
 *
 *  (a) gobmk across budgets {1.0, 1.2, 1.3, 1.6} and thresholds
 *      {1%, 3%, 5%} — rapidly changing phases keep regions short;
 *  (b) bzip2 across the same sweep — at budget 1.6 a single region
 *      covers the entire benchmark at 3%/5% thresholds;
 *  (c) all benchmarks at budget 1.3.
 *
 * Each row is a box-plot five-number summary (min / Q1 / median / Q3 /
 * max) of region lengths in samples.  The six grids build side by
 * side on the suite's pool, and the twelve-point sweeps run through
 * AnalysisSweep on it too.  --jobs N sizes that pool; absent or 0, it
 * takes one worker fewer than the allowed CPUs.  Output is
 * bit-identical at any size.
 */

#include <iostream>

#include "cluster_panels.hh"
#include "common/args.hh"
#include "common/table.hh"

using namespace mcdvfs;

namespace
{

Distribution
regionLengths(const SweepResult &result)
{
    Distribution lengths;
    for (const StableRegion &region : result.regions)
        lengths.add(static_cast<double>(region.length()));
    return lengths;
}

void
addBoxRow(Table &table, const std::string &label,
          const Distribution &lengths)
{
    const BoxSummary box = lengths.summary();
    table.addRow({label, Table::num(static_cast<long long>(box.count)),
                  Table::num(box.min, 0), Table::num(box.q1, 1),
                  Table::num(box.median, 1), Table::num(box.q3, 1),
                  Table::num(box.max, 0), Table::num(box.mean, 2)});
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fig09_region_lengths");
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
    exec::ThreadPool *pool = &suite.service().pool();
    suite.characterize(ReproSuite::benchmarkNames());

    // Panels (a) and (b): per-benchmark budget sweep.
    for (const std::string workload : {"gobmk", "bzip2"}) {
        const MeasuredGrid &grid = suite.grid(workload);
        GridAnalyses a(grid);
        AnalysisSweep sweep(a.clusters);
        Table table({"budget/thr", "regions", "min", "q1", "median",
                     "q3", "max", "mean"});
        table.setTitle("Fig 9: stable-region lengths, " + workload);
        for (const SweepResult &result :
             sweep.run(sweepGrid({1.0, 1.2, 1.3, 1.6},
                                 {0.01, 0.03, 0.05}),
                       pool)) {
            addBoxRow(table, sweepLabel(result.point),
                      regionLengths(result));
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    // Panel (c): all benchmarks at budget 1.3.
    Table table({"benchmark/thr", "regions", "min", "q1", "median",
                 "q3", "max", "mean"});
    table.setTitle("Fig 9(c): stable-region lengths at I=1.3");
    for (const std::string &name : ReproSuite::benchmarkNames()) {
        const MeasuredGrid &grid = suite.grid(name);
        GridAnalyses a(grid);
        AnalysisSweep sweep(a.clusters);
        for (const SweepResult &result :
             sweep.run(sweepGrid({1.3}, {0.01, 0.03, 0.05}), pool)) {
            char label[48];
            std::snprintf(label, sizeof(label), "%s/%.0f%%",
                          name.c_str(), result.point.threshold * 100.0);
            addBoxRow(table, label, regionLengths(result));
        }
    }
    table.print(std::cout);
    return 0;
}
