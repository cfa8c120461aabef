/**
 * @file
 * Figure-style cluster panels over the three-domain settings space:
 * glrender (the GPU render loop) on the 560-setting
 * CPU x mem x GPU coarse3 cross product, budgets {1.0, 1.3} x
 * thresholds {1%, 5%}.
 *
 * The panels extend Figs. 4/5 with the GPU extent of each per-sample
 * cluster: submit-heavy frames pull the cluster's GPU band up while
 * prepare-heavy frames widen the CPU band, which is the structure the
 * budget arbiter's priority variants act on.
 *
 * --jobs N sizes the pool that the grid build and the sweep run on;
 * absent or 0, it takes one worker fewer than the allowed CPUs.
 * Output is bit-identical at any size.  --tiny shrinks the workload
 * for smoke runs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_json.hh"
#include "cluster_panels.hh"
#include "common/args.hh"
#include "obs/metrics.hh"
#include "sim/grid_runner.hh"
#include "trace/workloads.hh"

using namespace mcdvfs;

namespace
{

/** Shortened render loop for --tiny runs. */
WorkloadProfile
tinyRenderWorkload()
{
    const WorkloadProfile full = makeGlrender();
    return WorkloadProfile(
        "glrender-tiny", 16,
        [full](std::size_t s) { return full.phaseFor(s); }, 31,
        /*jitter=*/0.0);
}

/** One cluster panel with per-domain frequency extents. */
void
printGpuClusterPanel(const MeasuredGrid &grid, GridAnalyses &a,
                     const SweepResult &result)
{
    const double budget = result.point.budget;
    const double threshold = result.point.threshold;
    Table table({"sample", "cpu lo", "cpu hi", "mem lo", "mem hi",
                 "gpu lo", "gpu hi", "size", "opt"});
    char title[128];
    std::snprintf(title, sizeof(title),
                  "3-domain clusters: %s, I=%.1f, threshold=%.0f%%",
                  grid.workload().c_str(), budget, threshold * 100.0);
    table.setTitle(title);

    const SettingsSpace &space = grid.space();
    for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
        const PerformanceCluster cluster = result.table.materialize(s);
        Hertz cpu_lo = space.cpuLadder().highest();
        Hertz cpu_hi = space.cpuLadder().lowest();
        Hertz mem_lo = space.memLadder().highest();
        Hertz mem_hi = space.memLadder().lowest();
        Hertz gpu_lo = space.gpuLadder().highest();
        Hertz gpu_hi = space.gpuLadder().lowest();
        for (const std::size_t k : cluster.settings) {
            const FrequencySetting setting = space.at(k);
            cpu_lo = std::min(cpu_lo, setting.cpu);
            cpu_hi = std::max(cpu_hi, setting.cpu);
            mem_lo = std::min(mem_lo, setting.mem);
            mem_hi = std::max(mem_hi, setting.mem);
            gpu_lo = std::min(gpu_lo, setting.gpu);
            gpu_hi = std::max(gpu_hi, setting.gpu);
        }
        table.addRow({Table::num(static_cast<long long>(s)),
                      Table::num(toMegaHertz(cpu_lo), 0),
                      Table::num(toMegaHertz(cpu_hi), 0),
                      Table::num(toMegaHertz(mem_lo), 0),
                      Table::num(toMegaHertz(mem_hi), 0),
                      Table::num(toMegaHertz(gpu_lo), 0),
                      Table::num(toMegaHertz(gpu_hi), 0),
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

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fig13_gpu_clusters");
    args.addOption("jobs");
    args.addOption("out");
    args.addFlag("tiny");
    std::size_t jobs = 0;
    bool tiny = false;
    std::string out_path;
    try {
        args.parse(argc, argv);
        jobs = static_cast<std::size_t>(args.getInt("jobs", 0, 0, 1024));
        tiny = args.flag("tiny");
        out_path = args.get("out");
    } catch (const FatalError &err) {
        std::cerr << "error: " << err.what() << '\n';
        return 2;
    }

    using Fig13Clock = std::chrono::steady_clock;
    SystemConfig config;
    config.sampler.simInstructionsPerSample = tiny ? 20'000 : 100'000;
    exec::ThreadPool pool(jobs > 0 ? jobs
                                    : exec::ThreadPool::defaultWorkers());
    GridRunner runner(config);
    runner.setThreadPool(&pool);
    const auto grid_start = Fig13Clock::now();
    const MeasuredGrid grid = runner.run(
        tiny ? tinyRenderWorkload() : makeGlrender(),
        SettingsSpace::coarse3());
    const double grid_seconds =
        std::chrono::duration<double>(Fig13Clock::now() - grid_start)
            .count();

    GridAnalyses a(grid);
    AnalysisSweep sweep(a.clusters);
    const std::vector<SweepPoint> points =
        sweepGrid({1.0, 1.3}, {0.01, 0.05});
    const auto sweep_start = Fig13Clock::now();
    for (const SweepResult &result : sweep.run(points, &pool))
        printGpuClusterPanel(grid, a, result);
    const double sweep_seconds =
        std::chrono::duration<double>(Fig13Clock::now() - sweep_start)
            .count();

    if (!out_path.empty()) {
        const double cells = static_cast<double>(grid.sampleCount()) *
                             static_cast<double>(grid.settingCount());
        std::vector<bench::GridBenchRecord> records;
        bench::GridBenchRecord build;
        build.name = grid.workload() + " 3-domain grid";
        build.kernel = "grid";
        build.settings = grid.settingCount();
        build.samples = grid.sampleCount();
        build.jobs = pool.size();
        build.buildSeconds = grid_seconds;
        build.cellsPerSec = grid_seconds > 0 ? cells / grid_seconds : 0;
        records.push_back(build);
        bench::GridBenchRecord panels;
        panels.name = grid.workload() + " 4-point cluster sweep";
        panels.kernel = "sweep";
        panels.settings = grid.settingCount();
        panels.samples = grid.sampleCount();
        panels.jobs = pool.size();
        panels.buildSeconds = sweep_seconds;
        panels.cellsPerSec =
            sweep_seconds > 0
                ? cells * static_cast<double>(points.size()) /
                      sweep_seconds
                : 0;
        records.push_back(panels);
        bench::writeBenchGridJson(out_path, "fig13_gpu_clusters",
                                  records, "mcdvfs-bench-fig13-v1");
        obs::writeMetricsJson(bench::metricsSidecarPath(out_path));
        std::cout << "wrote " << out_path << " and "
                  << bench::metricsSidecarPath(out_path) << "\n";
    }
    return 0;
}
