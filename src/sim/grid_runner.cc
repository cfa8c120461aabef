#include "sim/grid_runner.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/profile_cache.hh"
#include "sim/strip_kernel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mcdvfs
{

namespace
{

/** Process-wide grid-build metrics (table kernel path). */
struct GridMetrics
{
    obs::Counter builds;
    obs::Counter samples;
    obs::Counter cells;
    obs::Counter fixedPointIters;
    obs::Counter uniqueRows;
    obs::Counter rowsDeduped;
    obs::Counter characterizeNs;
    obs::Counter warmupNs;
    obs::Counter tableReuse;
    obs::Histogram buildNs;

    GridMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        builds = reg.counter("sim.grid.builds");
        samples = reg.counter("sim.grid.samples_evaluated");
        cells = reg.counter("sim.grid.cells_evaluated");
        fixedPointIters =
            reg.counter("sim.grid.fixed_point_iterations");
        uniqueRows = reg.counter("sim.grid.unique_rows");
        rowsDeduped = reg.counter("sim.grid.rows_deduped");
        characterizeNs = reg.counter("sim.grid.characterize_ns");
        warmupNs = reg.counter("sim.grid.warmup_ns");
        tableReuse = reg.counter("sim.kernel.table_reuse");
        buildNs = reg.histogram(
            "sim.grid.build_ns",
            obs::MetricsRegistry::latencyBucketsNs());
    }
};

GridMetrics &
gridMetrics()
{
    static GridMetrics metrics;
    return metrics;
}

/**
 * Content hash of a settings space (domain count, then every ladder
 * with its length and step bit patterns): the table-cache key.
 */
std::uint64_t
spaceContentHash(const SettingsSpace &space)
{
    std::uint64_t h = fnv1aWordBytes(kFnvOffsetBasis,
                                     space.domainCount());
    auto addLadder = [&h](const FrequencyLadder &ladder) {
        h = fnv1aWordBytes(h, ladder.size());
        for (const Hertz f : ladder.steps())
            h = fnv1aWordBytes(h, std::bit_cast<std::uint64_t>(f));
    };
    addLadder(space.cpuLadder());
    addLadder(space.memLadder());
    if (space.hasGpu())
        addLadder(space.gpuLadder());
    return h;
}

/**
 * Hash of the evaluation-relevant SampleProfile fields (everything the
 * kernel reads; phaseName excluded — it never reaches a cell value).
 */
std::uint64_t
profileEvalHash(const SampleProfile &p)
{
    std::uint64_t h = kFnvOffsetBasis;
    for (const double v :
         {p.baseCpi, p.activity, p.mlp, p.gpuWorkPerInstr,
          p.gpuActivity, p.l1Mpki, p.l2Mpki, p.l2PerInstr,
          p.dramReadsPerInstr, p.dramWritesPerInstr,
          p.dramPrefetchPerInstr, p.rowHitFrac, p.rowClosedFrac,
          p.rowConflictFrac})
        h = fnv1aWordBytes(h, std::bit_cast<std::uint64_t>(v));
    return h;
}

/** Byte equality over the same evaluation-relevant field set. */
bool
profileEvalEqual(const SampleProfile &a, const SampleProfile &b)
{
    auto same = [](double x, double y) {
        return std::bit_cast<std::uint64_t>(x) ==
               std::bit_cast<std::uint64_t>(y);
    };
    return same(a.baseCpi, b.baseCpi) && same(a.activity, b.activity) &&
           same(a.mlp, b.mlp) &&
           same(a.gpuWorkPerInstr, b.gpuWorkPerInstr) &&
           same(a.gpuActivity, b.gpuActivity) &&
           same(a.l1Mpki, b.l1Mpki) && same(a.l2Mpki, b.l2Mpki) &&
           same(a.l2PerInstr, b.l2PerInstr) &&
           same(a.dramReadsPerInstr, b.dramReadsPerInstr) &&
           same(a.dramWritesPerInstr, b.dramWritesPerInstr) &&
           same(a.dramPrefetchPerInstr, b.dramPrefetchPerInstr) &&
           same(a.rowHitFrac, b.rowHitFrac) &&
           same(a.rowClosedFrac, b.rowClosedFrac) &&
           same(a.rowConflictFrac, b.rowConflictFrac);
}

} // namespace

GridRunner::GridRunner(const SystemConfig &config)
    : config_(config), timingModel_(config.timing),
      cpuPower_(config.cpuPower, VoltageCurve::paperCpu()),
      dramPower_(config.dramPower, config.timing.dramTiming,
                 config.timing.dramConfig),
      gpuPower_(config.gpuPower, GpuPowerModel::paperGpuCurve())
{
}

std::vector<SampleProfile>
GridRunner::characterize(const WorkloadProfile &workload) const
{
    // The simulator's cache state is freed on return, before a grid
    // kernel runs.
    SampleSimulator simulator(config_.sampler);
    simulator.setProfileCache(profileCache_);
    simulator.setThreadPool(pool_);
    obs::TraceSpan characterize_span("sim.characterize");
    const obs::Clock::time_point characterize_start = obs::metricsNow();
    std::vector<SampleProfile> profiles = simulator.characterize(workload);
    gridMetrics().characterizeNs.add(obs::elapsedNs(characterize_start));
    gridMetrics().warmupNs.add(simulator.lastCharacterizeStats().warmupNs);
    return profiles;
}

MeasuredGrid
GridRunner::run(const WorkloadProfile &workload, const SettingsSpace &space)
{
    return runWithProfiles(workload.name(), characterize(workload), space,
                           workload.modeledInstructionsPerSample());
}

GridRunner::Tables
GridRunner::buildTables(const SettingsSpace &space) const
{
    for (const Hertz f : space.cpuLadder().steps()) {
        if (f <= 0.0)
            fatal("timing model: frequencies must be positive");
    }
    Tables tables;
    tables.memTiming = timingModel_.memTable(space.memLadder());
    tables.dramEnergy = dramPower_.table(space.memLadder());
    tables.cpuPower = cpuPower_.table(space.cpuLadder());
    if (space.hasGpu()) {
        for (const Hertz f : space.gpuLadder().steps()) {
            if (f <= 0.0)
                fatal("gpu model: frequencies must be positive");
        }
        tables.gpuPower = gpuPower_.table(space.gpuLadder());
    }
    return tables;
}

std::shared_ptr<const GridRunner::Tables>
GridRunner::tablesFor(const SettingsSpace &space) const
{
    const std::uint64_t key = spaceContentHash(space);
    {
        std::lock_guard<std::mutex> lock(tablesMutex_);
        const auto it = tablesCache_.find(key);
        if (it != tablesCache_.end()) {
            gridMetrics().tableReuse.add(1);
            return it->second;
        }
    }
    // Build outside the lock — table construction walks the power and
    // timing models — then publish; a concurrent same-space build just
    // produces an identical value and the first insert wins.
    auto tables = std::make_shared<const Tables>(buildTables(space));
    std::lock_guard<std::mutex> lock(tablesMutex_);
    // Runners see a handful of spaces over their life; bound the cache
    // anyway so a space-sweeping caller can't grow it without limit.
    if (tablesCache_.size() >= 16)
        tablesCache_.clear();
    const auto [it, inserted] = tablesCache_.emplace(key, tables);
    return it->second;
}

MeasuredGrid
GridRunner::runWithProfiles(const std::string &workload_name,
                            const std::vector<SampleProfile> &profiles,
                            const SettingsSpace &space,
                            Count instructions_per_sample)
{
    const obs::Clock::time_point build_start = obs::metricsNow();
    obs::TraceSpan build_span("sim.grid.build", profiles.size());
    MeasuredGrid grid(workload_name, space, profiles.size(),
                      instructions_per_sample);
    obs::TraceSpan tables_span("sim.grid.tables");
    const std::shared_ptr<const Tables> tables = tablesFor(space);
    tables_span.end();
    const std::uint64_t workload_hash =
        fnv1aString(kFnvOffsetBasis, workload_name);

    // Dedup byte-identical profiles into unique rows: the pre-noise
    // cells of a row are a pure function of the profile bytes (plus
    // space/tables), so each distinct profile runs the strip kernel
    // once and is scattered to every sample carrying it.  Noise stays
    // per-sample, applied at scatter time with the cell-at-a-time
    // path's exact seeds, so dedup never changes a single bit.
    std::vector<std::vector<std::size_t>> groups;
    {
        std::unordered_map<std::uint64_t, std::vector<std::size_t>>
            by_hash;
        for (std::size_t s = 0; s < profiles.size(); ++s) {
            const std::uint64_t h = profileEvalHash(profiles[s]);
            std::vector<std::size_t> &candidates = by_hash[h];
            std::size_t id = groups.size();
            for (const std::size_t u : candidates) {
                if (profileEvalEqual(profiles[groups[u].front()],
                                     profiles[s])) {
                    id = u;
                    break;
                }
            }
            if (id == groups.size()) {
                candidates.push_back(id);
                groups.emplace_back();
            }
            groups[id].push_back(s);
        }
    }
    const bool dedup = groups.size() < profiles.size();

    obs::TraceSpan eval_span("sim.grid.eval", profiles.size());
    if (!dedup) {
        if (pool_ != nullptr && pool_->size() > 0 &&
            profiles.size() > 1) {
            // Samples are independent and write disjoint cell rows, so
            // the fan-out needs no synchronization beyond the loop
            // barrier.
            pool_->parallelFor(0, profiles.size(), [&](std::size_t s) {
                evaluateSample(grid, profiles[s], s, space,
                               instructions_per_sample, *tables,
                               workload_hash);
            });
        } else {
            for (std::size_t s = 0; s < profiles.size(); ++s)
                evaluateSample(grid, profiles[s], s, space,
                               instructions_per_sample, *tables,
                               workload_hash);
        }
    } else {
        const std::size_t settings = space.size();
        const bool has_gpu = space.hasGpu();
        auto evaluateGroup = [&](std::size_t u) {
            const std::vector<std::size_t> &members = groups[u];
            // Evaluate the kernel once, into the first member's row.
            const std::size_t lead = members.front();
            const MeasuredGrid::RowView lead_row = grid.fillRow(lead);
            evaluateRow(lead_row, profiles[lead], space,
                        instructions_per_sample, *tables);
            // Scatter the pre-noise cells to the other members' rows.
            for (std::size_t i = 1; i < members.size(); ++i) {
                const MeasuredGrid::RowView dst =
                    grid.fillRow(members[i]);
                std::copy_n(lead_row.seconds, settings, dst.seconds);
                std::copy_n(lead_row.busyFrac, settings, dst.busyFrac);
                std::copy_n(lead_row.bwUtil, settings, dst.bwUtil);
                std::copy_n(lead_row.cpuEnergy, settings,
                            dst.cpuEnergy);
                std::copy_n(lead_row.memEnergy, settings,
                            dst.memEnergy);
                if (has_gpu)
                    std::copy_n(lead_row.gpuEnergy, settings,
                                dst.gpuEnergy);
            }
            // Per-sample noise and aggregates (lead included).
            for (const std::size_t s : members) {
                const MeasuredGrid::RowView dst = grid.fillRow(s);
                applyNoise(dst, s, workload_hash, settings, has_gpu);
                grid.updateSampleAggregates(s);
            }
        };
        if (pool_ != nullptr && pool_->size() > 0 &&
            groups.size() > 1) {
            // Groups own disjoint sample-row sets; same independence
            // argument as the per-sample fan-out.
            pool_->parallelFor(0, groups.size(), evaluateGroup);
        } else {
            for (std::size_t u = 0; u < groups.size(); ++u)
                evaluateGroup(u);
        }
    }
    eval_span.end();
    grid.sealAggregates();
    grid.setProfiles(profiles);

    GridMetrics &metrics = gridMetrics();
    metrics.buildNs.record(obs::elapsedNs(build_start));
    metrics.builds.add(1);
    metrics.samples.add(profiles.size());
    metrics.cells.add(profiles.size() * space.size());
    metrics.uniqueRows.add(groups.size());
    metrics.rowsDeduped.add(profiles.size() - groups.size());
    return grid;
}

void
GridRunner::evaluateRow(const MeasuredGrid::RowView &row,
                        const SampleProfile &profile,
                        const SettingsSpace &space,
                        Count instructions_per_sample,
                        const Tables &tables) const
{
    const double n = static_cast<double>(instructions_per_sample);

    // Scale the per-instruction rates back up to the modeled
    // sample length for the DRAM energy accounting.
    DramStats dram_stats;
    const double reads =
        n * (profile.dramReadsPerInstr + profile.dramPrefetchPerInstr);
    const double writes = n * profile.dramWritesPerInstr;
    const double total_txn = reads + writes;
    dram_stats.reads = static_cast<Count>(std::llround(reads));
    dram_stats.writes = static_cast<Count>(std::llround(writes));
    dram_stats.rowHits =
        static_cast<Count>(std::llround(total_txn * profile.rowHitFrac));
    dram_stats.rowClosed = static_cast<Count>(
        std::llround(total_txn * profile.rowClosedFrac));
    dram_stats.rowConflicts = static_cast<Count>(
        std::llround(total_txn * profile.rowConflictFrac));

    // Per-sample invariants of the DRAM energy accounting, resolved to
    // doubles once instead of per cell.
    const double reads_d = static_cast<double>(dram_stats.reads);
    const double writes_d = static_cast<double>(dram_stats.writes);
    const double activates_d =
        static_cast<double>(dram_stats.rowClosed + dram_stats.rowConflicts);

    // Per-sample invariants of the timing model.
    const TimingParams &tp = timingModel_.params();
    const double core_cpi = timingModel_.coreCpi(profile);
    const double dram_per_instr = profile.dramPerInstr();
    const double demand_fills = n * profile.dramReadsPerInstr;
    const double traffic_bytes =
        n * profile.trafficPerInstr() *
        static_cast<double>(tp.dramConfig.lineBytes);
    const double mlp = profile.mlp;
    const bool has_dram_time =
        dram_per_instr > 0.0 && instructions_per_sample != 0;

    // Per-sample CPU power scalars (activity resolved once).
    const CpuPowerParams &cp = cpuPower_.params();
    const double act_busy = std::clamp(profile.activity, 0.0, 1.0);
    const double act_stall =
        std::clamp(profile.activity * cp.stallActivity, 0.0, 1.0);

    // DRAM background power-down mixing constants.
    const DramPowerParams &dp = dramPower_.params();
    const bool power_down = dp.enablePowerDown;
    const double residency =
        std::clamp(dp.powerDownResidency, 0.0, 1.0);

    const std::size_t mem_steps = space.memLadder().size();
    const std::vector<Hertz> &cpu_steps = space.cpuLadder().steps();

    // GPU-domain invariants (three-domain spaces only).  The GPU busy
    // window scales only with its own frequency, so the product is a
    // per-sample constant.
    const bool has_gpu = space.hasGpu();
    const double gpu_work = n * profile.gpuWorkPerInstr;
    const double gpu_act =
        std::clamp(profile.gpuActivity, 0.0, 1.0);
    static const std::vector<Hertz> kNoGpuSteps;
    const std::vector<Hertz> &gpu_steps =
        has_gpu ? space.gpuLadder().steps() : kNoGpuSteps;

    // Per-(sample, memory-frequency) strips: the row-outcome-weighted
    // uncontended latency and the usable bandwidth.
    std::vector<double> base_lat(mem_steps);
    std::vector<double> usable_bw(mem_steps);
    for (std::size_t m = 0; m < mem_steps; ++m) {
        const MemTimingPoint &mt = tables.memTiming[m];
        base_lat[m] = profile.rowHitFrac * mt.latencyHit +
                      profile.rowClosedFrac * mt.latencyClosed +
                      profile.rowConflictFrac * mt.latencyConflict;
        usable_bw[m] = mt.usableBandwidth;
    }

    std::vector<double> total(mem_steps);
    std::vector<double> stall(mem_steps);
    std::vector<double> util(mem_steps);

    for (std::size_t c = 0; c < cpu_steps.size(); ++c) {
        const Seconds core_time = n * core_cpi / cpu_steps[c];

        if (!has_dram_time) {
            for (std::size_t m = 0; m < mem_steps; ++m) {
                total[m] = core_time;
                stall[m] = 0.0;
                util[m] = 0.0;
            }
        } else {
            // Damped fixed point: utilization depends on total time,
            // total time depends on queueing inflation, which depends
            // on utilization.  The iteration itself lives in
            // sim/strip_kernel.hh (scalar + explicit AVX2/NEON paths).
            for (std::size_t m = 0; m < mem_steps; ++m)
                total[m] = core_time + demand_fills * base_lat[m] / mlp;

            if (!tp.modelBandwidth) {
                // Ablation: pure latency model, no saturation.
                for (std::size_t m = 0; m < mem_steps; ++m) {
                    stall[m] = total[m] - core_time;
                    util[m] = std::min(
                        1.0, traffic_bytes / (total[m] * usable_bw[m]));
                }
            } else {
                strip::StripParams params;
                params.coreTime = core_time;
                params.demandFills = demand_fills;
                params.mlp = mlp;
                params.trafficBytes = traffic_bytes;
                params.cap = tp.bwUtilizationCap;
                params.iterations = tp.fixedPointIterations;
                strip::fixedPointStrip(total.data(), stall.data(),
                                       util.data(), base_lat.data(),
                                       usable_bw.data(), mem_steps,
                                       params);
            }
        }

        const CpuOperatingPoint &op = tables.cpuPower[c];
        const double busy_dyn = op.dynamicScale * act_busy;
        const double stall_dyn = op.dynamicScale * act_stall;
        const double static_power = op.background + op.leakage;
        const std::size_t base = c * mem_steps;

        if (!has_gpu) {
            for (std::size_t m = 0; m < mem_steps; ++m) {
                const double t = total[m];
                row.seconds[base + m] = t;
                row.busyFrac[base + m] = t > 0.0 ? core_time / t : 1.0;
                row.bwUtil[base + m] = util[m];
                row.cpuEnergy[base + m] =
                    busy_dyn * core_time + stall_dyn * stall[m] +
                    static_power * (core_time + stall[m]);

                const DramFreqCoefficients &de = tables.dramEnergy[m];
                double background_power = de.activeBackground;
                if (power_down) {
                    const double u = std::clamp(util[m], 0.0, 1.0);
                    const double down_frac = (1.0 - u) * residency;
                    background_power =
                        de.activeBackground * (1.0 - down_frac) +
                        de.powerDownBackground * down_frac;
                }
                row.memEnergy[base + m] =
                    background_power * t +
                    de.activateEnergy * activates_d +
                    (de.readEnergy * reads_d +
                     de.writeEnergy * writes_d);
            }
        } else {
            // Three-domain strip: the CPU/memory fixed point above is
            // GPU-frequency-independent, so each (c, m) strip element
            // expands into a contiguous run of GPU steps (the GPU index
            // varies fastest in the flat setting order).  Kicks are
            // asynchronous: the sample ends when the slower of the CPU
            // side and the GPU finishes, the core draws only static
            // power while it waits, and the DRAM background window
            // stretches with the sample.
            for (std::size_t m = 0; m < mem_steps; ++m) {
                const double t = total[m];
                const double cpu_base =
                    busy_dyn * core_time + stall_dyn * stall[m] +
                    static_power * (core_time + stall[m]);

                const DramFreqCoefficients &de = tables.dramEnergy[m];
                double background_power = de.activeBackground;
                if (power_down) {
                    const double u = std::clamp(util[m], 0.0, 1.0);
                    const double down_frac = (1.0 - u) * residency;
                    background_power =
                        de.activeBackground * (1.0 - down_frac) +
                        de.powerDownBackground * down_frac;
                }

                const std::size_t gbase =
                    (base + m) * gpu_steps.size();
                for (std::size_t g = 0; g < gpu_steps.size(); ++g) {
                    const double gpu_time = gpu_work / gpu_steps[g];
                    const double t_final = std::max(t, gpu_time);
                    row.seconds[gbase + g] = t_final;
                    row.busyFrac[gbase + g] =
                        t_final > 0.0 ? core_time / t_final : 1.0;
                    row.bwUtil[gbase + g] = util[m];
                    row.cpuEnergy[gbase + g] =
                        cpu_base + static_power * (t_final - t);
                    row.memEnergy[gbase + g] =
                        background_power * t_final +
                        de.activateEnergy * activates_d +
                        (de.readEnergy * reads_d +
                         de.writeEnergy * writes_d);
                    const GpuOperatingPoint &gop = tables.gpuPower[g];
                    row.gpuEnergy[gbase + g] =
                        (gop.dynamicScale * gpu_act) * gpu_time +
                        (gop.background + gop.leakage) * t_final;
                }
            }
        }
    }

    // Fixed-point work accounting: the bandwidth branch runs the
    // damped iteration fixedPointIterations times over every
    // (cpu step, mem step) strip element.  Tallied per sample — one
    // atomic add, nothing in the vectorized loops.
    if (has_dram_time && tp.modelBandwidth) {
        gridMetrics().fixedPointIters.add(
            cpu_steps.size() * mem_steps *
            static_cast<std::size_t>(
                std::max(0, tp.fixedPointIterations)));
    }
}

void
GridRunner::applyNoise(const MeasuredGrid::RowView &row,
                       std::size_t sample, std::uint64_t workload_hash,
                       std::size_t settings, bool has_gpu) const
{
    if (config_.measurementNoise <= 0.0)
        return;
    // Deterministic "simulation noise" on the measured quantities
    // (see SystemConfig::measurementNoise).  Wobble factors come
    // from one short-lived Rng per cell, seeded exactly as the
    // cell-at-a-time path seeded them, then applied in three flat
    // multiply passes over the row.
    const double amp = config_.measurementNoise;
    const std::uint64_t sample_hash =
        fnv1aMixWord(workload_hash, sample);
    std::vector<double> wobble_sec(settings);
    std::vector<double> wobble_cpu(settings);
    std::vector<double> wobble_mem(settings);
    // The GPU column wobbles only on three-domain grids: each cell
    // gets a fresh Rng, so drawing a fourth factor never perturbs
    // the first three — two-domain noise is bit-for-bit unchanged.
    std::vector<double> wobble_gpu(has_gpu ? settings : 0);
    for (std::size_t k = 0; k < settings; ++k) {
        Rng noise(fnv1aMixWord(sample_hash, k));
        wobble_sec[k] = 1.0 + amp * (2.0 * noise.uniform() - 1.0);
        wobble_cpu[k] = 1.0 + amp * (2.0 * noise.uniform() - 1.0);
        wobble_mem[k] = 1.0 + amp * (2.0 * noise.uniform() - 1.0);
        if (has_gpu)
            wobble_gpu[k] =
                1.0 + amp * (2.0 * noise.uniform() - 1.0);
    }
    for (std::size_t k = 0; k < settings; ++k)
        row.seconds[k] *= wobble_sec[k];
    for (std::size_t k = 0; k < settings; ++k)
        row.cpuEnergy[k] *= wobble_cpu[k];
    for (std::size_t k = 0; k < settings; ++k)
        row.memEnergy[k] *= wobble_mem[k];
    if (has_gpu) {
        for (std::size_t k = 0; k < settings; ++k)
            row.gpuEnergy[k] *= wobble_gpu[k];
    }
}

void
GridRunner::evaluateSample(MeasuredGrid &grid, const SampleProfile &profile,
                           std::size_t sample, const SettingsSpace &space,
                           Count instructions_per_sample,
                           const Tables &tables,
                           std::uint64_t workload_hash) const
{
    const MeasuredGrid::RowView row = grid.fillRow(sample);
    evaluateRow(row, profile, space, instructions_per_sample, tables);
    applyNoise(row, sample, workload_hash, space.size(),
               space.hasGpu());
    grid.updateSampleAggregates(sample);
}

} // namespace mcdvfs
