/**
 * @file
 * End-to-end grid construction: characterize a workload once, then
 * evaluate timing and energy at every setting of a settings space.
 *
 * This mirrors the paper's methodology of one gem5 simulation per
 * setting, collapsed into one characterization pass plus a model
 * evaluation per setting (valid because the in-order core makes the
 * cache/DRAM event profile frequency-independent; DESIGN.md §5.1).
 *
 * Evaluation is a table-driven kernel (docs/PERF.md): per-setting
 * tables — DRAM latencies/bandwidth per memory frequency, power
 * coefficients per CPU operating point and per memory frequency — are
 * precomputed once per grid build, per-sample invariants are hoisted
 * out of the per-setting loop, and the inner loop runs over one
 * memory-ladder-sized strip at a time so the damped fixed point
 * vectorizes across settings.  The kernel is bit-identical to
 * cell-at-a-time evaluation (sim/reference_kernel.hh, asserted by
 * tests/sim_grid_runner_test.cc).
 */

#ifndef MCDVFS_SIM_GRID_RUNNER_HH
#define MCDVFS_SIM_GRID_RUNNER_HH

#include <memory>
#include <mutex>
#include <unordered_map>

#include "exec/thread_pool.hh"
#include "power/cpu_power.hh"
#include "power/dram_power.hh"
#include "power/gpu_power.hh"
#include "sim/measured_grid.hh"
#include "sim/sample_simulator.hh"
#include "sim/timing_model.hh"
#include "trace/workloads.hh"

namespace mcdvfs
{

/** Full system configuration for a characterization run. */
struct SystemConfig
{
    SampleSimulatorConfig sampler{};
    TimingParams timing{};
    CpuPowerParams cpuPower{};
    DramPowerParams dramPower{};
    /** GPU domain calibration; consulted only on three-domain spaces. */
    GpuPowerParams gpuPower{};

    /**
     * Relative measurement noise applied to every grid cell
     * (deterministic per cell).  Real measured grids are never
     * noise-free — this is why the paper filters speedup ties with a
     * 0.5% window — and boundary-hugging samples flipping between
     * adjacent settings is what its cluster machinery absorbs.  The
     * default amplitude keeps the worst-case pairwise perturbation
     * (2x the amplitude) inside the 0.5% tie window.
     */
    double measurementNoise = 0.002;

    /** The paper's configuration end to end. */
    static SystemConfig paperDefault() { return SystemConfig{}; }
};

class ProfileCache;

/** Builds MeasuredGrids for workloads. */
class GridRunner
{
  public:
    /** @throws FatalError on inconsistent configuration. */
    explicit GridRunner(const SystemConfig &config = {});

    /**
     * Characterize @c workload and measure it at every setting of
     * @c space.
     */
    MeasuredGrid run(const WorkloadProfile &workload,
                     const SettingsSpace &space);

    /**
     * Characterize @c workload: a fresh SampleSimulator with this
     * runner's profile cache and pool (the fill helper, see
     * SampleSimulator::setThreadPool), timed into
     * sim.grid.characterize_ns and sim.grid.warmup_ns.
     */
    std::vector<SampleProfile> characterize(
        const WorkloadProfile &workload) const;

    /**
     * Build a grid from pre-computed profiles (used when comparing
     * settings spaces over the same characterization, Fig. 12).
     */
    MeasuredGrid runWithProfiles(const std::string &workload_name,
                                 const std::vector<SampleProfile> &profiles,
                                 const SettingsSpace &space,
                                 Count instructions_per_sample);

    /**
     * Fan the per-setting model evaluation out over @c pool (non-owning;
     * nullptr restores the serial loop), and lend characterize() a
     * fill helper from it.  Profiles are bit-identical either way, and
     * every cell — including its deterministic measurement noise — is
     * a pure function of (workload, sample, setting), so the parallel
     * grid is bit-identical to the serial one regardless of worker
     * count or scheduling.
     */
    void setThreadPool(exec::ThreadPool *pool) { pool_ = pool; }

    /**
     * Attach a characterization memoization cache (non-owning; nullptr
     * detaches).  Passed through to the SampleSimulator run() creates,
     * switching it to canonical per-sample characterization — see
     * SampleSimulator::setProfileCache for the semantics.
     */
    void setProfileCache(ProfileCache *cache) { profileCache_ = cache; }

    const SystemConfig &config() const { return config_; }

  private:
    /**
     * Per-setting tables.  A pure function of (settings space, system
     * config); the config is fixed per runner, so built tables are
     * cached by space content and reused across builds
     * (sim.kernel.table_reuse).
     */
    struct Tables
    {
        /** Per-memory-frequency DRAM timing terms. */
        std::vector<MemTimingPoint> memTiming;
        /** Per-memory-frequency DRAM energy coefficients. */
        std::vector<DramFreqCoefficients> dramEnergy;
        /** Per-CPU-frequency power coefficients. */
        std::vector<CpuOperatingPoint> cpuPower;
        /** Per-GPU-frequency power coefficients (3-domain spaces). */
        std::vector<GpuOperatingPoint> gpuPower;
    };

    Tables buildTables(const SettingsSpace &space) const;

    /** Cached-table lookup (thread-safe; builds on first use). */
    std::shared_ptr<const Tables> tablesFor(
        const SettingsSpace &space) const;

    /**
     * Evaluate one profile's cells into @c row, pre-noise.  A pure
     * function of (profile bytes, space, instruction count, tables) —
     * the anchor of unique-row dedup.
     */
    void evaluateRow(const MeasuredGrid::RowView &row,
                     const SampleProfile &profile,
                     const SettingsSpace &space,
                     Count instructions_per_sample,
                     const Tables &tables) const;

    /**
     * Apply the deterministic per-cell measurement noise for
     * @c sample; seeds are exactly the cell-at-a-time path's, so a
     * scattered row is bit-identical to one evaluated in place.
     */
    void applyNoise(const MeasuredGrid::RowView &row, std::size_t sample,
                    std::uint64_t workload_hash, std::size_t settings,
                    bool has_gpu) const;

    /** Fill one sample's row of cells (safe to run concurrently). */
    void evaluateSample(MeasuredGrid &grid, const SampleProfile &profile,
                        std::size_t sample, const SettingsSpace &space,
                        Count instructions_per_sample,
                        const Tables &tables,
                        std::uint64_t workload_hash) const;

    SystemConfig config_;
    TimingModel timingModel_;
    CpuPowerModel cpuPower_;
    DramPowerModel dramPower_;
    GpuPowerModel gpuPower_;
    exec::ThreadPool *pool_ = nullptr;
    ProfileCache *profileCache_ = nullptr;

    /** @name Table cache, keyed by space content hash. */
    ///@{
    mutable std::mutex tablesMutex_;
    mutable std::unordered_map<std::uint64_t,
                               std::shared_ptr<const Tables>>
        tablesCache_;
    ///@}
};

} // namespace mcdvfs

#endif // MCDVFS_SIM_GRID_RUNNER_HH
