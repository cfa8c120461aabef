#include <stdexcept>

#include "workloads.hh"

namespace perfbench
{

const std::vector<std::string> &
suiteBinaries()
{
    static const std::vector<std::string> binaries{
        "fig02_inefficiency_speedup", "fig03_optimal_settings",
        "fig04_clusters_gobmk",       "fig05_clusters_milc",
        "fig06_stable_regions_lbm",   "fig07_stable_regions_gcc_lbm",
        "fig08_transitions",          "fig09_region_lengths",
        "fig10_exec_time",            "fig11_tradeoffs",
        "fig12_step_sensitivity",     "fig13_gpu_clusters",
        "impl_baseline_comparison",   "impl_budget_arbiter",
        "impl_emin_prediction",       "impl_energy_breakdown",
        "impl_retune_schedules",      "impl_scheduler",
    };
    return binaries;
}

std::vector<Metric>
endToEndTemplate()
{
    return {
        {"setup_s", 0.0, "s"},
        {"wall_s", 0.0, "s"},
        {"cpu_s", 0.0, "s"},
        {"peak_rss_mb", 0.0, "MB"},
        {"request_p50_ms", 0.0, "ms"},
        {"request_tail_ms", 0.0, "ms"},
    };
}

std::vector<Metric>
perLayerTemplate()
{
    std::vector<Metric> metrics{
        {"trace.generate_ns_per_instr", 0.0, "ns"},
        {"mem.replay_ns_per_instr", 0.0, "ns"},
        {"sim.characterize_ms", 0.0, "ms"},
        {"sim.warmup_ms", 0.0, "ms"},
        {"sim.unique_row_share", 0.0, "share"},
        {"sim.minstr_per_s", 0.0, "Minstr/s"},
        {"sim.grid_ms", 0.0, "ms"},
        {"sim.grid_ns_per_cell", 0.0, "ns"},
        {"core.optimal_ms", 0.0, "ms"},
        {"core.cluster_ms", 0.0, "ms"},
        {"core.region_ms", 0.0, "ms"},
        {"svc.keyfor_us", 0.0, "us"},
        {"svc.overhead_ms", 0.0, "ms"},
        {"svc.grid_hit_share", 0.0, "share"},
        {"svc.analysis_hit_share", 0.0, "share"},
        {"svc.resume_share", 0.0, "share"},
        {"exec.busy_share", 0.0, "share"},
    };
    for (const std::string &binary : suiteBinaries())
        metrics.push_back({"repro." + binary + "_s", 0.0, "s"});
    metrics.push_back({"ledger.coverage_share", 0.0, "share"});
    metrics.push_back({"ledger.trace_overhead_share", 0.0, "share"});
    metrics.push_back({"failed_share", 0.0, "share"});
    return metrics;
}

void
setMetric(std::vector<Metric> &metrics, const std::string &name,
          double value)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    throw std::logic_error("unknown metric " + name);
}

} // namespace perfbench
