/**
 * @file
 * The benchmark workloads.  Each runs its set-up and timed phase,
 * checks the program's outputs into @c checks, and returns its metrics:
 * the end-to-end set for an untraced run, the per-layer set for a
 * traced one (README.md lists both and what each means per workload).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <vector>

#include "common.hh"

namespace perfbench
{

std::vector<Metric> coldTune(const Options &options, DigestTable &table,
                             Checks &checks);
std::vector<Metric> paperSuite(const Options &options, DigestTable &table,
                               Checks &checks);

/** Set-up repetitions per untraced run (setup_s is their median). */
constexpr int kSetupRepeats = 3;

/** The fig* and impl_* binaries paper_suite runs, in order. */
const std::vector<std::string> &suiteBinaries();

/** End-to-end metrics every untraced run prints, in order. */
std::vector<Metric> endToEndTemplate();

/**
 * Per-layer metrics every traced run prints, in BENCHMARK.json order;
 * a workload fills the ones its traced run measures and leaves the
 * rest at 0 (layer not exercised).
 */
std::vector<Metric> perLayerTemplate();

/** Set @c name in @c metrics (which must already hold it). */
void setMetric(std::vector<Metric> &metrics, const std::string &name,
               double value);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
