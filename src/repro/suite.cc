#include "repro/suite.hh"

#include <algorithm>

#include "trace/workloads.hh"

namespace mcdvfs
{

svc::CharacterizationService::Options
ReproSuite::serviceOptions(std::size_t jobs)
{
    svc::CharacterizationService::Options options;
    options.jobs = jobs > 0 ? jobs : exec::ThreadPool::defaultWorkers();
    // Comfortable room for the full extended workload set over both
    // the coarse and fine spaces.
    options.cacheCapacity = 32;
    return options;
}

ReproSuite::ReproSuite(const SystemConfig &config, std::size_t jobs)
    : coarse_(SettingsSpace::coarse()),
      service_(config, serviceOptions(jobs))
{
}

const std::vector<std::string> &
ReproSuite::benchmarkNames()
{
    static const std::vector<std::string> names = {
        "bzip2", "gcc", "gobmk", "lbm", "libq.", "milc",
    };
    return names;
}

const MeasuredGrid &
ReproSuite::grid(const std::string &workload)
{
    auto it = pinned_.find(workload);
    if (it == pinned_.end()) {
        const WorkloadProfile profile = workloadByName(workload);
        it = pinned_.emplace(workload, service_.grid(profile, coarse_))
                 .first;
    }
    return *it->second;
}

void
ReproSuite::characterize(const std::vector<std::string> &workloads)
{
    struct Pending
    {
        std::string name;
        WorkloadProfile profile;
        std::shared_ptr<const MeasuredGrid> grid;
    };

    // Resolve every name first, so an unknown one throws before any
    // build starts.
    std::vector<Pending> pending;
    for (const std::string &name : workloads) {
        const bool seen = std::any_of(
            pending.begin(), pending.end(),
            [&](const Pending &p) { return p.name == name; });
        if (!seen && pinned_.count(name) == 0)
            pending.push_back({name, workloadByName(name), nullptr});
    }

    // Largest first, so the longest build never starts last.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Pending &a, const Pending &b) {
                         return a.profile.sampleCount() >
                                b.profile.sampleCount();
                     });
    service_.pool().parallelFor(0, pending.size(), [&](std::size_t i) {
        pending[i].grid = service_.grid(pending[i].profile, coarse_);
    });
    for (Pending &p : pending)
        pinned_.emplace(std::move(p.name), std::move(p.grid));
}

} // namespace mcdvfs
