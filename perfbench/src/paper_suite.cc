/**
 * @file
 * paper_suite: every fig* and impl_* binary, one after another, each
 * in its own scratch working directory, with --jobs where the binary
 * accepts it.  This is the ROADMAP's figure-suite wall time, and the one
 * workload where the same workloads are characterized again across
 * binaries and across spaces (fig12), so characterize-once reuse shows
 * up here and cannot show up on cold_tune.
 *
 * The inputs are the paper's fixed inputs: --seed changes nothing, and
 * every binary's stdout is compared against its committed digest at
 * every seed.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "workloads.hh"

namespace perfbench
{

namespace
{

/** Binaries that take --jobs N (bit-identical output at any N). */
const std::set<std::string> kTakesJobs{
    "fig04_clusters_gobmk", "fig05_clusters_milc",  "fig09_region_lengths",
    "fig12_step_sensitivity", "fig13_gpu_clusters", "impl_retune_schedules"};

/** Outcome of one child process. */
struct Child
{
    int status = -1;
    std::string out;
    double cpuS = 0.0;
    double peakRssMb = 0.0;
};

/**
 * Run @c path with @c args in @c dir: stdout captured, stderr to a
 * file in @c dir.  Waits for the child before returning.
 */
Child
runChild(const std::string &path, const std::vector<std::string> &args,
         const std::string &dir)
{
    Child child;
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        // Only async-signal-safe calls until exec.
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        if (chdir(dir.c_str()) != 0)
            _exit(126);
        const int err = open("stderr.txt", O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (err >= 0) {
            dup2(err, STDERR_FILENO);
            close(err);
        }
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(path.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv(path.c_str(), argv.data());
        _exit(127);
    }
    close(fds[1]);
    char buf[65536];
    while (true) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            child.out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    rusage ru{};
    while (wait4(pid, &child.status, 0, &ru) < 0 && errno == EINTR) {
    }
    child.cpuS = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                            ru.ru_stime.tv_usec);
    child.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return child;
}

} // namespace

std::vector<Metric>
paperSuite(const Options &options, DigestTable &table, Checks &checks)
{
    std::vector<std::string> binaries = suiteBinaries();
    if (options.tiny)
        binaries = {"fig03_optimal_settings", "fig12_step_sensitivity"};
    // Parent (waiting) + the child's main thread + its pool workers.
    const std::size_t jobs = cpuCount() > 2 ? cpuCount() - 2 : 1;
    const std::string suite_dir = options.workDir + "/suite";

    // Set-up: locate every binary and make fresh working directories.
    std::vector<double> setup_s;
    for (int k = 0; k < (options.trace ? 1 : kSetupRepeats); ++k) {
        const Clock::time_point start =
            k == 0 ? processStart() : Clock::now();
        std::filesystem::remove_all(suite_dir);
        for (const std::string &b : binaries) {
            struct stat st{};
            const std::string path = std::string(PERFBENCH_SUITE_DIR) + "/" + b;
            if (stat(path.c_str(), &st) != 0 || !(st.st_mode & S_IXUSR))
                throw std::runtime_error("suite binary missing: " + path);
            std::filesystem::create_directories(suite_dir + "/" + b);
        }
        setup_s.push_back(secondsBetween(start, Clock::now()));
    }

    Ledger ledger;
    std::vector<double> binary_s;
    double child_cpu = 0.0;
    double peak_rss = 0.0;
    const double self_cpu0 = selfUsage().cpuSeconds;
    const Clock::time_point start = Clock::now();
    std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
    for (const std::string &b : binaries) {
        checks.attempt();
        std::vector<std::string> args;
        if (kTakesJobs.count(b))
            args = {"--jobs", std::to_string(jobs)};
        const Clock::time_point sent = Clock::now();
        const Child child = runChild(std::string(PERFBENCH_SUITE_DIR) + "/" + b,
                                     args, suite_dir + "/" + b);
        const Clock::time_point done = Clock::now();
        spans.emplace_back(sent, done);
        binary_s.push_back(secondsBetween(sent, done));
        child_cpu += child.cpuS;
        peak_rss = std::max(peak_rss, child.peakRssMb);
        if (!WIFEXITED(child.status) || WEXITSTATUS(child.status) != 0)
            checks.fail("paper_suite " + b + ": exit status " +
                        std::to_string(child.status));
        table.check("paper_suite", b, digestBytes(child.out), checks);
    }
    const Clock::time_point end = Clock::now();
    const double wall_s = secondsBetween(start, end);
    const double cpu_s = child_cpu + (selfUsage().cpuSeconds - self_cpu0);
    std::filesystem::remove_all(suite_dir);

    if (options.trace) {
        const int root = ledger.add("suite", start, end, -1, 1);
        for (std::size_t i = 0; i < spans.size(); ++i)
            ledger.add("repro." + binaries[i], spans[i].first, spans[i].second,
                       root, 1);
        ledger.write(options.spansOut);
        std::vector<Metric> m = perLayerTemplate();
        for (std::size_t i = 0; i < binaries.size(); ++i)
            setMetric(m, "repro." + binaries[i] + "_s", binary_s[i]);
        double covered = 0.0;
        for (const auto &[name, value] : ledger.selfNs()) {
            if (name != "suite")
                covered += value;
        }
        setMetric(m, "exec.busy_share",
                  cpu_s / (wall_s * static_cast<double>(jobs + 1)));
        setMetric(m, "ledger.coverage_share", covered / ledger.rootNs());
        // The traced pass is the untraced pass (the same timestamps)
        // plus span recording after it: that recording is the overhead.
        setMetric(m, "ledger.trace_overhead_share",
                  ledger.recorderNs() / ledger.rootNs());
        return m;
    }

    std::vector<double> run_ms;
    for (const double s : binary_s)
        run_ms.push_back(s * 1e3);
    const Tail tail = tailOf(run_ms);
    std::printf("# request_tail_ms is p%.2f of %zu binaries; "
                "%zu table digests compared\n",
                tail.percentile, tail.samples, table.compared());
    std::vector<Metric> m = endToEndTemplate();
    setMetric(m, "setup_s", median(setup_s));
    setMetric(m, "wall_s", wall_s);
    setMetric(m, "cpu_s", cpu_s);
    setMetric(m, "peak_rss_mb", peak_rss);
    setMetric(m, "request_p50_ms", tail.p50);
    setMetric(m, "request_tail_ms", tail.tail);
    return m;
}

} // namespace perfbench
