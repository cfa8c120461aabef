/**
 * @file
 * perfbench: the repository benchmark (README.md in this directory).
 *
 *   perfbench --workload cold_tune|paper_suite --seed N
 *             --seconds S --trace 0|1 [--tiny] [--digests FILE]
 *             [--record-digests FILE] [--spans-out FILE] [--work-dir DIR]
 *
 * Prints one line per metric for people, then the one-line JSON result:
 * the end-to-end metrics untraced, the per-layer metrics traced.  Exits
 * 1 when an output check failed and 2 on bad usage or a failed set-up.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload cold_tune|paper_suite"
                 " --seed N --seconds S --trace 0|1 [--tiny]\n"
                 "         [--digests FILE] [--record-digests FILE] "
                 "[--spans-out FILE] [--work-dir DIR]\n";
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end != nullptr && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            options.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string value = argv[++i];
        double number = 0.0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            if (!parseNumber(value, number) || number < 0 ||
                number != static_cast<double>(
                              static_cast<std::uint64_t>(number)))
                return usage("--seed takes a whole number >= 0");
            options.seed = static_cast<std::uint64_t>(number);
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseNumber(value, number) || !(number > 0.0) ||
                number > 600.0)
                return usage("--seconds takes a number in (0, 600]");
            options.seconds = number;
            have_seconds = true;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            options.trace = value == "1";
            have_trace = true;
        } else if (arg == "--digests") {
            options.digests = value;
        } else if (arg == "--record-digests") {
            options.recordDigests = value;
        } else if (arg == "--spans-out") {
            options.spansOut = value;
        } else if (arg == "--work-dir") {
            options.workDir = value;
        } else {
            return usage("unknown option " + arg);
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    Checks checks;
    std::vector<Metric> metrics;
    DigestTable table;
    try {
        // cold_tune outputs are pinned at the default seed only;
        // paper_suite's inputs do not depend on the seed.
        if (options.seed == kDefaultSeed || options.workload == "paper_suite")
            table.load(options.digests);
        if (!options.recordDigests.empty())
            table.recordTo(options.recordDigests);

        if (options.workload == "cold_tune")
            metrics = coldTune(options, table, checks);
        else if (options.workload == "paper_suite")
            metrics = paperSuite(options, table, checks);
        else
            return usage("unknown workload '" + options.workload + "'");
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << options.workload
                  << " set-up failed: " << err.what() << '\n';
        return 2;
    }
    if (options.trace)
        setMetric(metrics, "failed_share", checks.failedShare());
    table.write();
    printResult(checks, metrics);
    return checks.failed() == 0 ? 0 : 1;
}
