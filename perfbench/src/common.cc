#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

namespace
{

const Clock::time_point kProcessStart = Clock::now();

Usage
usageOf(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    Usage usage;
    usage.cpuSeconds =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
    // Linux reports ru_maxrss in KiB.
    usage.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return usage;
}

} // namespace

std::int64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
}

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

Clock::time_point
processStart()
{
    return kProcessStart;
}

std::size_t
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

Usage
selfUsage()
{
    return usageOf(RUSAGE_SELF);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    // Mean of the two middle values for an even count: with few samples
    // and a gap in the middle (paper_suite's 18 binaries), nearest rank
    // would jump between the two.
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    const double upper = values[mid];
    if (values.size() % 2 != 0)
        return upper;
    return 0.5 * (*std::max_element(values.begin(), values.begin() + mid) +
                  upper);
}

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    tail.p50 = median(values);
    if (n > 20) {
        // Index n-11 leaves exactly ten samples above it (above the
        // median only from 21 samples on).
        tail.tail = values[n - 11];
        tail.percentile =
            100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    } else {
        tail.tail = values.back();
        tail.percentile = 100.0;
    }
    return tail;
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
digestBytes(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
    return buf;
}

void
Checks::fail(const std::string &reason)
{
    ++failed_;
    std::cerr << "perfbench: FAILED: " << reason << '\n';
}

double
Checks::failedShare() const
{
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
}

void
DigestTable::load(const std::string &path)
{
    if (path.empty())
        return;
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digest table '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, item, digest;
        if (!(fields >> workload >> item >> digest))
            throw std::runtime_error("malformed digest line: " + line);
        expected_[workload + ' ' + item] = digest;
    }
}

void
DigestTable::check(const std::string &workload, const std::string &item,
                   std::uint64_t digest, Checks &checks)
{
    const std::string key = workload + ' ' + item;
    if (!recordPath_.empty()) {
        recorded_[key] = hex(digest);
        return;
    }
    const auto it = expected_.find(key);
    if (it == expected_.end())
        return;
    ++compared_;
    if (it->second != hex(digest))
        checks.fail(key + ": digest " + hex(digest) + ", table has " +
                    it->second);
}

void
DigestTable::write() const
{
    if (recordPath_.empty())
        return;
    std::ofstream out(recordPath_, std::ios::app);
    for (const auto &[key, digest] : recorded_)
        out << key << ' ' << digest << '\n';
}

Ledger::Ledger() : origin_(Clock::now()) {}

int
Ledger::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent, std::uint64_t request)
{
    const Clock::time_point enter = Clock::now();
    spans_.push_back(Span{name, nsBetween(origin_, start),
                          nsBetween(origin_, end), parent, request});
    recorderNs_ += static_cast<double>(nsBetween(enter, Clock::now()));
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double>
Ledger::selfNs() const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(static_cast<int>(i));
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        for (const int c : children[i]) {
            const Span &child = spans_[static_cast<std::size_t>(c)];
            covered.emplace_back(std::max(child.startNs, span.startNs),
                                 std::min(child.endNs, span.endNs));
        }
        std::sort(covered.begin(), covered.end());
        std::int64_t busy = 0;
        std::int64_t reach = span.startNs;
        for (const auto &[lo, hi] : covered) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) {
                busy += hi - from;
                reach = hi;
            }
        }
        self[span.name] +=
            static_cast<double>(span.endNs - span.startNs - busy);
    }
    return self;
}

double
Ledger::rootNs() const
{
    double total = 0.0;
    for (const Span &span : spans_) {
        if (span.parent < 0)
            total += static_cast<double>(span.endNs - span.startNs);
    }
    return total;
}

void
Ledger::write(const std::string &path) const
{
    if (path.empty())
        return;
    std::ofstream out(path);
    for (const Span &span : spans_) {
        out << "{\"name\": \"" << span.name << "\", \"start_ns\": "
            << span.startNs << ", \"end_ns\": " << span.endNs
            << ", \"parent\": " << span.parent
            << ", \"request\": " << span.request << "}\n";
    }
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const bool correct = checks.failed() == 0 && checks.attempted() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", checks.attempted(),
                checks.failed());
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
