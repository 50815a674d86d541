#include "harness/host_perf.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/stats_io.hpp"
#include "sim/log.hpp"

namespace maple::harness {

void
HostPerfReport::print() const
{
    std::printf("\n%-24s %8s %14s %14s %10s %12s %10s\n", "benchmark",
                "threads", "events", "sim cycles", "host s", "Mev/s",
                "allocs/ev");
    for (const PerfSample &s : samples_) {
        char allocs[32] = "-";
        if (s.allocs)
            std::snprintf(allocs, sizeof allocs, "%.3f", s.allocsPerEvent());
        std::printf("%-24s %8u %14llu %14llu %10.3f %12.2f %10s\n",
                    s.name.c_str(), s.threads, (unsigned long long)s.events,
                    (unsigned long long)s.sim_cycles, s.host_seconds,
                    s.eventsPerSec() / 1e6, allocs);
    }
}

void
HostPerfReport::writeJson(const std::string &path,
                          const std::string &bench_name, bool quick) const
{
    json::writeFile(path, hostPerfToJson(samples_, bench_name, quick));
    std::fprintf(stderr, "wrote %s (%zu benchmarks)\n", path.c_str(),
                 samples_.size());
}

namespace {

std::vector<unsigned>
parseThreadList(const char *value)
{
    std::vector<unsigned> counts;
    const char *p = value;
    while (*p) {
        char *end = nullptr;
        unsigned long v = std::strtoul(p, &end, 10);
        if (end == p || v < 1 || (*end != ',' && *end != '\0')) {
            std::fprintf(stderr, "bad thread count list '%s'\n", value);
            std::exit(2);
        }
        counts.push_back(static_cast<unsigned>(v));
        p = *end == ',' ? end + 1 : end;
    }
    if (counts.empty()) {
        std::fprintf(stderr, "empty thread count list\n");
        std::exit(2);
    }
    return counts;
}

}  // namespace

HostPerfOptions
applyHostPerfFlags(int &argc, char **argv)
{
    HostPerfOptions opts;
    int out = 1;
    // --flag=value and --flag value forms; "--flag" then a value pulled from
    // the next argv slot.
    auto takeValue = [&](const char *arg, size_t flag_len,
                         int &i) -> const char * {
        const char *value = nullptr;
        if (arg[flag_len] == '=')
            value = arg + flag_len + 1;
        else if (arg[flag_len] == '\0' && i + 1 < argc)
            value = argv[++i];
        if (!value || !*value) {
            std::fprintf(stderr, "%.*s requires a value\n",
                         static_cast<int>(flag_len), arg);
            std::exit(2);
        }
        return value;
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--quick") == 0) {
            opts.quick = true;
            continue;
        }
        if (std::strncmp(arg, "--out", 5) == 0 &&
            (arg[5] == '=' || arg[5] == '\0')) {
            opts.out_path = takeValue(arg, 5, i);
            continue;
        }
        if (std::strncmp(arg, "--threads-sweep", 15) == 0 &&
            (arg[15] == '=' || arg[15] == '\0')) {
            opts.threads_sweep = parseThreadList(takeValue(arg, 15, i));
            continue;
        }
        if (std::strncmp(arg, "--threads", 9) == 0 &&
            (arg[9] == '=' || arg[9] == '\0')) {
            opts.threads_sweep = parseThreadList(takeValue(arg, 9, i));
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;
    return opts;
}

}  // namespace maple::harness
