/**
 * @file
 * Host-performance measurement for the simulator itself: wall-clock timing,
 * events/second accounting, and a machine-readable BENCH_host_perf.json
 * report. This is the measurement loop behind bench_host_perf and the CI
 * perf-smoke job — every kernel optimization PR records its before/after
 * trajectory through it.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace maple::harness {

/** One measured benchmark: how fast the host simulated a scenario. */
struct PerfSample {
    std::string name;
    std::uint64_t events = 0;      ///< kernel events executed
    std::uint64_t sim_cycles = 0;  ///< simulated cycles covered
    double host_seconds = 0.0;     ///< host wall time
    unsigned threads = 1;          ///< host worker threads driving the run
    /** Global operator new calls during the tier, when the binary counts
     *  them (bench_host_perf links a counting operator new). */
    std::optional<std::uint64_t> allocs = std::nullopt;

    double
    eventsPerSec() const
    {
        return host_seconds > 0.0 ? static_cast<double>(events) / host_seconds
                                  : 0.0;
    }

    double
    allocsPerEvent() const
    {
        return allocs && events > 0
                   ? static_cast<double>(*allocs) / static_cast<double>(events)
                   : 0.0;
    }

    double
    simCyclesPerSec() const
    {
        return host_seconds > 0.0
                   ? static_cast<double>(sim_cycles) / host_seconds
                   : 0.0;
    }
};

/** Wall-clock stopwatch; starts on construction. */
class WallTimer {
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Collects PerfSamples, prints a table, writes the JSON report. */
class HostPerfReport {
  public:
    void add(PerfSample s) { samples_.push_back(std::move(s)); }
    const std::vector<PerfSample> &samples() const { return samples_; }

    /** Human-readable table on stdout. */
    void print() const;

    /**
     * Machine-readable report:
     *   { "bench": ..., "quick": ..., "benchmarks": [ {name, events,
     *     sim_cycles, host_seconds, events_per_sec}, ... ] }
     * Samples that counted allocations add "allocs" and "allocs_per_event",
     * and the report then records "frame_pool": whether coroutine frames
     * were pooled in this build (sim/frame_pool.hpp).
     */
    void writeJson(const std::string &path, const std::string &bench_name,
                   bool quick) const;

  private:
    std::vector<PerfSample> samples_;
};

/** Flags shared by host-perf benches (parsed and stripped from argv). */
struct HostPerfOptions {
    bool quick = false;  ///< --quick: CI-sized iteration counts
    std::string out_path = "BENCH_host_perf.json";  ///< --out=<path>
    /** Thread counts for the sharded tiers: --threads=N for one count,
     *  --threads-sweep=1,2,4 for several (each emits its own sample). */
    std::vector<unsigned> threads_sweep = {1};
};

/**
 * Parse --quick, --out=<path>, --threads=<n> and --threads-sweep=<list>
 * (both --flag=value and --flag value forms) out of argv, leaving unrelated
 * flags for the caller.
 */
HostPerfOptions applyHostPerfFlags(int &argc, char **argv);

}  // namespace maple::harness
