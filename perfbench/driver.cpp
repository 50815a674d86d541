/**
 * @file
 * Benchmark driver: runs one benchmark workload (a fixed list of simulation
 * jobs) through the simulator's public entry points -- app::make*,
 * app::Workload::run and soc::SocConfig::fpga()/simulated() -- and prints
 * one JSON object per line on stdout for perfbench/run.py to aggregate:
 *
 *   {"kind":"setup","s":...}          one per dataset-generation repetition
 *   {"kind":"run",...}                one per simulation job
 *   {"kind":"end","peak_rss_mb":...}  once, last
 *
 * Every host time is taken here, from outside the call it spans. Usage:
 *
 *   perfbench_driver <fpga_figs|prior_hw|msi_manycore|tiny> --seconds S
 *       [--seed N] [--trace-dir DIR]
 *
 * The datasets are generated kSetupReps times, each timed. Untraced rounds of all jobs repeat while another round still fits in S
 * seconds (at least one round). With --trace-dir one more round runs with
 * the tracer on, writing one JSON trace and one probe CSV per job into DIR.
 */
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

using namespace maple;

namespace {

using Datasets = std::vector<std::vector<std::unique_ptr<app::Workload>>>;

struct Job {
    unsigned dataset;
    unsigned app;  ///< index into the dataset, figure order
    app::RunConfig cfg;
};

struct Plan {
    std::function<Datasets(std::uint64_t)> make;
    std::vector<Job> jobs;
};

/**
 * Dataset seed of one app: seed 0 reproduces the figures' datasets; any
 * other seed shifts every app's generator seed by the same stride.
 */
std::uint64_t
appSeed(std::uint64_t fig_seed, std::uint64_t seed)
{
    return fig_seed + 1000 * seed;
}

/** The figures' default datasets (sdhp, spmm, spmv, bfs), reseeded. */
std::vector<std::unique_ptr<app::Workload>>
figureDataset(std::uint64_t seed)
{
    std::vector<std::unique_ptr<app::Workload>> ws;
    ws.push_back(app::makeSdhp(2048, 1024, 16, appSeed(2, seed)));
    ws.push_back(app::makeSpmm(256, 8, appSeed(3, seed)));
    ws.push_back(app::makeSpmv(4096, 65536, 8, appSeed(1, seed)));
    ws.push_back(app::makeBfs(15, 8, appSeed(4, seed)));
    return ws;
}

/** Fig 12's second dataset per app (bench_fig12), reseeded. */
std::vector<std::unique_ptr<app::Workload>>
fig12SecondDataset(std::uint64_t seed)
{
    std::vector<std::unique_ptr<app::Workload>> ws;
    ws.push_back(app::makeSdhp(1024, 8192, 16, appSeed(12, seed)));
    ws.push_back(app::makeSpmm(384, 8, appSeed(13, seed)));
    ws.push_back(app::makeSpmv(2048, 131072, 12, appSeed(14, seed)));
    ws.push_back(app::makeBfs(12, 16, appSeed(15, seed)));
    return ws;
}

constexpr unsigned kApps = 4;

/** Timed dataset generations per run: one takes only about 0.1 s, so the
 *  set-up time is the median of several. */
constexpr unsigned kSetupReps = 9;

void
addJobs(Plan &p, unsigned datasets, const app::RunConfig &base,
        std::initializer_list<app::Technique> techs)
{
    for (unsigned d = 0; d < datasets; ++d)
        for (unsigned a = 0; a < kApps; ++a)
            for (app::Technique t : techs) {
                Job j{d, a, base};
                j.cfg.tech = t;
                p.jobs.push_back(j);
            }
}

/** Figs 8-11 on the FPGA SoC (Table 2). */
Plan
fpgaFigs()
{
    Plan p;
    p.make = [](std::uint64_t seed) {
        Datasets ds;
        ds.push_back(figureDataset(seed));
        return ds;
    };
    app::RunConfig base;
    base.soc = soc::SocConfig::fpga();
    base.threads = 2;
    addJobs(p, 1, base,
            {app::Technique::Doall, app::Technique::SwDecouple,
             app::Technique::MapleDecouple});
    base.threads = 1;
    addJobs(p, 1, base,
            {app::Technique::NoPrefetch, app::Technique::SwPrefetch,
             app::Technique::LimaPrefetch});
    return p;
}

/** Fig 12 on the simulated SoC (Table 3), two datasets per app. */
Plan
priorHw()
{
    Plan p;
    p.make = [](std::uint64_t seed) {
        Datasets ds;
        ds.push_back(figureDataset(seed));
        ds.push_back(fig12SecondDataset(seed));
        return ds;
    };
    app::RunConfig base;
    base.soc = soc::SocConfig::simulated(2);
    base.threads = 2;
    addJobs(p, 2, base,
            {app::Technique::Doall, app::Technique::Droplet,
             app::Technique::Desc, app::Technique::MapleDecouple});
    return p;
}

/**
 * One 64-core MSI chip, 8 LLC/directory slices, the flat-memory checker
 * live, two host threads.
 */
Plan
msiManycore()
{
    Plan p;
    p.make = [](std::uint64_t seed) {
        Datasets ds;
        ds.push_back(figureDataset(seed));
        return ds;
    };
    app::RunConfig base;
    base.soc = soc::SocConfig::simulated(64);
    base.soc.coherence.mode = mem::CoherenceMode::Msi;
    base.soc.coherence.checker = true;
    base.soc.llc_slices = 8;
    base.soc.host_threads = 2;
    base.threads = 64;
    addJobs(p, 1, base, {app::Technique::Doall});
    base.threads = 16;  // 8 access/execute pairs: all 8 queues of one MAPLE
    addJobs(p, 1, base, {app::Technique::MapleDecouple});
    return p;
}

/** Four small apps on the FPGA SoC, runnable in well under a second: the
 *  input of perfbench's self-tests, not a benchmark workload. */
Plan
tiny()
{
    Plan p;
    p.make = [](std::uint64_t seed) {
        Datasets ds(1);
        ds[0].push_back(app::makeSdhp(128, 256, 4, appSeed(2, seed)));
        ds[0].push_back(app::makeSpmm(32, 4, appSeed(3, seed)));
        ds[0].push_back(app::makeSpmv(256, 4096, 4, appSeed(1, seed)));
        ds[0].push_back(app::makeBfs(8, 4, appSeed(4, seed)));
        return ds;
    };
    app::RunConfig base;
    base.soc = soc::SocConfig::fpga();
    base.threads = 2;
    addJobs(p, 1, base, {app::Technique::Doall, app::Technique::MapleDecouple});
    return p;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
runJob(const Datasets &ds, const Job &job, unsigned round,
       const std::string &trace_dir, unsigned index)
{
    app::RunConfig cfg = job.cfg;
    std::string json_path, csv_path;
    if (!trace_dir.empty()) {
        // One path per job: the tracer suffixes repeated paths itself.
        std::string stem = trace_dir + "/job" + std::to_string(index);
        json_path = stem + ".json";
        csv_path = stem + ".csv";
        cfg.soc.trace.enabled = true;
        cfg.soc.trace.json_path = json_path;
        cfg.soc.trace.csv_path = csv_path;
        cfg.soc.trace.report_to_stderr = false;
    }
    app::Workload &w = *ds.at(job.dataset).at(job.app);
    app::RunResult r;
    std::string error;
    auto t0 = std::chrono::steady_clock::now();
    try {
        r = w.run(cfg);
    } catch (const std::exception &e) {
        error = e.what();
        r.valid = false;
    }
    double wall = secondsSince(t0);
    std::printf(
        "{\"kind\":\"run\",\"round\":%u,\"traced\":%s,\"app\":%s,"
        "\"tech\":\"%s\",\"dataset\":%u,\"threads\":%u,\"wall_s\":%.9f,"
        "\"cycles\":%llu,\"instructions\":%llu,\"loads\":%llu,"
        "\"stores\":%llu,\"load_latency\":%.17g,\"events\":%llu,"
        "\"valid\":%s,\"fell_back\":%s,\"error\":%s,"
        "\"trace_json\":%s,\"trace_csv\":%s}\n",
        round, trace_dir.empty() ? "false" : "true",
        jsonString(w.name()).c_str(), app::techniqueName(cfg.tech),
        job.dataset, cfg.threads, wall,
        static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.instructions),
        static_cast<unsigned long long>(r.loads),
        static_cast<unsigned long long>(r.stores), r.mean_load_latency,
        static_cast<unsigned long long>(r.sim_events),
        r.valid ? "true" : "false", r.fell_back_to_doall ? "true" : "false",
        jsonString(error).c_str(), jsonString(json_path).c_str(),
        jsonString(csv_path).c_str());
    std::fflush(stdout);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "<fpga_figs|prior_hw|msi_manycore|tiny> --seconds S [--seed N] "
                 "[--trace-dir DIR]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *v)
{
    char *end = nullptr;
    unsigned long long n = std::strtoull(v, &end, 10);
    if (!*v || !end || *end || v[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return n;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing workload");
    std::string workload = argv[1];
    std::uint64_t seed = 0;
    std::optional<std::uint64_t> seconds;
    std::string trace_dir;
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--seed")
            seed = parseCount("--seed", v);
        else if (flag == "--seconds")
            seconds = parseCount("--seconds", v);
        else if (flag == "--trace-dir")
            trace_dir = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!seconds)
        usage("missing --seconds");

    Plan plan;
    if (workload == "fpga_figs")
        plan = fpgaFigs();
    else if (workload == "prior_hw")
        plan = priorHw();
    else if (workload == "msi_manycore")
        plan = msiManycore();
    else if (workload == "tiny")
        plan = tiny();
    else
        usage(("unknown workload " + workload).c_str());

    Datasets ds;
    for (unsigned i = 0; i < kSetupReps; ++i) {
        ds.clear();  // each repetition builds from scratch, as the first does
        auto t0 = std::chrono::steady_clock::now();
        ds = plan.make(seed);
        std::printf("{\"kind\":\"setup\",\"s\":%.9f}\n", secondsSince(t0));
    }

    auto start = std::chrono::steady_clock::now();
    double last_round = 0.0;
    unsigned round = 0;
    do {
        auto t0 = std::chrono::steady_clock::now();
        for (const Job &j : plan.jobs)
            runJob(ds, j, round, "", 0);
        last_round = secondsSince(t0);
        ++round;
    } while (secondsSince(start) + last_round <= double(*seconds));

    if (!trace_dir.empty()) {
        for (unsigned i = 0; i < plan.jobs.size(); ++i)
            runJob(ds, plan.jobs[i], round, trace_dir, i);
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"kind\":\"end\",\"peak_rss_mb\":%.3f}\n",
                double(ru.ru_maxrss) / 1024.0);
    return 0;
}
