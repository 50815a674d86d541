/**
 * @file
 * Host-performance benchmark of the simulation kernel itself: how many
 * events per host-second the engine sustains. Three tiers of realism:
 *
 *   1. pure_event      — self-rescheduling callback chains, nothing but the
 *                        scheduler in the loop (kernel ceiling).
 *   2. coro_delay      — coroutine delay() ping loops: the zero-allocation
 *                        coroutine-resume event path every model rides.
 *   3. noc_saturation  — an 8x8 mesh full of competing transits: link
 *                        reservation, stats and coroutines together.
 *   4. maple_spmv      — a full bench_fig08-style MAPLE-decoupled SPMV run
 *                        (cores, caches, TLBs, MAPLE pipeline, NoC, DRAM).
 *   5. coh_spmv        — the same run with MSI coherence plus the flat-memory
 *                        reference checker enabled: directory lookups and
 *                        protocol messages now ride every miss, so this tier
 *                        prices the honesty tax of coherent experiments.
 *
 * Two sharded tiers scale with host threads (--threads=N or
 * --threads-sweep=1,2,4 emit one sample per count, distinguished by the
 * "threads" JSON field):
 *
 *   5. grid_spmv       — a 4-chip SocGrid each running a doall SPMV
 *                        scenario: embarrassingly-parallel domains, the
 *                        campaign-throughput shape.
 *   6. sharded_noc     — 4 mesh domains exchanging cross-domain requests at
 *                        a 32-cycle link latency: quantum-bound BSP sync and
 *                        mailbox merging in the loop.
 *
 * Both sharded tiers assert that their simulated results are identical
 * across every swept thread count, so the determinism contract is exercised
 * on every perf run, not only in the unit tests.
 *
 * Every tier also reports allocs_per_event: global operator new calls per
 * kernel event, setup included, counted by the operator new replacement
 * this binary links (tests/support/counting_new.cpp). Single-thread tiers
 * repeat the count exactly, so CI gates it as a host-speed-independent perf
 * check.
 *
 * Prints a table and writes BENCH_host_perf.json (override with
 * --out=<path>); --quick shrinks iteration counts to CI-smoke size. CI runs
 * `bench_host_perf --quick` on every push and fails on gross regression
 * against the checked-in baseline.
 */
#include <cstdio>
#include <functional>
#include <vector>

#include "counting_new.hpp"
#include "harness/host_perf.hpp"
#include "harness/scenario.hpp"
#include "mem/shard_port.hpp"
#include "noc/mesh.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded.hpp"
#include "soc/grid.hpp"
#include "workloads/workload.hpp"

using namespace maple;

namespace {

/** Run one tier and record the global operator new calls it made. */
template <typename Tier>
harness::PerfSample
counted(Tier &&tier)
{
    const std::uint64_t before = support::heapAllocCount();
    harness::PerfSample s = tier();
    s.allocs = support::heapAllocCount() - before;
    return s;
}

/** Self-rescheduling callback storm: the scheduler and nothing else. */
harness::PerfSample
pureEvent(std::uint64_t total_events)
{
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    constexpr int kChains = 64;
    std::vector<std::function<void()>> chains(kChains);
    for (int i = 0; i < kChains; ++i) {
        chains[i] = [&eq, &fired, &chains, total_events, i] {
            if (++fired < total_events)
                eq.scheduleIn(1 + (fired % 7), chains[i]);
        };
    }
    harness::WallTimer t;
    for (int i = 0; i < kChains; ++i)
        eq.scheduleIn(1 + i % 7, chains[i]);
    eq.run();
    return {"pure_event", eq.executed(), eq.now(), t.seconds()};
}

/** Coroutine delay() ping loops: the pooled coroutine-resume path. */
harness::PerfSample
coroDelay(int rounds)
{
    constexpr int kTasks = 64;
    sim::EventQueue eq;
    auto ping = [&eq, rounds]() -> sim::Task<void> {
        for (int r = 0; r < rounds; ++r)
            co_await sim::delay(eq, 1 + (r % 5));
    };
    std::vector<sim::Join> joins;
    joins.reserve(kTasks);
    harness::WallTimer t;
    for (int i = 0; i < kTasks; ++i)
        joins.push_back(sim::spawn(ping()));
    eq.run();
    harness::PerfSample s{"coro_delay", eq.executed(), eq.now(), t.seconds()};
    for (auto &j : joins)
        j.get();
    return s;
}

/** All-to-all traffic on an 8x8 mesh: contention, stats, coroutines. */
harness::PerfSample
nocSaturation(int transits_per_flow)
{
    sim::EventQueue eq;
    noc::MeshParams mp;
    mp.width = 8;
    mp.height = 8;
    noc::Mesh mesh(eq, mp);
    constexpr int kFlows = 128;
    auto flow = [&](unsigned f) -> sim::Task<void> {
        const unsigned tiles = mesh.numTiles();
        for (int i = 0; i < transits_per_flow; ++i) {
            sim::TileId src = (f * 7 + i) % tiles;
            sim::TileId dst = (f * 13 + i * 5 + 1) % tiles;
            if (src == dst)
                dst = (dst + 1) % tiles;
            co_await mesh.transit(src, dst, noc::flitsFor(16));
        }
    };
    std::vector<sim::Join> joins;
    joins.reserve(kFlows);
    harness::WallTimer t;
    for (unsigned f = 0; f < kFlows; ++f)
        joins.push_back(sim::spawn(flow(f)));
    eq.run();
    harness::PerfSample s{"noc_saturation", eq.executed(), eq.now(),
                          t.seconds()};
    for (auto &j : joins)
        j.get();
    return s;
}

/** Full-system anchor: MAPLE-decoupled SPMV on the FPGA SoC config. */
harness::PerfSample
mapleSpmv(bool quick)
{
    auto w = quick ? app::makeSpmv(1024, 16384, 8) : app::makeSpmv();
    app::RunConfig cfg;
    cfg.tech = app::Technique::MapleDecouple;
    cfg.threads = 2;
    cfg.soc = soc::SocConfig::fpga();
    harness::WallTimer t;
    app::RunResult r = w->run(cfg);
    double secs = t.seconds();
    MAPLE_ASSERT(r.valid, "maple_spmv checksum mismatch");
    return {"maple_spmv", r.sim_events, r.cycles, secs};
}

/** The same full-system SPMV with MSI coherence and the reference checker
 *  live: the cost of running experiments honestly, measured against the
 *  maple_spmv tier above. */
harness::PerfSample
cohSpmv(bool quick)
{
    auto w = quick ? app::makeSpmv(1024, 16384, 8) : app::makeSpmv();
    app::RunConfig cfg;
    cfg.tech = app::Technique::MapleDecouple;
    cfg.threads = 2;
    cfg.soc = soc::SocConfig::fpga();
    cfg.soc.coherence.mode = mem::CoherenceMode::Msi;
    cfg.soc.coherence.checker = true;
    harness::WallTimer t;
    app::RunResult r = w->run(cfg);
    double secs = t.seconds();
    MAPLE_ASSERT(r.valid, "coh_spmv checksum mismatch");
    return {"coh_spmv", r.sim_events, r.cycles, secs};
}

/** Simulated-outcome fingerprint of a sharded run: must not vary with the
 *  host thread count. */
struct ShardFingerprint {
    std::vector<std::uint64_t> words;

    bool operator==(const ShardFingerprint &) const = default;
};

/** 4 independent chips each running a doall SPMV scenario (campaign shape). */
harness::PerfSample
gridSpmv(unsigned threads, bool quick, ShardFingerprint &fp)
{
    constexpr unsigned kChips = 4;
    harness::ScenarioSpec spec;
    spec.rows = quick ? 256 : 1024;
    soc::SocConfig proto = soc::SocConfig::fpga();
    proto.name = "grid";
    soc::SocGridConfig gc = soc::SocGridConfig::uniform(proto, kChips);
    gc.host_threads = threads;
    soc::SocGrid grid(gc);
    for (unsigned i = 0; i < grid.size(); ++i) {
        harness::ScenarioSpec s = spec;
        s.seed = spec.seed + i;  // distinct dataset per chip
        harness::warmScenario(grid.soc(i), s);
    }

    const std::uint64_t base_events = grid.engine().executed();
    std::vector<sim::Join> joins;
    harness::WallTimer t;
    std::vector<sim::Cycle> starts;
    for (unsigned i = 0; i < grid.size(); ++i) {
        harness::ScenarioSpec s = spec;
        s.seed = spec.seed + i;
        starts.push_back(grid.soc(i).eq().now());
        for (sim::Join &j : harness::spawnScenarioDoall(grid.soc(i), s))
            joins.push_back(std::move(j));
    }
    sim::Cycle cycles = grid.run(std::move(joins));
    harness::PerfSample sample{"grid_spmv",
                               grid.engine().executed() - base_events, cycles,
                               t.seconds(), threads};
    fp.words.clear();
    for (unsigned i = 0; i < grid.size(); ++i) {
        harness::ScenarioSpec s = spec;
        s.seed = spec.seed + i;
        harness::ScenarioResult r =
            harness::collectScenarioResult(grid.soc(i), s, starts[i]);
        MAPLE_ASSERT(r.result.valid, "grid_spmv checksum mismatch");
        fp.words.push_back(r.result.checksum);
        fp.words.push_back(r.end_cycle);
        fp.words.push_back(grid.soc(i).eq().executed());
    }
    return sample;
}

/** 4 mesh domains coupled by 32-cycle cross-domain links: BSP sync and
 *  mailbox merge on the hot path. */
harness::PerfSample
shardedNoc(unsigned threads, int transits_per_flow, ShardFingerprint &fp)
{
    constexpr unsigned kDomains = 4;
    constexpr sim::Cycle kLink = 32;
    sim::ShardedEngine engine;
    std::vector<std::unique_ptr<sim::EventQueue>> eqs;
    std::vector<std::unique_ptr<noc::Mesh>> meshes;
    std::vector<std::unique_ptr<mem::FixedLatencyMem>> mems;
    for (unsigned d = 0; d < kDomains; ++d) {
        eqs.push_back(std::make_unique<sim::EventQueue>());
        engine.addDomain(*eqs.back(), "noc." + std::to_string(d));
        noc::MeshParams mp;
        mp.width = 4;
        mp.height = 4;
        meshes.push_back(std::make_unique<noc::Mesh>(*eqs.back(), mp));
        mems.push_back(std::make_unique<mem::FixedLatencyMem>(*eqs.back(), 8));
    }
    std::vector<std::unique_ptr<mem::CrossDomainPort>> links;
    for (unsigned d = 0; d < kDomains; ++d) {
        unsigned n = (d + 1) % kDomains;
        links.push_back(std::make_unique<mem::CrossDomainPort>(
            engine, d, *eqs[d], n, *eqs[n], *mems[n], kLink));
    }

    auto meshFlow = [&](unsigned d, unsigned f) -> sim::Task<void> {
        noc::Mesh &mesh = *meshes[d];
        const unsigned tiles = mesh.numTiles();
        for (int i = 0; i < transits_per_flow; ++i) {
            sim::TileId src = (f * 7 + i) % tiles;
            sim::TileId dst = (f * 13 + i * 5 + 1) % tiles;
            if (src == dst)
                dst = (dst + 1) % tiles;
            co_await mesh.transit(src, dst, noc::flitsFor(16));
        }
    };
    auto crossFlow = [&](unsigned d, unsigned f) -> sim::Task<void> {
        sim::EventQueue &eq = *eqs[d];
        for (int i = 0; i < transits_per_flow / 4; ++i) {
            mem::MemRequest req = mem::MemRequest::make(
                eq, mem::RequesterClass::Core, f % 16, 64 * i, 16,
                mem::AccessKind::Read);
            co_await links[d]->request(req);
        }
    };
    std::vector<sim::Join> joins;
    harness::WallTimer t;
    for (unsigned d = 0; d < kDomains; ++d) {
        for (unsigned f = 0; f < 32; ++f)
            joins.push_back(sim::spawn(meshFlow(d, f)));
        for (unsigned f = 0; f < 8; ++f)
            joins.push_back(sim::spawn(crossFlow(d, f)));
    }
    sim::ShardedEngine::RunOptions ro;
    ro.threads = threads;
    bool drained = engine.run(ro);
    harness::PerfSample sample{"sharded_noc", engine.executed(), eqs[0]->now(),
                               t.seconds(), threads};
    MAPLE_ASSERT(drained, "sharded_noc did not drain");
    for (sim::Join &j : joins)
        j.get();
    fp.words.clear();
    for (unsigned d = 0; d < kDomains; ++d) {
        fp.words.push_back(eqs[d]->now());
        fp.words.push_back(eqs[d]->executed());
        fp.words.push_back(meshes[d]->flitsSent());
    }
    fp.words.push_back(engine.messagesMerged());
    return sample;
}

}  // namespace

int
main(int argc, char **argv)
{
    harness::HostPerfOptions opts = harness::applyHostPerfFlags(argc, argv);
    const std::uint64_t pure_events = opts.quick ? 2'000'000 : 20'000'000;
    const int coro_rounds = opts.quick ? 20'000 : 200'000;
    const int noc_transits = opts.quick ? 2'000 : 20'000;

    harness::HostPerfReport report;
    report.add(counted([&] { return pureEvent(pure_events); }));
    report.add(counted([&] { return coroDelay(coro_rounds); }));
    report.add(counted([&] { return nocSaturation(noc_transits); }));
    report.add(counted([&] { return mapleSpmv(opts.quick); }));
    report.add(counted([&] { return cohSpmv(opts.quick); }));

    // Sharded tiers: one sample per swept thread count, with a cross-count
    // determinism assertion (the simulated outcome must not move).
    ShardFingerprint grid_ref, noc_ref;
    for (size_t i = 0; i < opts.threads_sweep.size(); ++i) {
        unsigned threads = opts.threads_sweep[i];
        ShardFingerprint grid_fp, noc_fp;
        report.add(counted([&] { return gridSpmv(threads, opts.quick, grid_fp); }));
        report.add(counted(
            [&] { return shardedNoc(threads, noc_transits / 4, noc_fp); }));
        if (i == 0) {
            grid_ref = grid_fp;
            noc_ref = noc_fp;
        } else {
            MAPLE_ASSERT(grid_fp == grid_ref,
                         "grid_spmv result varies with host threads");
            MAPLE_ASSERT(noc_fp == noc_ref,
                         "sharded_noc result varies with host threads");
        }
    }
    report.print();
    report.writeJson(opts.out_path, "bench_host_perf", opts.quick);
    return 0;
}
