/**
 * @file
 * End-to-end workload tests: every (workload x technique) combination must
 * produce a bitwise-correct result, and the headline performance orderings
 * from the paper must hold on small inputs.
 */
#include <gtest/gtest.h>

#include "workloads/workload.hpp"

using namespace maple;
using app::RunConfig;
using app::RunResult;
using app::Technique;

namespace {

RunResult
runSmall(app::Workload &w, Technique t, unsigned threads = 2)
{
    RunConfig cfg;
    cfg.tech = t;
    cfg.threads = threads;
    return w.run(cfg);
}

constexpr Technique kAllTechniques[] = {
    Technique::Doall,        Technique::SwDecouple, Technique::MapleDecouple,
    Technique::NoPrefetch,   Technique::SwPrefetch, Technique::LimaPrefetch,
    Technique::Desc,         Technique::Droplet,
};

}  // namespace

class SpmvAllTechniques : public ::testing::TestWithParam<Technique> {};

TEST_P(SpmvAllTechniques, ProducesCorrectResult)
{
    auto w = app::makeSpmv(256, 8192, 8, 42);
    RunResult r = runSmall(*w, GetParam());
    EXPECT_TRUE(r.valid) << "wrong result for " << r.technique;
    EXPECT_GT(r.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmvAllTechniques, ::testing::ValuesIn(kAllTechniques),
    [](const ::testing::TestParamInfo<Technique> &info) {
        std::string s = app::techniqueName(info.param);
        for (char &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

TEST(SpmvOrdering, MapleDecoupleBeatsSwDecouple)
{
    auto w = app::makeSpmv(512, 16384, 8, 7);
    RunResult maple = runSmall(*w, Technique::MapleDecouple);
    RunResult sw = runSmall(*w, Technique::SwDecouple);
    ASSERT_TRUE(maple.valid);
    ASSERT_TRUE(sw.valid);
    EXPECT_LT(maple.cycles, sw.cycles);
}

TEST(SpmvOrdering, LimaBeatsSwPrefetchAndNoPrefetch)
{
    auto w = app::makeSpmv(512, 16384, 8, 7);
    RunResult lima = runSmall(*w, Technique::LimaPrefetch, 1);
    RunResult swp = runSmall(*w, Technique::SwPrefetch, 1);
    RunResult none = runSmall(*w, Technique::NoPrefetch, 1);
    ASSERT_TRUE(lima.valid);
    ASSERT_TRUE(swp.valid);
    ASSERT_TRUE(none.valid);
    EXPECT_LT(lima.cycles, swp.cycles);
    EXPECT_LT(lima.cycles, none.cycles);
}

TEST(SpmvOrdering, SwPrefetchRoughlyDoublesLoads)
{
    auto w = app::makeSpmv(512, 16384, 8, 7);
    RunResult swp = runSmall(*w, Technique::SwPrefetch, 1);
    RunResult none = runSmall(*w, Technique::NoPrefetch, 1);
    double ratio = double(swp.loads) / double(none.loads);
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 2.5);
}

TEST(SpmvOrdering, LimaReducesLoadsBelowBaseline)
{
    auto w = app::makeSpmv(512, 16384, 8, 7);
    RunResult lima = runSmall(*w, Technique::LimaPrefetch, 1);
    RunResult none = runSmall(*w, Technique::NoPrefetch, 1);
    EXPECT_LT(lima.loads, none.loads);
}

// ---------------------------------------------------------------------------
// Every workload x every technique must produce bitwise-correct results.
// ---------------------------------------------------------------------------

namespace {

enum class Wl { Sdhp, Spmm, Bfs };

std::unique_ptr<app::Workload>
makeSmall(Wl w)
{
    switch (w) {
      case Wl::Sdhp: return app::makeSdhp(256, 512, 8, 21);
      case Wl::Spmm: return app::makeSpmm(96, 4, 22);
      case Wl::Bfs: return app::makeBfs(10, 8, 23);
    }
    return nullptr;
}

}  // namespace

class AllWorkloadsAllTechniques
    : public ::testing::TestWithParam<std::tuple<Wl, Technique>> {};

TEST_P(AllWorkloadsAllTechniques, ProducesCorrectResult)
{
    auto [wl, tech] = GetParam();
    auto w = makeSmall(wl);
    RunResult r = runSmall(*w, tech);
    EXPECT_TRUE(r.valid) << r.workload << " wrong under " << r.technique;
    EXPECT_GT(r.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllWorkloadsAllTechniques,
    ::testing::Combine(::testing::Values(Wl::Sdhp, Wl::Spmm, Wl::Bfs),
                       ::testing::ValuesIn(kAllTechniques)),
    [](const ::testing::TestParamInfo<std::tuple<Wl, Technique>> &info) {
        const char *wl = std::get<0>(info.param) == Wl::Sdhp   ? "sdhp"
                         : std::get<0>(info.param) == Wl::Spmm ? "spmm"
                                                               : "bfs";
        std::string t = app::techniqueName(std::get<1>(info.param));
        for (char &c : t)
            if (c == '-')
                c = '_';
        return std::string(wl) + "_" + t;
    });

TEST(WorkloadThreads, ResultsCorrectAcrossThreadCounts)
{
    auto bfs = app::makeBfs(10, 8, 31);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        RunConfig cfg;
        cfg.tech = Technique::Doall;
        cfg.threads = threads;
        cfg.soc.num_cores = threads;
        cfg.soc.mesh_width = 0;
        cfg.soc.mesh_height = 0;
        RunResult r = bfs->run(cfg);
        EXPECT_TRUE(r.valid) << "bfs wrong with " << threads << " threads";
    }
}

TEST(WorkloadThreads, MapleDecoupleCorrectWithFourPairs)
{
    auto spmv = app::makeSpmv(512, 8192, 8, 33);
    RunConfig cfg;
    cfg.tech = Technique::MapleDecouple;
    cfg.threads = 8;  // 4 Access/Execute pairs sharing one MAPLE
    cfg.soc.num_cores = 8;
    cfg.soc.mesh_width = 0;
    cfg.soc.mesh_height = 0;
    RunResult r = spmv->run(cfg);
    EXPECT_TRUE(r.valid);
}

TEST(WorkloadThreads, MapleDecoupleCorrectWhenProduceBufferFills)
{
    // Five or more Access threads keep MAPLE's 16-entry produce buffer full.
    // Produces parked on a full queue then re-park behind one admitted
    // inline as a buffer entry frees; unless slots are reserved in arrival
    // order, consumers read other elements' values.
    auto run = [](app::Workload &w, unsigned threads) {
        RunConfig cfg;
        cfg.tech = Technique::MapleDecouple;
        cfg.threads = threads;
        cfg.soc = soc::SocConfig::simulated(16);
        return w.run(cfg);
    };
    auto spmv = app::makeSpmv(512, 8192, 8, 1);
    for (unsigned threads : {10u, 16u})
        EXPECT_TRUE(run(*spmv, threads).valid) << "spmv x" << threads;
    EXPECT_TRUE(run(*app::makeSdhp(256, 512, 8, 2), 16).valid) << "sdhp x16";
    EXPECT_TRUE(run(*app::makeBfs(10, 8, 4), 16).valid) << "bfs x16";
}

TEST(WorkloadInvariants, SpmmDecouplingFallsBackToDoall)
{
    auto spmm = app::makeSpmm(96, 4, 41);
    RunResult doall = runSmall(*spmm, Technique::Doall);
    RunResult maple = runSmall(*spmm, Technique::MapleDecouple);
    RunResult desc = runSmall(*spmm, Technique::Desc);
    EXPECT_FALSE(doall.fell_back_to_doall);
    EXPECT_TRUE(maple.fell_back_to_doall);
    EXPECT_TRUE(desc.fell_back_to_doall);
    // Fallback means literally the same execution.
    EXPECT_EQ(maple.cycles, doall.cycles);
}

TEST(WorkloadInvariants, DeterministicCycleCounts)
{
    auto w = app::makeSpmv(256, 8192, 8, 55);
    RunResult a = runSmall(*w, Technique::MapleDecouple);
    RunResult b = runSmall(*w, Technique::MapleDecouple);
    EXPECT_EQ(a.cycles, b.cycles) << "simulation must be deterministic";
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.checksum, b.checksum);
}

TEST(WorkloadInvariants, QueueSizeMonotonicity)
{
    auto w = app::makeSpmv(512, 16384, 8, 66);
    sim::Cycle prev = sim::kCycleMax;
    for (unsigned entries : {4u, 16u, 64u}) {
        RunConfig cfg;
        cfg.tech = Technique::MapleDecouple;
        cfg.queue_entries = entries;
        RunResult r = w->run(cfg);
        ASSERT_TRUE(r.valid);
        EXPECT_LE(r.cycles, prev + prev / 10)
            << "larger queues should not make things much worse";
        prev = r.cycles;
    }
}

TEST(WorkloadInvariants, BfsHandlesSingleVertexComponent)
{
    // A scale-2 graph with few edges: degenerate frontiers must terminate.
    auto w = app::makeBfs(2, 1, 3);
    RunResult r = runSmall(*w, Technique::Doall);
    EXPECT_TRUE(r.valid);
}

// ---------------------------------------------------------------------------
// Per-cell fingerprints. Every (workload x technique) cell on the small
// datasets above, at 2 threads on the FPGA SoC (the single-thread techniques
// clamp that to 1), plus a 4-thread decoupling row on the simulated SoC. Any
// change to how a technique is lowered onto cores, queues or baselines moves
// at least one of these exact counts; a refactor of that plumbing must leave
// every one of them untouched.
// ---------------------------------------------------------------------------

namespace {

struct Fingerprint {
    const char *workload;
    Technique tech;
    unsigned threads;
    bool simulated_soc;  ///< SocConfig::simulated(4) instead of fpga()
    std::uint64_t cycles, instructions, loads, stores, sim_events, checksum;
};

constexpr Fingerprint kFingerprints[] = {
    {"spmv", Technique::Doall, 2, false, 152528ull, 8706ull, 6402ull, 256ull, 21469ull, 275133076465ull},
    {"spmv", Technique::SwDecouple, 2, false, 361628ull, 48930ull, 16428ull, 6400ull, 95582ull, 275133076465ull},
    {"spmv", Technique::MapleDecouple, 2, false, 104899ull, 13060ull, 6659ull, 2305ull, 45924ull, 275133076465ull},
    {"spmv", Technique::NoPrefetch, 2, false, 302471ull, 8705ull, 6401ull, 256ull, 21371ull, 275133076465ull},
    {"spmv", Technique::SwPrefetch, 2, false, 206409ull, 20945ull, 10481ull, 256ull, 31586ull, 275133076465ull},
    {"spmv", Technique::LimaPrefetch, 2, false, 88892ull, 6406ull, 3587ull, 771ull, 28715ull, 275133076465ull},
    {"spmv", Technique::Desc, 2, false, 72849ull, 15873ull, 2305ull, 256ull, 41266ull, 275133076465ull},
    {"spmv", Technique::Droplet, 2, false, 104010ull, 8706ull, 6402ull, 256ull, 23070ull, 275133076465ull},
    {"spmv", Technique::MapleDecouple, 4, true, 50674ull, 13063ull, 6662ull, 2305ull, 46045ull, 275133076465ull},
    {"spmv", Technique::SwDecouple, 4, true, 205176ull, 50644ull, 17030ull, 6400ull, 98836ull, 275133076465ull},
    {"spmv", Technique::Desc, 4, true, 37522ull, 15874ull, 2306ull, 256ull, 41324ull, 275133076465ull},
    {"sdhp", Technique::Doall, 2, false, 298484ull, 10498ull, 6402ull, 2048ull, 27024ull, 2140716576286ull},
    {"sdhp", Technique::SwDecouple, 2, false, 660285ull, 79070ull, 25920ull, 8192ull, 148790ull, 2140716576286ull},
    {"sdhp", Technique::MapleDecouple, 2, false, 133864ull, 14852ull, 6659ull, 4097ull, 53706ull, 2140716576286ull},
    {"sdhp", Technique::NoPrefetch, 2, false, 591252ull, 10497ull, 6401ull, 2048ull, 27075ull, 2140716576286ull},
    {"sdhp", Technique::SwPrefetch, 2, false, 591252ull, 10497ull, 6401ull, 2048ull, 27075ull, 2140716576286ull},
    {"sdhp", Technique::LimaPrefetch, 2, false, 148892ull, 8452ull, 3586ull, 2818ull, 35571ull, 2140716576286ull},
    {"sdhp", Technique::Desc, 2, false, 126895ull, 21249ull, 2305ull, 2048ull, 54053ull, 2140716576286ull},
    {"sdhp", Technique::Droplet, 2, false, 285713ull, 10498ull, 6402ull, 2048ull, 27106ull, 2140716576286ull},
    {"sdhp", Technique::MapleDecouple, 4, true, 65971ull, 14855ull, 6662ull, 4097ull, 54556ull, 2140716576286ull},
    {"sdhp", Technique::SwDecouple, 4, true, 342212ull, 77480ull, 25380ull, 8192ull, 146048ull, 2140716576286ull},
    {"sdhp", Technique::Desc, 4, true, 64532ull, 21250ull, 2306ull, 2048ull, 53913ull, 2140716576286ull},
    {"spmm", Technique::Doall, 2, false, 125464ull, 9314ull, 6242ull, 1536ull, 21670ull, 1513565123531ull},
    {"spmm", Technique::SwDecouple, 2, false, 125464ull, 9314ull, 6242ull, 1536ull, 21670ull, 1513565123531ull},
    {"spmm", Technique::MapleDecouple, 2, false, 125464ull, 9314ull, 6242ull, 1536ull, 21670ull, 1513565123531ull},
    {"spmm", Technique::NoPrefetch, 2, false, 247192ull, 9313ull, 6241ull, 1536ull, 21764ull, 1513565123531ull},
    {"spmm", Technique::SwPrefetch, 2, false, 247192ull, 9313ull, 6241ull, 1536ull, 21764ull, 1513565123531ull},
    {"spmm", Technique::LimaPrefetch, 2, false, 207706ull, 10178ull, 6241ull, 2401ull, 31279ull, 1513565123531ull},
    {"spmm", Technique::Desc, 2, false, 125464ull, 9314ull, 6242ull, 1536ull, 21670ull, 1513565123531ull},
    {"spmm", Technique::Droplet, 2, false, 122239ull, 9314ull, 6242ull, 1536ull, 21670ull, 1513565123531ull},
    {"spmm", Technique::MapleDecouple, 4, true, 64551ull, 9316ull, 6244ull, 1536ull, 21506ull, 1513565123531ull},
    {"spmm", Technique::SwDecouple, 4, true, 64551ull, 9316ull, 6244ull, 1536ull, 21506ull, 1513565123531ull},
    {"spmm", Technique::Desc, 4, true, 64551ull, 9316ull, 6244ull, 1536ull, 21506ull, 1513565123531ull},
    {"bfs", Technique::Doall, 2, false, 188505ull, 23563ull, 15030ull, 1361ull, 47502ull, 1481763717921ull},
    {"bfs", Technique::SwDecouple, 2, false, 515130ull, 106476ull, 35201ull, 20843ull, 207255ull, 1481763717921ull},
    {"bfs", Technique::MapleDecouple, 2, false, 271359ull, 45210ull, 23628ull, 7878ull, 157799ull, 1481763717921ull},
    {"bfs", Technique::NoPrefetch, 2, false, 279649ull, 23563ull, 15030ull, 1361ull, 47034ull, 1481763717921ull},
    {"bfs", Technique::SwPrefetch, 2, false, 292539ull, 45463ull, 22330ull, 1361ull, 65284ull, 1481763717921ull},
    {"bfs", Technique::LimaPrefetch, 2, false, 424482ull, 26830ull, 17116ull, 2522ull, 119277ull, 1481763717921ull},
    {"bfs", Technique::Desc, 2, false, 454524ull, 45769ull, 8536ull, 1361ull, 129316ull, 1481763717921ull},
    {"bfs", Technique::Droplet, 2, false, 167617ull, 23563ull, 15030ull, 1361ull, 49529ull, 1481763717921ull},
    {"bfs", Technique::MapleDecouple, 4, true, 181769ull, 45544ull, 23806ull, 7937ull, 159303ull, 1481763717921ull},
    {"bfs", Technique::SwDecouple, 4, true, 380551ull, 108498ull, 35966ull, 20848ull, 211589ull, 1481763717921ull},
    {"bfs", Technique::Desc, 4, true, 322358ull, 45779ull, 8536ull, 1361ull, 130166ull, 1481763717921ull},
};

std::unique_ptr<app::Workload>
makeFingerprintWorkload(const std::string &name)
{
    if (name == "spmv")
        return app::makeSpmv(256, 8192, 8, 42);
    if (name == "sdhp")
        return app::makeSdhp(256, 512, 8, 21);
    if (name == "spmm")
        return app::makeSpmm(96, 4, 22);
    return app::makeBfs(10, 8, 23);
}

}  // namespace

TEST(WorkloadFingerprint, EveryCellMatchesRecordedCounts)
{
    std::string loaded;
    std::unique_ptr<app::Workload> w;
    for (const Fingerprint &f : kFingerprints) {
        if (loaded != f.workload) {
            w = makeFingerprintWorkload(f.workload);
            loaded = f.workload;
        }
        RunConfig cfg;
        cfg.tech = f.tech;
        cfg.threads = f.threads;
        if (f.simulated_soc)
            cfg.soc = soc::SocConfig::simulated(4);
        RunResult r = w->run(cfg);
        SCOPED_TRACE(std::string(f.workload) + " " + r.technique + " x" +
                     std::to_string(f.threads));
        EXPECT_TRUE(r.valid);
        EXPECT_EQ(r.cycles, f.cycles);
        EXPECT_EQ(r.instructions, f.instructions);
        EXPECT_EQ(r.loads, f.loads);
        EXPECT_EQ(r.stores, f.stores);
        EXPECT_EQ(r.sim_events, f.sim_events);
        EXPECT_EQ(r.checksum, f.checksum);
    }
}
