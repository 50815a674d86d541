#include "soc/soc.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "os/page_retire.hpp"
#include "sim/error.hpp"
#include "sim/log.hpp"
#include "sim/sharded.hpp"

namespace maple::soc {

/**
 * MMIO window over the per-tile MCA banks (the page right above the MAPLE
 * device pages). Each tile owns 32 bytes = four u64 registers:
 *   +0   status: bit 0 valid, bits [15:8] structure, bits [23:16] cause
 *   +8   line address of the first latched error
 *   +16  error count since the last clear
 *   +24  cycle of the first latched error
 * Any store inside a tile's 32-byte window clears that tile's bank.
 */
class McaMmio : public MmioDevice {
  public:
    static constexpr sim::Addr kBankStride = 32;

    McaMmio(sim::Addr base, mem::ResilManager &resil)
        : base_(base), resil_(resil)
    {
    }

    sim::Task<std::uint64_t>
    mmioLoad(sim::Addr paddr, unsigned size, sim::ThreadId) override
    {
        (void)size;
        std::uint64_t off = paddr - base_;
        auto tile = static_cast<unsigned>(off / kBankStride);
        std::uint64_t v = 0;
        if (tile < resil_.numTiles()) {
            const mem::McaBank &b = resil_.mca(tile);
            switch ((off % kBankStride) / 8) {
              case 0:
                v = (b.valid ? 1u : 0u) |
                    (static_cast<std::uint64_t>(b.structure) << 8) |
                    (static_cast<std::uint64_t>(b.cause) << 16);
                break;
              case 1: v = b.addr; break;
              case 2: v = b.count; break;
              case 3: v = b.first_cycle; break;
            }
        }
        co_return v;
    }

    sim::Task<void>
    mmioStore(sim::Addr paddr, std::uint64_t, unsigned, sim::ThreadId) override
    {
        auto tile = static_cast<unsigned>((paddr - base_) / kBankStride);
        if (tile < resil_.numTiles())
            resil_.clearMca(tile);
        co_return;
    }

  private:
    sim::Addr base_;
    mem::ResilManager &resil_;
};

unsigned
hostThreadsFromEnv(unsigned fallback)
{
    const char *p = std::getenv("MAPLE_THREADS");
    if (!p || !*p)
        return fallback;
    char *end = nullptr;
    errno = 0;
    unsigned long v = std::strtoul(p, &end, 10);
    // Range-check BEFORE the narrowing cast: 2^32 would otherwise truncate
    // to 0 and silently select the single-threaded path, and strtoul
    // reports overflow as ULONG_MAX + ERANGE rather than a parse failure.
    if (!end || *end != '\0' || errno == ERANGE || v < 1 ||
        v > std::numeric_limits<unsigned>::max()) {
        MAPLE_WARN("ignoring bad MAPLE_THREADS '%s'", p);
        return fallback;
    }
    return static_cast<unsigned>(v);
}

SocConfig
SocConfig::fpga()
{
    SocConfig cfg;
    cfg.name = "openpiton+maple (fpga)";
    cfg.num_cores = 2;
    cfg.num_maples = 1;
    cfg.mesh_width = 2;
    cfg.mesh_height = 2;
    cfg.dram_bytes = 1ull << 30;  // 1GB DDR3
    // Ariane's L1D is near-blocking: ~2 outstanding misses. This is why
    // software prefetching into the L1 cannot create MLP on this core.
    cfg.l1 = mem::CacheParams{"l1", 8 * 1024, 4, 2, 2};
    cfg.llc = mem::CacheParams{"llc", 64 * 1024, 8, 26, 32};
    cfg.dram = mem::DramParams{300, 1, 1};
    return cfg;
}

SocConfig
SocConfig::simulated(unsigned cores)
{
    SocConfig cfg = fpga();
    cfg.name = "mosaic-like simulated system";
    cfg.num_cores = cores;
    cfg.dram_bytes = 1ull << 32;  // 4GB
    cfg.dram = mem::DramParams{300, 1, 2};  // ~68GB/s aggregate
    cfg.mesh_width = 0;  // auto mesh: see resolveGeometry
    cfg.mesh_height = 0;
    return cfg;
}

unsigned
llcSlicesFromEnv(unsigned fallback)
{
    const char *p = std::getenv("MAPLE_LLC_SLICES");
    if (!p || !*p)
        return fallback;
    char *end = nullptr;
    errno = 0;
    unsigned long v = std::strtoul(p, &end, 10);
    if (!end || *end != '\0' || errno == ERANGE || v < 1 || v > 1024) {
        MAPLE_WARN("ignoring bad MAPLE_LLC_SLICES '%s'", p);
        return fallback;
    }
    return static_cast<unsigned>(v);
}

void
resolveGeometry(SocConfig &cfg)
{
    // Coherence knobs resolve before mesh sizing: the slice count changes
    // how many tiles the memory system occupies. Without a protocol the
    // slice knob is forced to 1 so the historical single-home layout (and
    // every downstream byte) is untouched.
    cfg.coherence.mergeEnv();
    cfg.llc_slices = llcSlicesFromEnv(cfg.llc_slices);
    if (!cfg.coherence.enabled() || cfg.llc_slices < 1)
        cfg.llc_slices = 1;

    if (cfg.mesh_width == 0 || cfg.mesh_height == 0) {
        unsigned tiles_needed = cfg.num_cores + cfg.num_maples + cfg.llc_slices;
        unsigned w = 1;
        while (w * w < tiles_needed)
            ++w;
        cfg.mesh_width = w;
        cfg.mesh_height = (tiles_needed + w - 1) / w;
    }
}

Soc::Soc(SocConfig cfg) : cfg_(std::move(cfg))
{
    resolveGeometry(cfg_);
    unsigned tiles_needed =
        cfg_.num_cores + cfg_.num_maples + cfg_.llc_slices;
    MAPLE_CHECK(cfg_.mesh_width * cfg_.mesh_height >= tiles_needed,
                sim::ConfigError, "mesh too small: %ux%u for %u tiles",
                cfg_.mesh_width, cfg_.mesh_height, tiles_needed);
    cfg_.mesh.width = cfg_.mesh_width;
    cfg_.mesh.height = cfg_.mesh_height;

    // Environment knobs (MAPLE_TRACE=..., MAPLE_FAULT_*=...) turn tracing
    // and fault injection on for any binary that assembles a Soc, without
    // per-binary flag plumbing.
    cfg_.trace.mergeEnv();
    if (cfg_.trace.enabled)
        tracer_ = std::make_unique<trace::TraceManager>(eq_, cfg_.trace);
    cfg_.fault.mergeEnv();
    cfg_.watchdog.mergeEnv();
    cfg_.host_threads = hostThreadsFromEnv(cfg_.host_threads);
    fault_ = std::make_unique<fault::FaultInjector>(eq_, cfg_.fault);
    cfg_.resil.mergeEnv();
    if (cfg_.resil.enabled())
        resil_ = std::make_unique<mem::ResilManager>(
            eq_, cfg_.resil, cfg_.mesh_width * cfg_.mesh_height);

    // Fabric arbitration knobs (MAPLE_LLC_ARB / MAPLE_DRAM_ARB, or the
    // --llc-arb / --dram-arb harness flags): fifo keeps the historical
    // pass-through front-ends.
    cfg_.llc_arb = mem::arbPolicyFromEnv("MAPLE_LLC_ARB", cfg_.llc_arb);
    cfg_.dram.arb = mem::arbPolicyFromEnv("MAPLE_DRAM_ARB", cfg_.dram.arb);

    // Pre-size the plumbing containers so wiring never reallocates while
    // components hand out raw pointers to earlier entries.
    ports_.reserve(2 * cfg_.num_cores + 3 * cfg_.num_maples + 4);
    l1s_.reserve(cfg_.num_cores);
    cores_.reserve(cfg_.num_cores);
    maples_.reserve(cfg_.num_maples);

    pm_ = std::make_unique<mem::PhysicalMemory>(cfg_.dram_bytes);
    kernel_ = std::make_unique<os::Kernel>(eq_, *pm_, cfg_.kernel);
    mesh_ = std::make_unique<noc::Mesh>(eq_, cfg_.mesh);
    dram_ = std::make_unique<mem::Dram>(eq_, cfg_.dram);
    mem::CacheParams llcp = cfg_.llc;
    llcp.tile = memTile();  // LLC prefetch fills originate at the memory tile
    llc_ = std::make_unique<mem::Cache>(eq_, llcp, *dram_);
    llc_front_ = std::make_unique<mem::PortInterposer>(eq_, "llc_front", *llc_,
                                                       cfg_.llc_arb);

    // Coherence fabric: one home directory per LLC slice. Slice 0 reuses
    // the historical shared LLC; extra slices are additional Caches with
    // the same geometry, homed on their own tiles, backed by the same DRAM.
    if (cfg_.coherence.enabled()) {
        coh_ = std::make_unique<mem::CoherenceFabric>(eq_, cfg_.coherence,
                                                      *mesh_);
        coh_->addSlice(sliceTile(0), *llc_);
        for (unsigned s = 1; s < cfg_.llc_slices; ++s) {
            mem::CacheParams sp = cfg_.llc;
            sp.name = "llc." + std::to_string(s);
            sp.tile = sliceTile(s);
            slice_llcs_.push_back(std::make_unique<mem::Cache>(eq_, sp, *dram_));
            coh_->addSlice(sliceTile(s), *slice_llcs_.back());
        }
        coh_dma_ = std::make_unique<mem::CoherentDmaPort>(*coh_);
    }

    // Cores and their private plumbing.
    for (unsigned i = 0; i < cfg_.num_cores; ++i) {
        sim::TileId tile = coreTile(i);
        noc::RemotePort &demand =
            makePort(tile, PortUse::CoreDemand, *llc_front_);
        mem::CacheParams l1p = cfg_.l1;
        l1p.name = "l1." + std::to_string(i);
        l1p.tile = tile;
        l1s_.push_back(std::make_unique<mem::Cache>(eq_, l1p, demand));
        // Under msi the L1's misses route through the fabric instead of the
        // demand port, and RMW/shared traffic goes through the protocol-
        // correct DMA port rather than an uncached LLC round trip.
        mem::Port *atomic_port;
        if (coh_) {
            l1s_.back()->attachCoherence(*coh_);
            atomic_port = coh_dma_.get();
        } else {
            atomic_port = &makePort(tile, PortUse::CoreAtomic, *llc_front_);
        }

        cpu::CoreParams cp = cfg_.core_proto;
        cp.name = "core." + std::to_string(i);
        cp.tile = tile;
        cp.thread = i;
        cp.coherent_shared = coh_ != nullptr;
        cpu::CoreWiring wiring;
        wiring.pm = pm_.get();
        wiring.l1 = l1s_.back().get();
        wiring.l1_cache = l1s_.back().get();
        wiring.walk_port = l1s_.back().get();  // PTW walks through the L1
        wiring.atomic_port = atomic_port;
        wiring.amap = &amap_;
        wiring.mesh = mesh_.get();
        cores_.push_back(std::make_unique<cpu::Core>(eq_, cp, wiring));
    }

    // MAPLE tiles: MMIO pages live just above DRAM in the physical map.
    for (unsigned i = 0; i < cfg_.num_maples; ++i) {
        sim::TileId tile = mapleTile(i);
        ::maple::core::MapleParams mp = cfg_.maple_proto;
        mp.name = "maple." + std::to_string(i);
        mp.tile = tile;
        mp.mmio_base = cfg_.dram_bytes + sim::Addr(i) * mem::kPageSize;
        ::maple::core::MapleWiring wiring;
        wiring.pm = pm_.get();
        if (coh_) {
            // MAPLE's streams become coherent DMA: every fetched or written
            // line passes through its home directory, which invalidates or
            // downgrades private copies first. Speculative prefetches ride
            // the same path (llc_cache stays null), warming the home slice
            // without installing stale private copies anywhere.
            wiring.dram_port = coh_dma_.get();
            wiring.llc_port = coh_dma_.get();
            wiring.llc_cache = nullptr;
            // Page-table walks take the same coherent path: page-table
            // lines are homed and cached on their own slice, and a walk
            // read downgrades an M owner (a core updating a PTE through
            // its L1) instead of reading around it.
            wiring.walk_port = coh_dma_.get();
            mp.coherent = true;
        } else {
            wiring.dram_port = &makePort(tile, PortUse::MapleDram, *dram_);
            wiring.llc_port = &makePort(tile, PortUse::MapleLlc, *llc_front_);
            wiring.llc_cache = llc_.get();
            wiring.walk_port = &makePort(tile, PortUse::MapleWalk, *llc_front_);
        }
        maples_.push_back(
            std::make_unique<::maple::core::Maple>(eq_, mp, wiring));
        amap_.addDevice(mp.mmio_base, mem::kPageSize, maples_.back().get(), tile);
    }

    // Soft-error resilience: attach the ECC/poison model to every protected
    // structure, install the OS containment handler and (in msi mode) point
    // the background scrub engine at the directory slices. The per-tile MCA
    // banks appear as an MMIO page right above the MAPLE device pages.
    if (resil_) {
        dram_->setResil(resil_.get());
        llc_->setResil(resil_.get(), /*l1_role=*/false);
        for (auto &s : slice_llcs_)
            s->setResil(resil_.get(), /*l1_role=*/false);
        for (auto &l1 : l1s_)
            l1->setResil(resil_.get(), /*l1_role=*/true);
        if (coh_) {
            coh_->setResil(resil_.get());
            coh_dma_->setResil(resil_.get());
            resil_->setScrubAuditor([f = coh_.get()](std::uint64_t &cursor,
                                                     unsigned budget) {
                const std::uint64_t per = f->slice(0).entrySlots();
                const std::uint64_t total = per * f->numSlices();
                unsigned repaired = 0;
                for (unsigned n = 0; n < budget; ++n) {
                    std::uint64_t slot = cursor % total;
                    cursor = (cursor + 1) % total;
                    repaired += f->slice(static_cast<unsigned>(slot / per))
                                    .scrubAudit(slot % per);
                }
                return repaired;
            });
        }
        os::PageRetireHooks hooks;
        hooks.flush_line = [this](sim::Addr line) -> sim::Task<void> {
            if (coh_) {
                unsigned s = coh_->homeSlice(line);
                co_await coh_->slice(s).recallLine(line);
                llcSlice(s).resilDropLine(line);
            } else {
                for (auto &l1 : l1s_)
                    l1->resilDropLine(line);
                llc_->resilDropLine(line);
            }
            co_return;
        };
        retirer_ = std::make_unique<os::PageRetirer>(*kernel_, *resil_,
                                                     std::move(hooks));
        resil_->setContainHandler(
            [r = retirer_.get()](sim::Addr line, sim::TileId tile,
                                 fault::FaultClass cause) {
                return r->contain(line, tile, cause);
            });
        mca_mmio_ = std::make_unique<McaMmio>(mcaMmioBase(), *resil_);
        sim::Addr window =
            (sim::Addr(resil_->numTiles()) * McaMmio::kBankStride +
             mem::kPageMask) &
            ~sim::Addr(mem::kPageMask);
        amap_.addDevice(mcaMmioBase(), window, mca_mmio_.get(), memTile());
    }

    if (tracer_)
        registerProbes();
    registerDiagnostics();
}

void
Soc::registerProbes()
{
    tracer_->addProbe("llc.mshrs",
                      [c = llc_.get()] { return double(c->mshrsInUse()); });
    for (unsigned i = 0; i < numCores(); ++i) {
        tracer_->addProbe(cfg_.l1.name + "." + std::to_string(i) + ".mshrs",
                          [c = l1s_[i].get()] { return double(c->mshrsInUse()); });
    }
    tracer_->addProbe("noc.flits",
                      [m = mesh_.get()] { return double(m->flitsSent()); });
    if (coh_) {
        for (unsigned s = 0; s < coh_->numSlices(); ++s) {
            mem::Directory *d = &coh_->slice(s);
            std::string base = "dir." + std::to_string(s);
            tracer_->addProbe(base + ".entries",
                              [d] { return double(d->entriesInUse()); });
            tracer_->addProbe(base + ".busy",
                              [d] { return double(d->busyLines()); });
        }
    }
    for (unsigned i = 0; i < numMaples(); ++i) {
        ::maple::core::Maple *m = maples_[i].get();
        std::string base = "maple." + std::to_string(i);
        tracer_->addProbe(base + ".produce_buffer",
                          [m] { return double(m->produceInflight()); });
        for (unsigned q = 0; q < m->params().max_queues; ++q) {
            tracer_->addProbe(base + ".q" + std::to_string(q) + ".occupancy",
                              [m, q] { return double(m->queue(q).occupancy()); });
        }
    }
}

void
Soc::registerDiagnostics()
{
    // Component-state dumps for the deadlock diagnostic: enough to see at a
    // glance which structural resource a parked waiter is starved of.
    fault_->addDiagnostic("llc", [c = llc_.get()] {
        return sim::detail::formatString("%zu MSHRs in flight", c->mshrsInUse());
    });
    for (unsigned i = 0; i < numCores(); ++i) {
        fault_->addDiagnostic("l1." + std::to_string(i), [c = l1s_[i].get()] {
            return sim::detail::formatString("%zu MSHRs in flight",
                                             c->mshrsInUse());
        });
    }
    if (coh_) {
        for (unsigned s = 0; s < coh_->numSlices(); ++s) {
            mem::Directory *d = &coh_->slice(s);
            fault_->addDiagnostic("dir." + std::to_string(s), [d] {
                return sim::detail::formatString(
                    "%u tracked lines, %zu busy", d->entriesInUse(),
                    d->busyLines());
            });
        }
    }
    for (unsigned i = 0; i < numMaples(); ++i) {
        ::maple::core::Maple *m = maples_[i].get();
        fault_->addDiagnostic("maple." + std::to_string(i), [m] {
            std::string s = sim::detail::formatString(
                "%u pointer-produces in flight", m->produceInflight());
            for (unsigned q = 0; q < m->params().max_queues; ++q) {
                if (!m->queue(q).configured())
                    continue;
                s += sim::detail::formatString(
                    "; q%u %u/%u (status %u)", q, m->queue(q).occupancy(),
                    m->queue(q).capacity(),
                    static_cast<unsigned>(m->queueStatus(q)));
            }
            return s;
        });
    }
    if (resil_) {
        fault_->addDiagnostic("resil",
                              [r = resil_.get()] { return r->summary(); });
    }
}

Soc::~Soc()
{
    // Flush trace files while every probed component is still alive.
    if (tracer_)
        tracer_->write();
}

noc::RemotePort &
Soc::makePort(sim::TileId tile, PortUse use, mem::Port &target)
{
    ports_.push_back(PortEntry{
        tile, use,
        std::make_unique<noc::RemotePort>(*mesh_, tile, memTile(), target)});
    return *ports_.back().port;
}

noc::RemotePort *
Soc::findPort(sim::TileId tile, PortUse use)
{
    for (PortEntry &e : ports_) {
        if (e.tile == tile && e.use == use)
            return e.port.get();
    }
    return nullptr;
}

noc::RemotePort &
Soc::addLlcPort(sim::TileId tile)
{
    return makePort(tile, PortUse::Extra, *llc_front_);
}

os::Process &
Soc::createProcess(const std::string &name)
{
    os::Process &proc = kernel_->createProcess(name);
    for (auto &core : cores_)
        proc.attachMmu(&core->mmu());
    return proc;
}

sim::Cycle
Soc::run(std::vector<sim::Join> joins, sim::Cycle max_cycles)
{
    sim::Cycle start = eq_.now();
    // Restart the background scrub loop for this run phase (it parks itself
    // whenever the machine drains, so snapshots between phases stay legal).
    if (resil_)
        resil_->kickScrub();
    bool drained;
    if (cfg_.host_threads > 1) {
        // The sharded-engine path: the whole SoC is one event domain (its
        // mesh reserves links synchronously, so it cannot be cut without
        // changing timing — see DESIGN.md §12), driven through the same
        // chunked-run + stall-check protocol as the Watchdog. Event order
        // and timing are identical to the legacy path; only the cycle at
        // which a livelock is *diagnosed* can differ by up to one quantum,
        // because the engine's windows start at the next pending event
        // rather than at now().
        sim::ShardedEngine engine;
        engine.addDomain(eq_, cfg_.name);
        if (cfg_.watchdog.enabled) {
            engine.setBoundaryHook([this](sim::Cycle) {
                fault::Watchdog::checkStall(eq_, cfg_.watchdog);
            });
        }
        sim::ShardedEngine::RunOptions ro;
        ro.threads = cfg_.host_threads;
        ro.max_cycles = max_cycles;
        if (cfg_.watchdog.enabled)
            ro.quantum = cfg_.watchdog.check_interval;
        drained = engine.run(ro);
    } else {
        fault::Watchdog wd(eq_, cfg_.watchdog);
        drained = wd.run(max_cycles);
    }
    for (const sim::Join &j : joins) {
        if (j.done())
            j.get();  // rethrows workload exceptions
    }
    if (!drained) {
        fault::Watchdog::failDeadlock(
            eq_, sim::detail::formatString(
                     "simulation did not quiesce within %llu cycles",
                     (unsigned long long)(max_cycles - start)));
    }
    for (const sim::Join &j : joins) {
        if (!j.done()) {
            fault::Watchdog::failDeadlock(
                eq_, "event queue drained but a task never finished "
                     "(deadlock in simulated software?)");
        }
    }
    return eq_.now() - start;
}

}  // namespace maple::soc
