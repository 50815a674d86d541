/**
 * @file
 * How every latency-tolerance technique is lowered onto a SoC, written once
 * for all workloads.
 *
 * A workload supplies a Kernels type: its host dataset and golden result
 * (Kernels::Host), a constructor that uploads the dataset into the simulated
 * process, its per-role kernel bodies, its DROPLET (index, data) binding and
 * its golden check. TechniqueRun and runTechnique() own everything else: the
 * thread rule, SoC sizing, MAPLE queue setup, software and DeSC queues, the
 * DROPLET prefetcher, the access/execute pair layout, the measured run and
 * the core statistics.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/desc.hpp"
#include "baselines/droplet.hpp"
#include "baselines/sw_queue.hpp"
#include "workloads/workload.hpp"

namespace maple::app {

/** Worker @p index of @p count splitting one iteration space. */
struct Slice {
    unsigned index = 0;
    unsigned count = 1;

    Chunk of(std::uint64_t total) const { return chunkOf(total, index, count); }
};

/**
 * The queue between an access and an execute worker under MAPLE decoupling:
 * the access side produces pointers and MAPLE fetches what they point to.
 */
struct MapleChannel {
    static constexpr bool kHardwareFetch = true;
    core::MapleApi &api;
    unsigned q;

    sim::Task<std::uint64_t> consume(cpu::Core &core) const { return api.consume(core, q); }
};

/**
 * The same queue under software decoupling: a shared-memory ring, so the
 * access side must load each value itself before producing it.
 */
struct SwChannel {
    static constexpr bool kHardwareFetch = false;
    baselines::SwQueue &swq;

    sim::Task<std::uint64_t> consume(cpu::Core &core) const { return swq.consume(core); }
};

/** One DeSC supply/compute pair: its queue and what compute tells supply. */
struct DescPair {
    baselines::DescQueue queue;
    std::uint64_t phases_done = 0;  ///< compute phases finished (rows: 1, BFS: levels)
    std::uint64_t items_done = 0;   ///< items compute retired this phase (BFS edges)
};

/** The 4-byte (index, data) arrays a DROPLET prefetcher chases. */
struct DropletBinding {
    sim::Addr index_base;
    std::size_t index_elems;
    sim::Addr data_base;
};

/** Defaults of the properties a workload's Kernels may override. */
struct KernelTraits {
    /// False when the kernel cannot be split into access and execute
    /// (SPMM's read-modify-writes): the decoupling techniques run doall.
    static constexpr bool kDecouples = true;
    /// MAPLE queues LIMA targets; 0 when it only prefetches into the LLC.
    static constexpr unsigned kLimaQueues = 1;
};

/**
 * The SoC, process and technique plumbing of one Workload::run. The
 * constructor applies the thread rule and builds the SoC; setup() runs after
 * the workload's dataset upload and before the measured region; measure()
 * runs the spawned workers to completion and collects the core statistics.
 */
class TechniqueRun {
  public:
    TechniqueRun(const std::string &workload, const RunConfig &cfg, bool decouples);

    Technique tech() const { return tech_; }
    unsigned threads() const { return threads_; }
    unsigned pairs() const { return pairs_; }
    /** Software threads that run: both halves of every pair, or threads(). */
    unsigned workers() const { return pairs_ ? 2 * pairs_ : threads_; }

    os::Process &proc() { return proc_; }
    sim::EventQueue &eq() { return soc_.eq(); }
    cpu::Core &core(unsigned i) { return soc_.core(i); }
    core::MapleApi &api() { return *api_; }
    baselines::SwQueue &swq(unsigned p) { return *swqs_[p]; }
    DescPair &desc(unsigned p) { return *descs_[p]; }

    void setup(unsigned lima_queues, const DropletBinding &droplet);
    void spawn(sim::Task<void> task) { joins_.push_back(sim::spawn(std::move(task))); }
    void measure();

    RunResult &result() { return res_; }

  private:
    const RunConfig &cfg_;
    RunResult res_;
    Technique tech_;
    unsigned threads_;
    unsigned pairs_;
    soc::Soc soc_;
    os::Process &proc_;
    std::optional<core::MapleApi> api_;
    std::optional<baselines::DropletPrefetcher> droplet_;
    std::vector<std::unique_ptr<baselines::SwQueue>> swqs_;
    std::vector<std::unique_ptr<DescPair>> descs_;
    std::vector<sim::Join> joins_;
};

/**
 * Run @p host's workload under cfg.tech. Doall, no-prefetch and DROPLET run
 * Kernels::doall on every thread; software prefetch and LIMA run one thread;
 * the decoupling techniques run pair p's access (or DeSC supply) worker on
 * core 2p and its execute (or compute) worker on core 2p+1.
 */
template <typename Kernels>
RunResult
runTechnique(const std::string &name, const typename Kernels::Host &host,
             const RunConfig &cfg)
{
    TechniqueRun run(name, cfg, Kernels::kDecouples);
    Kernels k(run.proc(), host, run.workers());
    run.setup(Kernels::kLimaQueues, k.droplet());

    switch (run.tech()) {
      case Technique::Doall:
      case Technique::NoPrefetch:
      case Technique::Droplet:
        for (unsigned t = 0; t < run.threads(); ++t)
            run.spawn(k.doall(run.core(t), Slice{t, run.threads()}));
        break;
      case Technique::SwPrefetch:
        run.spawn(k.swPrefetch(run.core(0), cfg.prefetch_distance));
        break;
      case Technique::LimaPrefetch:
        run.spawn(k.lima(run.core(0), run.api(), cfg.prefetch_distance));
        break;
      case Technique::MapleDecouple:
      case Technique::SwDecouple:
      case Technique::Desc:
        if constexpr (Kernels::kDecouples) {
            for (unsigned p = 0; p < run.pairs(); ++p) {
                Slice pair{p, run.pairs()};
                cpu::Core &access = run.core(2 * p);
                cpu::Core &execute = run.core(2 * p + 1);
                if (run.tech() == Technique::MapleDecouple) {
                    MapleChannel ch{run.api(), p};
                    run.spawn(k.access(access, ch, pair));
                    run.spawn(k.execute(execute, ch, pair));
                } else if (run.tech() == Technique::SwDecouple) {
                    SwChannel ch{run.swq(p)};
                    run.spawn(k.access(access, ch, pair));
                    run.spawn(k.execute(execute, ch, pair));
                } else {
                    run.spawn(k.descSupply(run.eq(), access, run.desc(p), pair));
                    run.spawn(k.descCompute(execute, run.desc(p), pair));
                }
            }
        }
        break;
    }

    run.measure();
    k.check(run.result());
    return run.result();
}

/** A Workload whose run() is runTechnique over Kernels. */
template <typename Kernels>
class TechniqueWorkload final : public Workload {
  public:
    template <typename... Args>
    explicit TechniqueWorkload(std::string name, Args &&...args)
        : name_(std::move(name)), host_(std::forward<Args>(args)...)
    {
    }

    std::string name() const override { return name_; }

    RunResult
    run(const RunConfig &cfg) override
    {
        return runTechnique<Kernels>(name_, host_, cfg);
    }

  private:
    std::string name_;
    typename Kernels::Host host_;
};

}  // namespace maple::app
