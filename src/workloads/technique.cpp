#include "workloads/technique.hpp"

namespace maple::app {

namespace {

bool
isDecoupling(Technique t)
{
    return t == Technique::MapleDecouple || t == Technique::SwDecouple ||
           t == Technique::Desc;
}

bool
isSingleThread(Technique t)
{
    return t == Technique::NoPrefetch || t == Technique::SwPrefetch ||
           t == Technique::LimaPrefetch;
}

soc::SocConfig
withCores(soc::SocConfig cfg, unsigned threads)
{
    cfg.num_cores = std::max(cfg.num_cores, threads);
    return cfg;
}

sim::Task<void>
openQueues(core::MapleApi &api, cpu::Core &core, unsigned queues, unsigned entries)
{
    co_await api.init(core, queues, entries, 4);
    for (unsigned q = 0; q < queues; ++q) {
        bool ok = co_await api.open(core, q);
        MAPLE_ASSERT(ok, "failed to open MAPLE queue %u", q);
    }
}

}  // namespace

TechniqueRun::TechniqueRun(const std::string &workload, const RunConfig &cfg,
                           bool decouples)
    : cfg_(cfg),
      tech_(!decouples && isDecoupling(cfg.tech) ? Technique::Doall : cfg.tech),
      threads_(isSingleThread(tech_) ? 1 : cfg.threads),
      pairs_(isDecoupling(tech_) ? std::max(1u, threads_ / 2) : 0),
      soc_(withCores(cfg.soc, threads_)),
      proc_(soc_.createProcess(workload))
{
    res_.workload = workload;
    res_.technique = techniqueName(cfg.tech);
    res_.fell_back_to_doall = tech_ != cfg.tech;
}

void
TechniqueRun::setup(unsigned lima_queues, const DropletBinding &droplet)
{
    switch (tech_) {
      case Technique::MapleDecouple:
      case Technique::LimaPrefetch: {
        api_.emplace(core::MapleApi::attach(proc_, soc_.maple()));
        unsigned queues = tech_ == Technique::LimaPrefetch ? lima_queues : pairs_;
        if (queues > 0)
            soc_.run({sim::spawn(openQueues(*api_, soc_.core(0), queues,
                                            cfg_.queue_entries))},
                     cfg_.max_cycles);
        break;
      }
      case Technique::SwDecouple:
        for (unsigned p = 0; p < pairs_; ++p)
            swqs_.push_back(std::make_unique<baselines::SwQueue>(proc_, 1024));
        break;
      case Technique::Desc:
        for (unsigned p = 0; p < pairs_; ++p)
            descs_.push_back(std::unique_ptr<DescPair>(new DescPair{baselines::DescQueue(
                soc_.eq(), soc_.physMem(), soc_.addLlcPort(soc_.coreTile(2 * p)))}));
        break;
      case Technique::Droplet:
        droplet_.emplace(soc_);
        droplet_->bind(proc_, droplet.index_base, droplet.index_elems, 4,
                       droplet.data_base, 4);
        break;
      default:
        break;
    }
}

void
TechniqueRun::measure()
{
    res_.cycles = soc_.run(std::move(joins_), cfg_.max_cycles);
    collectCoreStats(soc_, res_);
}

}  // namespace maple::app
