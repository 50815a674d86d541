/**
 * @file
 * The Memory Access Parallel-Load Engine (MAPLE) device model.
 *
 * MAPLE sits on its own NoC tile and is driven purely through MMIO loads and
 * stores (no ISA changes, no core modifications). Mirroring Figure 6 of the
 * paper, the device has three independent pipelines plus a queue controller:
 *
 *  - Configuration pipeline: queue creation/binding, LIMA configuration,
 *    debug and performance-counter reads. Non-blocking.
 *  - Produce pipeline: data-produce and pointer-produce stores. A pointer
 *    produce reserves a queue slot in program order, translates the pointer
 *    in MAPLE's own MMU, issues the memory request with the slot index as
 *    transaction ID, and acknowledges the store -- the DRAM response fills
 *    the slot later, re-ordered by the transaction ID.
 *  - Consume pipeline: loads that pop queue entries; an empty queue parks
 *    the request (no polling) until data arrives.
 *
 * Separate pipelines avoid deadlock: produces blocked on a full queue never
 * impede consumes, which are what eventually free space. An ablation knob
 * (shared_pipeline_hazard) deliberately reintroduces the hazard so the tests
 * can demonstrate the deadlock the design avoids.
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "core/maple_isa.hpp"
#include "core/maple_queue.hpp"
#include "fault/fault.hpp"
#include "mem/cache.hpp"
#include "mem/mmu.hpp"
#include "mem/physical_memory.hpp"
#include "mem/port.hpp"
#include "sim/coro.hpp"
#include "sim/stats.hpp"
#include "soc/address_map.hpp"
#include "trace/trace.hpp"

namespace maple::core {

struct MapleParams {
    std::string name = "maple";
    sim::TileId tile = 0;
    sim::Addr mmio_base = 0;          ///< physical base of the device page
    unsigned scratchpad_bytes = 1024; ///< shared by all queues (Table 2: 1KB)
    unsigned max_queues = 8;
    unsigned produce_buffer = 16;     ///< buffered produce ops (backpressure)
    unsigned lima_cmds = 16;          ///< depth of the LIMA command FIFO
    sim::Cycle pipe_latency = 3;      ///< decode + pipeline traversal
    size_t tlb_entries = 16;
    bool fetch_via_llc = false;       ///< pointer fetches via LLC vs DRAM
    /**
     * Set by the Soc when a real coherence protocol runs (--coherence=msi):
     * dram_port/llc_port are then a CoherentDmaPort (every stream access is
     * ordered by the line's home directory) and speculative prefetches are
     * issued as Prefetch-class protocol requests instead of direct LLC-array
     * inserts (llc_cache is null in that mode).
     */
    bool coherent = false;
    bool shared_pipeline_hazard = false;  ///< ablation: single shared pipeline
};

/** Memory-side connections of a MAPLE instance. */
struct MapleWiring {
    mem::PhysicalMemory *pm = nullptr;
    mem::Port *dram_port = nullptr;  ///< non-coherent direct-to-DRAM path
    mem::Port *llc_port = nullptr;   ///< coherent path through the LLC
    mem::Cache *llc_cache = nullptr; ///< for speculative LLC prefetches
    mem::Port *walk_port = nullptr;  ///< page-table-walker port
};

class Maple : public soc::MmioDevice {
  public:
    Maple(sim::EventQueue &eq, MapleParams params, MapleWiring wiring);

    /// @name soc::MmioDevice
    /// @{
    sim::Task<std::uint64_t> mmioLoad(sim::Addr paddr, unsigned size,
                                      sim::ThreadId thread) override;
    sim::Task<void> mmioStore(sim::Addr paddr, std::uint64_t data, unsigned size,
                              sim::ThreadId thread) override;
    /// @}

    mem::Mmu &mmu() { return mmu_; }
    sim::EventQueue &eq() { return eq_; }

    /**
     * Install the OS driver's fault handler; MAPLE additionally latches the
     * faulting virtual address into the FaultVaddr debug register first, the
     * way the real driver reads it back through the configuration pipeline.
     */
    void setDriverFaultHandler(mem::Mmu::FaultHandler handler);

    MapleQueue &queue(unsigned idx);
    const MapleParams &params() const { return params_; }

    /** Pointer-produces currently between decode and issue (telemetry). */
    unsigned produceInflight() const { return produce_inflight_; }

    /** Status of the last produce/consume-class op on queue @p idx. */
    MapleStatus queueStatus(unsigned idx) const
    {
        return static_cast<MapleStatus>(queue_status_.at(idx));
    }

    /**
     * Architectural error state latched per queue on the first hard fault
     * that hits it. Later hard faults on the same queue only bump the count;
     * the first cause/address stick until StoreOp::DeviceReset on that queue
     * clears the latch. Per-queue so resetting one queue cannot clear the
     * latched fault of another (the driver's escalation check depends on it).
     */
    struct ErrorState {
        bool valid = false;
        fault::FaultClass cause = fault::FaultClass::kCount;
        sim::Addr addr = 0;
        unsigned count = 0;          ///< hard faults since the last reset
        sim::Cycle latched_at = 0;   ///< cycle of the first latched fault
    };

    const ErrorState &errorState(unsigned q) const { return err_.at(q); }
    bool errorLatched(unsigned q) const { return err_.at(q).valid; }
    bool quiesced(unsigned q) const { return quiesced_.at(q) != 0; }

    /**
     * Notification hook invoked on every hard-fault latch — the simulation
     * analogue of the device's error interrupt line. The OS-layer recovery
     * driver uses it to learn of errors it has not yet observed through a
     * poisoned consume.
     */
    using ErrorCallback = std::function<void()>;
    void setErrorCallback(ErrorCallback cb) { error_cb_ = std::move(cb); }

    /** Accepted produce-class ops on queue @p idx (survives DeviceReset). */
    std::uint64_t acceptCount(unsigned idx) const
    {
        return accept_count_.at(idx);
    }

    std::uint64_t counter(Counter c) const
    {
        return counters_[static_cast<size_t>(c)].value();
    }
    sim::StatGroup &stats() { return stats_; }

    /**
     * Snapshot support (src/ckpt). Only valid at a quiesced point: no
     * produce in flight, no op parked at the MMIO boundary, no queued LIMA
     * commands. The error callback and driver fault handler are host-side
     * and re-installed by the attach path after restore.
     */
    void saveState(ckpt::Sink &out) const;
    void loadState(ckpt::Source &in);

  private:
    struct LimaCmd {
        sim::Addr a_base, b_base;
        std::uint32_t start, end;
        LimaControl ctrl;
    };

    /// @name Pipeline front-ends
    /// @{
    sim::Task<void> produceData(unsigned q, std::uint64_t data);
    sim::Task<void> producePtr(unsigned q, sim::Addr vaddr);
    sim::Task<std::uint64_t> consume(unsigned q, bool pair);
    sim::Task<std::uint64_t> consumePoll(unsigned q);
    sim::Task<void> configStore(unsigned q, StoreOp op, std::uint64_t data);
    sim::Task<std::uint64_t> configLoad(unsigned q, LoadOp op, unsigned raw_op);
    /// @}

    /** Reserve + translate + issue fetch for one pointer (produce & LIMA). */
    sim::Task<void> pointerProduceInner(unsigned q, sim::Addr vaddr);

    /** Extension: remote fetch-and-add; old value fills the queue slot. */
    sim::Task<void> produceAmoAdd(unsigned q, sim::Addr vaddr);
    sim::Task<void> amoIntoSlot(unsigned q, unsigned generation, unsigned slot,
                                sim::Addr paddr, std::uint64_t old_value,
                                unsigned bytes);

    /**
     * Take a produce-buffer entry (waiting while all are in use), and
     * give it back.
     */
    sim::Task<void> admitProduce(unsigned q);
    void releaseProduce(unsigned q);

    /**
     * Reserve queue @p q's tail slot, in arrival order among produces to
     * @p q, waiting while the queue is full and counting full-stall cycles.
     * Honors the queue's timeout register: returns no slot when the wait hit
     * the bound (the produce is dropped, status = TimedOut) or a
     * DeviceReset aborted it (status = Aborted).
     */
    sim::Task<std::optional<unsigned>> reserveSlotInOrder(unsigned q);

    /** Background fill of a reserved slot from memory. */
    sim::Task<void> fetchIntoSlot(unsigned q, unsigned generation, unsigned slot,
                                  sim::Addr paddr, unsigned bytes);

    /** Speculative prefetch of one pointer into the LLC. */
    sim::Task<void> speculativePrefetch(sim::Addr vaddr);

    /** Drains the LIMA command FIFO; at most one instance runs. */
    sim::Task<void> limaWorker();
    sim::Task<void> limaOne(const LimaCmd &cmd);

    /** Occupy a pipeline issue slot (II=1) then traverse it. */
    sim::Task<void> pipeEnter(sim::Cycle &next_free);

    /**
     * Latch a hard fault into queue @p q's architectural error registers
     * (first cause/addr win, count always bumps) and fire the error callback.
     */
    void latchError(unsigned q, fault::FaultClass cause, sim::Addr addr);

    /** StoreOp::DeviceReset backend: see the ISA comment for semantics. */
    void deviceReset(unsigned q);

    /** Injected delayed-MMIO-response fault (no-op when faults are off). */
    sim::Task<void> mmioDelay();

    /// @name Shared-pipeline ablation: a parked op occupies the pipe head,
    /// blocking every op behind it (the head-of-line hazard the real design
    /// avoids with separate pipelines).
    /// @{
    sim::Task<void> acquirePipeHead();
    void releasePipeHead();
    /// @}

    void applyQueueConfig(std::uint64_t payload);
    void bumpCounter(Counter c, std::uint64_t n = 1)
    {
        counters_[static_cast<size_t>(c)].inc(n);
    }

    /**
     * Active tracer or nullptr; lazily creates the per-pipeline lane groups
     * on first use so construction order doesn't matter.
     */
    trace::TraceManager *tracer();

    sim::EventQueue &eq_;
    MapleParams params_;
    MapleWiring w_;
    mem::Mmu mmu_;
    sim::StatGroup stats_;

    std::vector<MapleQueue> queues_;
    std::vector<unsigned> queue_generation_;
    // Bumped only by DeviceReset: parked produce/consume waits re-check it
    // and unwind with MapleStatus::Aborted. Deliberately separate from
    // queue_generation_ (which a plain reconfigure also bumps): a consume
    // parked against the power-on default config must survive the
    // application's INIT, exactly as it did before recovery existed.
    std::vector<unsigned> queue_abort_epoch_;

    // Non-blocking / timed-op state (LoadOp::QueueStatus semantics): the
    // outcome of the last produce/consume-class op per queue, plus the
    // latched per-queue wait bound (0 = block forever). The direction-split
    // copies back LoadOp::ProduceStatus/ConsumeStatus so a producer and a
    // consumer core sharing a queue can't clobber each other's status.
    std::vector<std::uint8_t> queue_status_;
    std::vector<std::uint8_t> produce_status_;
    std::vector<std::uint8_t> consume_status_;
    std::vector<sim::Cycle> queue_timeout_;

    // Architectural error reporting + recovery control (see maple_isa.hpp).
    // Both are per queue: a recovery quiesces/resets only its own queue, so
    // concurrent recoveries on different queues cannot void each other's
    // quiesce window or clear each other's latched fault.
    std::vector<ErrorState> err_;
    std::vector<std::uint8_t> quiesced_;
    std::vector<std::uint64_t> accept_count_;
    ErrorCallback error_cb_;

    // Pipeline issue chains (next-free-cycle reservations).
    sim::Cycle produce_free_ = 0;
    sim::Cycle consume_free_ = 0;
    sim::Cycle config_free_ = 0;

    // Injected-MMIO-delay ordering point: no op may enter its pipeline
    // before this cycle. Keeps the device boundary FIFO so a delayed op
    // holds back later arrivals instead of letting them overtake it.
    // mmio_pending_ counts ops parked at the boundary so a same-cycle
    // arrival queues behind their wake events instead of barging past.
    sim::Cycle mmio_release_ = 0;
    unsigned mmio_pending_ = 0;

    // Produce buffer backpressure. The buffer (and its global count) is
    // shared by all queues; the per-queue counts feed ErrStatus so a
    // recovery drains only its own queue's in-flight produces instead of
    // waiting on traffic to queues it did not quiesce.
    unsigned produce_inflight_ = 0;
    std::vector<unsigned> produce_inflight_q_;
    sim::Signal produce_buffer_wait_;

    // In-order slot reservation, per queue: the next ticket to hand out, the
    // ticket whose turn it is, and how many produces are parked on the
    // queue's space signal. Not serialized: ticket == turn and nothing is
    // parked at every quiesced snapshot point.
    std::vector<std::uint64_t> reserve_ticket_;
    std::vector<std::uint64_t> reserve_turn_;
    std::vector<unsigned> reserve_parked_;

    // Shared-pipeline ablation state.
    bool pipe_head_held_ = false;
    sim::Signal pipe_head_wait_;

    // AMO extension state: one addend register per queue, plus a commit
    // sequencer so RMWs linearize in program order even when translations
    // complete out of order.
    std::vector<std::uint64_t> amo_addend_;
    std::vector<std::uint64_t> amo_seq_alloc_;
    std::vector<std::uint64_t> amo_seq_commit_;
    sim::Signal amo_commit_wait_;

    // LIMA state.
    sim::Addr lima_a_base_ = 0;
    sim::Addr lima_b_base_ = 0;
    std::uint64_t lima_range_ = 0;
    std::deque<LimaCmd> lima_cmds_;
    sim::Signal lima_space_wait_;
    bool lima_running_ = false;

    sim::Addr last_fault_vaddr_ = 0;
    std::array<sim::Counter, static_cast<size_t>(Counter::kCount)> counters_;

    // Tracing lane groups, one per pipeline (Figure 6); kNone until a tracer
    // is seen.
    trace::TraceManager::LaneGroupId tr_produce_ = trace::TraceManager::kNone;
    trace::TraceManager::LaneGroupId tr_consume_ = trace::TraceManager::kNone;
    trace::TraceManager::LaneGroupId tr_config_ = trace::TraceManager::kNone;
};

}  // namespace maple::core
