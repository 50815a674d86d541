#include "core/maple.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "mem/resil.hpp"
#include "sim/error.hpp"
#include "sim/log.hpp"

namespace maple::core {

Maple::Maple(sim::EventQueue &eq, MapleParams params, MapleWiring wiring)
    : eq_(eq), params_(std::move(params)), w_(wiring),
      mmu_(eq, *wiring.pm, *wiring.walk_port, params_.tlb_entries,
           params_.tile),
      stats_(params_.name)
{
    MAPLE_ASSERT(w_.pm && w_.dram_port && w_.walk_port, "MAPLE wiring incomplete");
    MAPLE_ASSERT(params_.max_queues >= 1 && params_.max_queues <= kMaxQueuesPerPage,
                 "queue count must fit the MMIO encoding");
    queues_.resize(params_.max_queues);
    queue_generation_.assign(params_.max_queues, 0);
    queue_abort_epoch_.assign(params_.max_queues, 0);
    queue_status_.assign(params_.max_queues,
                         static_cast<std::uint8_t>(MapleStatus::Ok));
    produce_status_.assign(params_.max_queues,
                           static_cast<std::uint8_t>(MapleStatus::Ok));
    consume_status_.assign(params_.max_queues,
                           static_cast<std::uint8_t>(MapleStatus::Ok));
    queue_timeout_.assign(params_.max_queues, 0);
    accept_count_.assign(params_.max_queues, 0);
    err_.assign(params_.max_queues, ErrorState{});
    quiesced_.assign(params_.max_queues, 0);
    produce_inflight_q_.assign(params_.max_queues, 0);
    reserve_ticket_.assign(params_.max_queues, 0);
    reserve_turn_.assign(params_.max_queues, 0);
    reserve_parked_.assign(params_.max_queues, 0);
    amo_addend_.assign(params_.max_queues, 0);
    amo_seq_alloc_.assign(params_.max_queues, 0);
    amo_seq_commit_.assign(params_.max_queues, 0);
    // Power-on default: all queues share the scratchpad evenly, 4B entries.
    applyQueueConfig(packQueueConfig(
        params_.max_queues, params_.scratchpad_bytes / (params_.max_queues * 4), 4));
}

trace::TraceManager *
Maple::tracer()
{
    trace::TraceManager *t = trace::active(eq_);
    if (t && tr_produce_ == trace::TraceManager::kNone) {
        tr_produce_ = t->laneGroup(params_.name + ".produce");
        tr_consume_ = t->laneGroup(params_.name + ".consume");
        tr_config_ = t->laneGroup(params_.name + ".config");
    }
    return t;
}

MapleQueue &
Maple::queue(unsigned idx)
{
    MAPLE_ASSERT(idx < queues_.size(), "queue index out of range");
    return queues_[idx];
}

void
Maple::setDriverFaultHandler(mem::Mmu::FaultHandler handler)
{
    mmu_.setFaultHandler(
        [this, handler = std::move(handler)](sim::Addr vaddr, bool write) -> sim::Task<bool> {
            last_fault_vaddr_ = vaddr;
            bumpCounter(Counter::PageFaults);
            bool ok = co_await handler(vaddr, write);
            co_return ok;
        });
}

sim::Task<void>
Maple::pipeEnter(sim::Cycle &next_free)
{
    sim::Cycle start = std::max(eq_.now(), next_free);
    next_free = start + 1;  // initiation interval 1
    co_await sim::delay(eq_, (start + params_.pipe_latency) - eq_.now());
}

sim::Task<void>
Maple::acquirePipeHead()
{
    fault::ParkGuard park(eq_, "pipe_head", params_.name);
    while (pipe_head_held_) {
        co_await pipe_head_wait_;
    }
    pipe_head_held_ = true;
}

void
Maple::releasePipeHead()
{
    pipe_head_held_ = false;
    pipe_head_wait_.notifyAll();
}

void
Maple::applyQueueConfig(std::uint64_t payload)
{
    QueueConfigPayload cfg = unpackQueueConfig(payload);
    if (cfg.count == 0 || cfg.count > queues_.size()) {
        MAPLE_WARN("%s: bad queue count %u", params_.name.c_str(), cfg.count);
        return;
    }
    std::uint64_t bytes =
        std::uint64_t(cfg.count) * cfg.entries * cfg.entry_bytes;
    if (bytes > params_.scratchpad_bytes) {
        MAPLE_WARN("%s: queue config (%u x %u x %uB) exceeds the %uB scratchpad",
                   params_.name.c_str(), cfg.count, cfg.entries, cfg.entry_bytes,
                   params_.scratchpad_bytes);
        return;
    }
    for (unsigned i = 0; i < queues_.size(); ++i) {
        ++queue_generation_[i];
        queue_status_[i] = static_cast<std::uint8_t>(MapleStatus::Ok);
        produce_status_[i] = static_cast<std::uint8_t>(MapleStatus::Ok);
        consume_status_[i] = static_cast<std::uint8_t>(MapleStatus::Ok);
        queue_timeout_[i] = 0;
        accept_count_[i] = 0;
        if (i < cfg.count)
            queues_[i].configure(cfg.entries, cfg.entry_bytes);
        else
            queues_[i].reset();
    }
}

void
Maple::latchError(unsigned q, fault::FaultClass cause, sim::Addr addr)
{
    bumpCounter(Counter::HardFaults);
    ErrorState &err = err_[q];
    ++err.count;
    if (!err.valid) {
        err.valid = true;
        err.cause = cause;
        err.addr = addr;
        err.latched_at = eq_.now();
        MAPLE_WARN("%s: hard fault latched on queue %u: %s at 0x%llx (cycle %llu)",
                   params_.name.c_str(), q, fault::faultClassName(cause),
                   (unsigned long long)addr, (unsigned long long)eq_.now());
    }
    if (error_cb_)
        error_cb_();
}

void
Maple::deviceReset(unsigned q)
{
    // Bump the generation first: in-flight fills for the dropped contents
    // are fenced off, and the signal wakes from flushContents() unwind any
    // parked produce/consume on this queue with status Aborted.
    ++queue_generation_[q];
    ++queue_abort_epoch_[q];
    queues_[q].flushContents();
    mmu_.flush();
    err_[q] = {};
    // Overwrite the queue's status registers too: a pre-reset Ok left
    // behind by the last op must not be readable after the reset, or the
    // driver would trust it, retire its journal front, and later deliver
    // the replayed duplicate. Aborted tells the driver to retry/park.
    queue_status_[q] = produce_status_[q] = consume_status_[q] =
        static_cast<std::uint8_t>(MapleStatus::Aborted);
}

sim::Task<void>
Maple::mmioDelay()
{
    // Injected delayed MMIO response: the op sits at the device boundary a
    // few extra cycles before its pipeline sees it. The boundary is an
    // ordering point -- a delayed op holds back every later arrival, so
    // posted produce stores never overtake each other and queue FIFO order
    // is preserved (the fault is latency, never a correctness bug).
    if (fault::FaultInjector *f = fault::active(eq_)) {
        sim::Cycle d = f->inject(fault::FaultClass::MmioDelay);
        if (d)
            f->chargeCycles(fault::FaultClass::MmioDelay, d);
        sim::Cycle release = std::max(eq_.now(), mmio_release_) + d;
        if (release > eq_.now() || mmio_pending_ > 0) {
            // Suspend even when release == now: earlier ops may still be
            // parked here with wake events pending later this same cycle,
            // and sim::delay(0) would never suspend, letting this op barge
            // past them. A zero-delta resume appends to the current wheel
            // bucket, so FIFO order across the boundary is preserved.
            struct BoundaryAwait {
                sim::EventQueue &eq;
                sim::Cycle when;
                bool await_ready() const noexcept { return false; }
                void
                await_suspend(std::coroutine_handle<> h) const
                {
                    eq.scheduleResumeIn(when - eq.now(), h);
                }
                void await_resume() const noexcept {}
            };
            mmio_release_ = release;
            ++mmio_pending_;
            co_await BoundaryAwait{eq_, release};
            --mmio_pending_;
        }
    }
}

sim::Task<std::uint64_t>
Maple::mmioLoad(sim::Addr paddr, unsigned size, sim::ThreadId)
{
    (void)size;
    unsigned q = decodeQueue(paddr);
    unsigned raw_op = decodeOp(paddr);
    MAPLE_CHECK(q < queues_.size(), sim::MmioDecodeError,
                "%s: MMIO load 0x%llx targets nonexistent queue %u (device has %u)",
                params_.name.c_str(), (unsigned long long)paddr, q,
                (unsigned)queues_.size());
    co_await mmioDelay();

    auto op = static_cast<LoadOp>(raw_op);
    if (op == LoadOp::Consume)
        co_return co_await consume(q, /*pair=*/false);
    if (op == LoadOp::ConsumePair)
        co_return co_await consume(q, /*pair=*/true);
    if (op == LoadOp::ConsumePoll)
        co_return co_await consumePoll(q);
    co_return co_await configLoad(q, op, raw_op);
}

sim::Task<void>
Maple::mmioStore(sim::Addr paddr, std::uint64_t data, unsigned size, sim::ThreadId)
{
    (void)size;
    unsigned q = decodeQueue(paddr);
    unsigned raw_op = decodeOp(paddr);
    MAPLE_CHECK(q < queues_.size(), sim::MmioDecodeError,
                "%s: MMIO store 0x%llx targets nonexistent queue %u (device has %u)",
                params_.name.c_str(), (unsigned long long)paddr, q,
                (unsigned)queues_.size());
    co_await mmioDelay();

    switch (static_cast<StoreOp>(raw_op)) {
      case StoreOp::ProduceData:
        co_return co_await produceData(q, data);
      case StoreOp::ProducePtr:
        co_return co_await producePtr(q, data);
      case StoreOp::ProduceAmoAdd:
        co_return co_await produceAmoAdd(q, data);
      default:
        co_return co_await configStore(q, static_cast<StoreOp>(raw_op), data);
    }
}

// ---------------------------------------------------------------------------
// Produce pipeline
// ---------------------------------------------------------------------------

sim::Task<void>
Maple::produceData(unsigned q, std::uint64_t data)
{
    trace::LaneSpan span(tracer(), tr_produce_, "produce_data",
                         trace::Category::Maple);
    co_await pipeEnter(produce_free_);
    if (quiesced_[q]) {
        produce_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Quiesced);
        co_return;
    }
    bumpCounter(Counter::ProducedData);
    if (params_.shared_pipeline_hazard)
        co_await acquirePipeHead();
    if (std::optional<unsigned> slot = co_await reserveSlotInOrder(q))
        queues_[q].fillSlot(*slot, data);
    if (params_.shared_pipeline_hazard)
        releasePipeHead();
}

sim::Task<void>
Maple::producePtr(unsigned q, sim::Addr vaddr)
{
    trace::LaneSpan span(tracer(), tr_produce_, "produce_ptr",
                         trace::Category::Maple);
    co_await pipeEnter(produce_free_);
    if (quiesced_[q]) {
        produce_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Quiesced);
        co_return;
    }
    bumpCounter(Counter::ProducedPtrs);
    co_await admitProduce(q);
    if (params_.shared_pipeline_hazard)
        co_await acquirePipeHead();
    co_await pointerProduceInner(q, vaddr);
    if (params_.shared_pipeline_hazard)
        releasePipeHead();
    releaseProduce(q);
}

sim::Task<void>
Maple::admitProduce(unsigned q)
{
    // Produce buffer: bounded number of produces between decode and issue.
    sim::Cycle buf_wait_start = eq_.now();
    {
        fault::ParkGuard park(eq_, "produce_buffer", params_.name, q);
        while (produce_inflight_ >= params_.produce_buffer) {
            co_await produce_buffer_wait_;
        }
    }
    if (eq_.now() != buf_wait_start) {
        if (auto *t = tracer()) {
            t->attributeStall(trace::StallCause::ProduceBuffer,
                              eq_.now() - buf_wait_start);
        }
    }
    ++produce_inflight_;
    ++produce_inflight_q_[q];
}

void
Maple::releaseProduce(unsigned q)
{
    --produce_inflight_;
    --produce_inflight_q_[q];
    produce_buffer_wait_.notifyAll();
}

sim::Task<void>
Maple::pointerProduceInner(unsigned q, sim::Addr vaddr)
{
    std::optional<unsigned> reserved = co_await reserveSlotInOrder(q);
    if (!reserved)
        co_return;  // timed out / aborted: the produce is dropped
    MapleQueue &queue = queues_[q];
    const unsigned slot = *reserved;
    unsigned generation = queue_generation_[q];

    // Injected TLB-miss storm: shoot the translation down first so this
    // lookup pays a full organic re-walk through the walk port.
    bool storm = false;
    if (fault::FaultInjector *f = fault::active(eq_)) {
        if (f->inject(fault::FaultClass::TlbStorm)) {
            mmu_.invalidate(vaddr);
            storm = true;
        }
    }
    // Translate in MAPLE's own MMU (may walk page tables / fault to driver).
    // A TLB hit completes in zero cycles, so any elapsed time is walk/fault.
    sim::Cycle xlate_start = eq_.now();
    mem::Translation tr = co_await mmu_.translate(vaddr, /*write=*/false);
    if (eq_.now() != xlate_start) {
        if (storm) {
            if (fault::FaultInjector *f = fault::active(eq_))
                f->chargeCycles(fault::FaultClass::TlbStorm,
                                eq_.now() - xlate_start);
        } else if (auto *t = tracer()) {
            t->attributeStall(trace::StallCause::TlbMiss,
                              eq_.now() - xlate_start);
        }
    }
    if (tr.fault) {
        MAPLE_WARN("%s: unresolved fault for va 0x%llx; poisoning slot",
                   params_.name.c_str(), (unsigned long long)vaddr);
        if (generation == queue_generation_[q])
            queue.fillSlot(slot, 0);
        co_return;
    }
    // Injected hard device-TLB fault: the translation the lookup produced is
    // garbage, so fetching through it would read the wrong line. Latch the
    // error, invalidate the whole (untrusted) TLB, and poison the slot --
    // FIFO order is preserved, the consumer sees MapleStatus::Poisoned.
    if (fault::FaultInjector *f = fault::active(eq_)) {
        if (f->inject(fault::FaultClass::HardTlb,
                      mem::RequesterClass::MapleProduce)) {
            latchError(q, fault::FaultClass::HardTlb, vaddr);
            mmu_.flush();
            if (generation == queue_generation_[q])
                queue.fillSlotPoisoned(slot, 0);
            co_return;
        }
    }
    // Issue the memory request; the slot index is the transaction ID. The
    // produce is acknowledged now (the Access thread's store retires), and
    // the response fills the slot asynchronously.
    sim::spawnDetached(eq_, fetchIntoSlot(q, generation, slot, tr.paddr,
                                          queue.entryBytes()));
}

sim::Task<std::optional<unsigned>>
Maple::reserveSlotInOrder(unsigned q)
{
    MapleQueue &queue = queues_[q];
    MAPLE_CHECK(queue.configured(), sim::QueueMisuseError,
                "%s: produce to unconfigured queue %u", params_.name.c_str(), q);
    // Waiters re-park at the back of the space signal on every wake, and a
    // produce admitted inline during a wake (its buffer entry freed by a
    // finishing produce) can park ahead of older ones still being resumed.
    // The per-queue ticket keeps slot reservation in arrival order anyway.
    const std::uint64_t ticket = reserve_ticket_[q]++;
    sim::Cycle wait_start = eq_.now();
    const unsigned abort_epoch = queue_abort_epoch_[q];
    bool timed_out = false;
    {
        fault::ParkGuard park(eq_, "produce_full", params_.name, q);
        while ((queue.full() || reserve_turn_[q] != ticket) &&
               queue_abort_epoch_[q] == abort_epoch) {
            // Re-read the bound every wakeup: the recovery driver re-arms
            // QueueTimeout (a reconfigure zeroes it) while ops are parked
            // here, and the new bound must take effect on them — a produce
            // parked forever on a poison-wedged queue would otherwise hold
            // the in-flight count up and deadlock the recovery drain.
            const sim::Cycle timeout = queue_timeout_[q];
            if (timeout == 0) {
                ++reserve_parked_[q];
                co_await queue.spaceWaiters();
                --reserve_parked_[q];
            } else {
                // Timed wait: the hardware timeout counter ticks every
                // cycle until space frees or the bound is hit.
                if (eq_.now() >= wait_start + timeout) {
                    timed_out = true;
                    break;
                }
                co_await sim::delay(eq_, 1);
            }
        }
    }
    if (eq_.now() != wait_start) {
        bumpCounter(Counter::FullStallCycles, eq_.now() - wait_start);
        if (auto *t = tracer()) {
            t->attributeStall(trace::StallCause::QueueFull,
                              eq_.now() - wait_start);
        }
    }
    std::optional<unsigned> slot;
    if (queue_abort_epoch_[q] != abort_epoch) {
        // DeviceReset hit the queue while this produce was parked: unwind
        // without touching the rebuilt queue.
        produce_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Aborted);
    } else if (timed_out) {
        produce_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::TimedOut);
        bumpCounter(Counter::TimedOutOps);
    } else {
        produce_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Ok);
        ++accept_count_[q];
        slot = queue.reserveSlot();
    }
    // Pass the turn on, slot or not. A successor parked only for its turn
    // needs a wake if there is room; one parked on a full queue gets it
    // from the next pop.
    ++reserve_turn_[q];
    if (reserve_parked_[q] > 0 && !queue.full())
        queue.pulseSpace();
    co_return slot;
}

sim::Task<void>
Maple::fetchIntoSlot(unsigned q, unsigned generation, unsigned slot,
                     sim::Addr paddr, unsigned bytes)
{
    bumpCounter(Counter::MemRequests);
    mem::Port *port = params_.fetch_via_llc && w_.llc_port ? w_.llc_port
                                                            : w_.dram_port;
    // Injected hard scratchpad fault: decided per fill opportunity and
    // carried on the request as a fault tag, so the poison travels with the
    // response the way a real ECC error would.
    mem::RequestMeta meta;
    if (fault::FaultInjector *f = fault::active(eq_)) {
        if (f->inject(fault::FaultClass::HardSpad,
                      mem::RequesterClass::MapleProduce))
            meta.fault_tags |= fault::faultClassBit(fault::FaultClass::HardSpad);
    }
    sim::Cycle fetch_start = eq_.now();
    co_await port->request(mem::MemRequest::make(
        eq_, mem::RequesterClass::MapleProduce, params_.tile, paddr, bytes,
        mem::AccessKind::Read, &meta));
    if (auto *t = tracer()) {
        t->attributeStall(trace::StallCause::Dram, eq_.now() - fetch_start);
    }
    if (generation != queue_generation_[q])
        co_return;  // queue was closed/reconfigured while the fetch flew
    // One poison taxonomy for both origins: the injected device fault above
    // and memory-origin poison (an uncorrectable ECC error anywhere below,
    // reported by the hierarchy as meta.poison) land in the same latched
    // error + poisoned-slot path, so MapleStatus::Poisoned and the OS
    // recovery driver cover both with one counter set.
    const bool device_poison =
        meta.fault_tags & fault::faultClassBit(fault::FaultClass::HardSpad);
    if (device_poison || meta.poison) {
        latchError(q,
                   device_poison
                       ? fault::FaultClass::HardSpad
                       : mem::poisonCause(&meta,
                                          fault::FaultClass::BitFlipDram),
                   paddr);
        queues_[q].fillSlotPoisoned(slot, 0);
        co_return;
    }
    std::uint64_t value = 0;
    w_.pm->read(paddr, &value, bytes);
    queues_[q].fillSlot(slot, value);
}

sim::Task<void>
Maple::produceAmoAdd(unsigned q, sim::Addr vaddr)
{
    trace::LaneSpan span(tracer(), tr_produce_, "produce_amo",
                         trace::Category::Maple);
    co_await pipeEnter(produce_free_);
    if (quiesced_[q]) {
        produce_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Quiesced);
        co_return;
    }
    bumpCounter(Counter::ProducedPtrs);
    co_await admitProduce(q);
    std::optional<unsigned> reserved = co_await reserveSlotInOrder(q);
    if (!reserved) {
        // Timed out waiting for space: drop the op, but release the buffer
        // slot so later produces are not starved by a dead one.
        releaseProduce(q);
        co_return;
    }
    MapleQueue &queue = queues_[q];
    const unsigned slot = *reserved;
    unsigned generation = queue_generation_[q];
    // Take a commit ticket at reservation time: translations can complete
    // out of order (page walks to the same table line merge and resume in
    // arbitrary order), but RMWs must linearize in program order or the
    // old-value FIFO contract breaks.
    std::uint64_t ticket = amo_seq_alloc_[q]++;
    bool storm = false;
    if (fault::FaultInjector *f = fault::active(eq_)) {
        if (f->inject(fault::FaultClass::TlbStorm)) {
            mmu_.invalidate(vaddr);
            storm = true;
        }
    }
    sim::Cycle xlate_start = eq_.now();
    mem::Translation tr = co_await mmu_.translate(vaddr, /*write=*/true);
    if (eq_.now() != xlate_start) {
        if (storm) {
            if (fault::FaultInjector *f = fault::active(eq_))
                f->chargeCycles(fault::FaultClass::TlbStorm,
                                eq_.now() - xlate_start);
        } else if (auto *t = tracer()) {
            t->attributeStall(trace::StallCause::TlbMiss,
                              eq_.now() - xlate_start);
        }
    }
    {
        fault::ParkGuard park(eq_, "amo_commit", params_.name, q);
        while (amo_seq_commit_[q] != ticket) {
            co_await amo_commit_wait_;
        }
    }
    if (tr.fault) {
        MAPLE_WARN("%s: unresolved AMO fault at va 0x%llx; poisoning slot",
                   params_.name.c_str(), (unsigned long long)vaddr);
        if (generation == queue_generation_[q])
            queue.fillSlot(slot, 0);
    } else {
        unsigned bytes = queue.entryBytes();
        std::uint64_t old = 0;
        w_.pm->read(tr.paddr, &old, bytes);
        std::uint64_t updated = old + amo_addend_[q];
        w_.pm->write(tr.paddr, &updated, bytes);
        sim::spawnDetached(eq_, amoIntoSlot(q, generation, slot, tr.paddr, old,
                                            bytes));
    }
    ++amo_seq_commit_[q];
    amo_commit_wait_.notifyAll();
    releaseProduce(q);
}

sim::Task<void>
Maple::amoIntoSlot(unsigned q, unsigned generation, unsigned slot,
                   sim::Addr paddr, std::uint64_t old_value, unsigned bytes)
{
    bumpCounter(Counter::MemRequests);
    // Atomics are coherent: charge an LLC round trip for the RMW.
    mem::Port *port = w_.llc_port ? w_.llc_port : w_.dram_port;
    sim::Cycle rmw_start = eq_.now();
    co_await port->request(mem::MemRequest::make(
        eq_, mem::RequesterClass::MapleProduce, params_.tile, paddr, bytes,
        mem::AccessKind::Write));
    if (auto *t = tracer()) {
        t->attributeStall(trace::StallCause::Dram, eq_.now() - rmw_start);
    }
    if (generation != queue_generation_[q])
        co_return;
    queues_[q].fillSlot(slot, old_value);
}

// ---------------------------------------------------------------------------
// Consume pipeline
// ---------------------------------------------------------------------------

sim::Task<std::uint64_t>
Maple::consume(unsigned q, bool pair)
{
    trace::LaneSpan span(tracer(), tr_consume_,
                         pair ? "consume_pair" : "consume",
                         trace::Category::Maple);
    // Ablation: with a single shared pipeline, consumes serialize behind
    // produces -- including produces parked on a full queue (deadlock).
    co_await pipeEnter(params_.shared_pipeline_hazard ? produce_free_
                                                      : consume_free_);
    if (quiesced_[q]) {
        consume_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Quiesced);
        co_return 0;
    }
    if (params_.shared_pipeline_hazard)
        co_await acquirePipeHead();
    MapleQueue &queue = queues_[q];
    MAPLE_CHECK(queue.configured(), sim::QueueMisuseError,
                "%s: consume from unconfigured queue %u", params_.name.c_str(),
                q);
    if (pair) {
        MAPLE_CHECK(queue.entryBytes() == 4, sim::QueueMisuseError,
                    "%s: ConsumePair needs 4-byte queue entries (queue %u has "
                    "%uB)",
                    params_.name.c_str(), q, queue.entryBytes());
    }

    const unsigned needed = pair ? 2 : 1;
    sim::Cycle wait_start = eq_.now();
    const unsigned abort_epoch = queue_abort_epoch_[q];
    bool timed_out = false;
    {
        fault::ParkGuard park(eq_, "consume_empty", params_.name, q);
        while (!queue.headValid(needed) &&
               queue_abort_epoch_[q] == abort_epoch) {
            // Re-read the bound every wakeup (see reserveSlotInOrder):
            // a QueueTimeout store must take effect on parked consumes too.
            const sim::Cycle timeout = queue_timeout_[q];
            if (timeout == 0) {
                co_await queue.dataWaiters();
            } else {
                if (eq_.now() >= wait_start + timeout) {
                    timed_out = true;
                    break;
                }
                co_await sim::delay(eq_, 1);
            }
        }
    }
    if (eq_.now() != wait_start) {
        bumpCounter(Counter::EmptyStallCycles, eq_.now() - wait_start);
        if (auto *t = tracer()) {
            t->attributeStall(trace::StallCause::QueueEmpty,
                              eq_.now() - wait_start);
        }
    }
    if (queue_abort_epoch_[q] != abort_epoch) {
        // DeviceReset unwound this parked consume: the entry it was waiting
        // for was dropped with the queue contents.
        consume_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Aborted);
        if (params_.shared_pipeline_hazard)
            releasePipeHead();
        co_return 0;
    }
    if (timed_out) {
        consume_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::TimedOut);
        bumpCounter(Counter::TimedOutOps);
        if (params_.shared_pipeline_hazard)
            releasePipeHead();
        co_return 0;  // software reads QueueStatus to distinguish from data
    }
    if (queue.headPoisoned(needed)) {
        // Surface poison, not data -- and leave the entries at the head, so
        // the queue wedges until a DeviceReset. Popping here would free a
        // slot and let a parked produce slip in, pushing the accepted-but-
        // undelivered window past the queue capacity; the driver's recovery
        // replay depends on that window always fitting the reset queue.
        consume_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Poisoned);
        bumpCounter(Counter::PoisonedResponses);
        if (params_.shared_pipeline_hazard)
            releasePipeHead();
        co_return 0;
    }

    std::uint64_t value = queue.pop();
    if (pair)
        value |= queue.pop() << 32;
    bumpCounter(Counter::Consumed, needed);
    consume_status_[q] = queue_status_[q] =
        static_cast<std::uint8_t>(MapleStatus::Ok);
    stats_.average("occupancy_at_consume").sample(queue.occupancy());
    stats_.histogram("consume_occupancy").sample(queue.occupancy());
    if (params_.shared_pipeline_hazard)
        releasePipeHead();
    co_return value;
}

sim::Task<std::uint64_t>
Maple::consumePoll(unsigned q)
{
    trace::LaneSpan span(tracer(), tr_consume_, "consume_poll",
                         trace::Category::Maple);
    co_await pipeEnter(params_.shared_pipeline_hazard ? produce_free_
                                                      : consume_free_);
    if (quiesced_[q]) {
        consume_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Quiesced);
        co_return 0;
    }
    MapleQueue &queue = queues_[q];
    // Polling an unconfigured queue is not misuse: report Empty so software
    // spin loops degrade gracefully instead of crashing the device model.
    if (!queue.configured() || !queue.headValid(1)) {
        consume_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Empty);
        co_return 0;
    }
    if (queue.headPoisoned(1)) {
        // Same wedge-until-reset contract as the blocking consume above.
        consume_status_[q] = queue_status_[q] =
            static_cast<std::uint8_t>(MapleStatus::Poisoned);
        bumpCounter(Counter::PoisonedResponses);
        co_return 0;
    }
    std::uint64_t value = queue.pop();
    bumpCounter(Counter::Consumed);
    consume_status_[q] = queue_status_[q] =
        static_cast<std::uint8_t>(MapleStatus::Ok);
    stats_.average("occupancy_at_consume").sample(queue.occupancy());
    stats_.histogram("consume_occupancy").sample(queue.occupancy());
    co_return value;
}

// ---------------------------------------------------------------------------
// Configuration pipeline
// ---------------------------------------------------------------------------

sim::Task<std::uint64_t>
Maple::configLoad(unsigned q, LoadOp op, unsigned raw_op)
{
    trace::LaneSpan span(tracer(), tr_config_, "config_load",
                         trace::Category::Maple);
    co_await pipeEnter(config_free_);
    if (raw_op >= static_cast<unsigned>(LoadOp::CounterBase)) {
        unsigned idx = raw_op - static_cast<unsigned>(LoadOp::CounterBase);
        if (idx < counters_.size())
            co_return counters_[idx].value();
        co_return 0;
    }
    switch (op) {
      case LoadOp::Open:
        co_return queues_[q].tryOpen() ? 1 : 0;
      case LoadOp::Occupancy:
        co_return queues_[q].occupancy();
      case LoadOp::FaultVaddr:
        co_return last_fault_vaddr_;
      case LoadOp::QueueConfig:
        co_return (std::uint64_t(queues_[q].capacity()) << 8) |
            queues_[q].entryBytes();
      case LoadOp::QueueStatus:
        co_return queue_status_[q];
      case LoadOp::ErrStatus:
        co_return (err_[q].valid ? 1u : 0u) | (quiesced_[q] ? 2u : 0u) |
            (std::uint64_t(err_[q].count & 0xff) << 8) |
            (std::uint64_t(produce_inflight_q_[q] & 0xffff) << 16);
      case LoadOp::ErrCause:
        co_return static_cast<std::uint64_t>(err_[q].cause);
      case LoadOp::ErrAddr:
        co_return err_[q].addr;
      case LoadOp::AcceptCount:
        co_return accept_count_[q];
      case LoadOp::ProduceStatus:
        co_return produce_status_[q];
      case LoadOp::ConsumeStatus:
        co_return consume_status_[q];
      default:
        MAPLE_WARN("%s: unknown load op %u", params_.name.c_str(), raw_op);
        co_return 0;
    }
}

sim::Task<void>
Maple::configStore(unsigned q, StoreOp op, std::uint64_t data)
{
    trace::LaneSpan span(tracer(), tr_config_, "config_store",
                         trace::Category::Maple);
    co_await pipeEnter(config_free_);
    switch (op) {
      case StoreOp::Close:
        ++queue_generation_[q];
        queues_[q].close();
        co_return;
      case StoreOp::ConfigQueues:
        applyQueueConfig(data);
        co_return;
      case StoreOp::LimaABase:
        lima_a_base_ = data;
        co_return;
      case StoreOp::LimaBBase:
        lima_b_base_ = data;
        co_return;
      case StoreOp::LimaRange:
        lima_range_ = data;
        co_return;
      case StoreOp::LimaLaunch: {
        {
            fault::ParkGuard park(eq_, "lima_space", params_.name);
            while (lima_cmds_.size() >= params_.lima_cmds) {
                co_await lima_space_wait_;
            }
        }
        LimaCmd cmd;
        cmd.a_base = lima_a_base_;
        cmd.b_base = lima_b_base_;
        cmd.start = static_cast<std::uint32_t>(lima_range_ & 0xffffffffu);
        cmd.end = static_cast<std::uint32_t>(lima_range_ >> 32);
        cmd.ctrl = unpackLimaControl(data);
        lima_cmds_.push_back(cmd);
        if (!lima_running_) {
            lima_running_ = true;
            sim::spawnDetached(eq_, limaWorker());
        }
        co_return;
      }
      case StoreOp::PrefetchPtr:
        sim::spawnDetached(eq_, speculativePrefetch(data));
        co_return;
      case StoreOp::ResetCounters:
        for (auto &c : counters_)
            c.reset();
        co_return;
      case StoreOp::AmoAddend:
        amo_addend_[q] = data;
        co_return;
      case StoreOp::QueueTimeout:
        queue_timeout_[q] = data;
        // Wake the queue's parked waiters so the new bound takes effect on
        // them: they re-read the register, re-check their predicate, and
        // either re-park under the new deadline or time out. Without the
        // kick, an op parked with bound 0 would never observe the re-arm.
        queues_[q].pulseWaiters();
        co_return;
      case StoreOp::Quiesce:
        quiesced_[q] = data != 0 ? 1 : 0;
        co_return;
      case StoreOp::DeviceReset:
        deviceReset(q);
        co_return;
      default:
        MAPLE_WARN("%s: unknown store op %u", params_.name.c_str(),
                   static_cast<unsigned>(op));
        co_return;
    }
}

sim::Task<void>
Maple::speculativePrefetch(sim::Addr vaddr)
{
    mem::Translation tr = co_await mmu_.translate(vaddr, /*write=*/false);
    if (tr.fault)
        co_return;  // speculative: drop on fault
    bumpCounter(Counter::PrefetchesIssued);
    if (params_.coherent && w_.llc_port) {
        // Protocol-correct prefetch: warm the line's home slice through the
        // directory (which downgrades a dirty private owner) rather than
        // poking the LLC array directly. The checker deliberately ignores
        // Prefetch-kind DMA reads -- a prefetch grants no data to anyone.
        co_await w_.llc_port->request(mem::MemRequest::make(
            eq_, mem::RequesterClass::Prefetch, params_.tile, tr.paddr, 8,
            mem::AccessKind::Prefetch));
    } else if (w_.llc_cache) {
        w_.llc_cache->prefetch(tr.paddr);
    }
}

// ---------------------------------------------------------------------------
// LIMA: Loops of Indirect Memory Accesses (A[B[i]] for i in [start, end))
// ---------------------------------------------------------------------------

sim::Task<void>
Maple::limaWorker()
{
    while (!lima_cmds_.empty()) {
        LimaCmd cmd = lima_cmds_.front();
        lima_cmds_.pop_front();
        lima_space_wait_.notifyAll();
        bumpCounter(Counter::LimaCommands);
        co_await limaOne(cmd);
    }
    lima_running_ = false;
}

sim::Task<void>
Maple::limaOne(const LimaCmd &cmd)
{
    const unsigned b_elem = cmd.ctrl.b_elem_bytes;
    const unsigned a_elem = cmd.ctrl.a_elem_bytes;
    MAPLE_ASSERT(b_elem == 4 || b_elem == 8, "bad LIMA index width");

    // Double-buffered chunk fetch: translate + issue the DRAM read for one
    // 64B chunk of B, and while iterating it, the next chunk's fetch is
    // already in flight (the scratchpad holds both).
    struct ChunkFetch {
        bool valid = false;
        bool fault = false;
        sim::Addr first_pa = 0;      ///< paddr of the first covered element
        std::uint64_t first = 0;     ///< index of the first covered element
        std::uint64_t last = 0;      ///< one past the last covered element
        sim::Signal arrived;
    };

    auto startFetch = [this, &cmd, b_elem](std::uint64_t i) -> sim::Task<ChunkFetch> {
        ChunkFetch f;
        f.valid = true;
        f.first = i;
        sim::Addr b_vaddr = cmd.b_base + i * b_elem;
        mem::Translation tr = co_await mmu_.translate(b_vaddr, false);
        if (tr.fault) {
            MAPLE_WARN("%s: LIMA fault on B at va 0x%llx; aborting command",
                       params_.name.c_str(), (unsigned long long)b_vaddr);
            f.fault = true;
            f.arrived.set(sim::Unit{});
            co_return f;
        }
        f.first_pa = tr.paddr;
        sim::Addr chunk_pa = mem::lineBase(tr.paddr);
        std::uint64_t in_chunk = (mem::kLineSize - (tr.paddr - chunk_pa)) / b_elem;
        f.last = std::min<std::uint64_t>(cmd.end, i + in_chunk);
        bumpCounter(Counter::MemRequests);
        auto fetch = [](Maple *self, sim::Addr pa, sim::Signal done) -> sim::Task<void> {
            co_await self->w_.dram_port->request(mem::MemRequest::make(
                self->eq_, mem::RequesterClass::MapleConsume,
                self->params_.tile, pa, mem::kLineSize,
                mem::AccessKind::Read));
            done.set(sim::Unit{});
        };
        sim::spawnDetached(eq_, fetch(this, chunk_pa, f.arrived));
        co_return f;
    };

    if (cmd.start >= cmd.end)
        co_return;
    ChunkFetch cur = co_await startFetch(cmd.start);
    while (cur.valid && !cur.fault) {
        ChunkFetch next;
        if (cur.last < cmd.end)
            next = co_await startFetch(cur.last);
        co_await cur.arrived;

        // Iterate word by word over the elements present in this chunk.
        for (std::uint64_t i = cur.first; i < cur.last; ++i) {
            co_await sim::delay(eq_, 1);
            sim::Addr elem_pa = cur.first_pa + (i - cur.first) * b_elem;
            std::uint64_t index = 0;
            w_.pm->read(elem_pa, &index, b_elem);
            bumpCounter(Counter::LimaElements);
            sim::Addr a_vaddr = cmd.a_base + index * a_elem;
            if (cmd.ctrl.speculative) {
                co_await speculativePrefetch(a_vaddr);
            } else {
                co_await pipeEnter(produce_free_);
                co_await pointerProduceInner(cmd.ctrl.target_queue, a_vaddr);
            }
        }
        cur = std::move(next);
    }
}

void
Maple::saveState(ckpt::Sink &out) const
{
    MAPLE_ASSERT(produce_inflight_ == 0 && mmio_pending_ == 0 &&
                     !pipe_head_held_ && lima_cmds_.empty() && !lima_running_,
                 "snapshot with in-flight MAPLE work");
    out.u32(params_.max_queues);
    for (const MapleQueue &q : queues_)
        q.saveState(out);
    for (unsigned g : queue_generation_)
        out.u32(g);
    for (unsigned g : queue_abort_epoch_)
        out.u32(g);
    for (std::uint8_t s : queue_status_)
        out.u8(s);
    for (std::uint8_t s : produce_status_)
        out.u8(s);
    for (std::uint8_t s : consume_status_)
        out.u8(s);
    for (sim::Cycle t : queue_timeout_)
        out.u64(t);
    for (const ErrorState &e : err_) {
        out.b(e.valid);
        out.u32(static_cast<std::uint32_t>(e.cause));
        out.u64(e.addr);
        out.u32(e.count);
        out.u64(e.latched_at);
    }
    for (std::uint8_t q : quiesced_)
        out.u8(q);
    out.vecU64(accept_count_);
    out.u64(produce_free_);
    out.u64(consume_free_);
    out.u64(config_free_);
    out.u64(mmio_release_);
    for (unsigned p : produce_inflight_q_)
        out.u32(p);
    out.vecU64(amo_addend_);
    out.vecU64(amo_seq_alloc_);
    out.vecU64(amo_seq_commit_);
    out.u64(lima_a_base_);
    out.u64(lima_b_base_);
    out.u64(lima_range_);
    out.u64(last_fault_vaddr_);
    for (const sim::Counter &c : counters_)
        c.saveState(out);
    stats_.saveState(out);
    mmu_.saveState(out);
    // Cached lane-group handles: the tracer's table round-trips, so the ids
    // must too or a restored device would mint duplicate lane groups.
    out.u32(tr_produce_);
    out.u32(tr_consume_);
    out.u32(tr_config_);
}

void
Maple::loadState(ckpt::Source &in)
{
    MAPLE_ASSERT(produce_inflight_ == 0 && mmio_pending_ == 0 &&
                     !pipe_head_held_ && lima_cmds_.empty() && !lima_running_,
                 "restore with in-flight MAPLE work");
    std::uint32_t nq = in.u32();
    MAPLE_CHECK(nq == params_.max_queues, ckpt::SnapshotError,
                "MAPLE queue-count mismatch in snapshot (%s)",
                params_.name.c_str());
    for (MapleQueue &q : queues_)
        q.loadState(in);
    for (unsigned &g : queue_generation_)
        g = in.u32();
    for (unsigned &g : queue_abort_epoch_)
        g = in.u32();
    for (std::uint8_t &s : queue_status_)
        s = in.u8();
    for (std::uint8_t &s : produce_status_)
        s = in.u8();
    for (std::uint8_t &s : consume_status_)
        s = in.u8();
    for (sim::Cycle &t : queue_timeout_)
        t = in.u64();
    for (ErrorState &e : err_) {
        e.valid = in.b();
        e.cause = static_cast<fault::FaultClass>(in.u32());
        e.addr = in.u64();
        e.count = in.u32();
        e.latched_at = in.u64();
    }
    for (std::uint8_t &q : quiesced_)
        q = in.u8();
    accept_count_ = in.vecU64();
    produce_free_ = in.u64();
    consume_free_ = in.u64();
    config_free_ = in.u64();
    mmio_release_ = in.u64();
    for (unsigned &p : produce_inflight_q_)
        p = in.u32();
    amo_addend_ = in.vecU64();
    amo_seq_alloc_ = in.vecU64();
    amo_seq_commit_ = in.vecU64();
    lima_a_base_ = in.u64();
    lima_b_base_ = in.u64();
    lima_range_ = in.u64();
    last_fault_vaddr_ = in.u64();
    for (sim::Counter &c : counters_)
        c.loadState(in);
    stats_.loadState(in);
    mmu_.loadState(in);
    tr_produce_ = in.u32();
    tr_consume_ = in.u32();
    tr_config_ = in.u32();
}

}  // namespace maple::core
