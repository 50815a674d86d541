/**
 * @file
 * Non-blocking, set-associative, write-back/write-allocate cache with MSHRs.
 *
 * Timing-only (tag array + LRU state); data stays in PhysicalMemory. Used for
 * the per-core L1D, the OpenPiton-style L1.5 stage and the shared LLC (L2).
 * Exposes a prefetch() entry point used by the software-prefetch baseline,
 * the DROPLET model and MAPLE's speculative LLC prefetches.
 *
 * Two personalities share the tag array:
 *  - Legacy (default): latency-only. Misses fill from the downstream port,
 *    dirty victims write back to it, and no other cache exists as far as
 *    this one is concerned.
 *  - Coherent (after attachCoherence()): every line carries an MSI state, a
 *    transient-state table layered on the MSHRs tracks in-flight IS/IM/SM
 *    transactions, and misses/upgrades go through the line's home directory
 *    (CoherenceFabric::fetch) instead of the downstream port. Dirty (M)
 *    victims emit PutM writebacks through their home; S victims evict
 *    silently. The protocol side (cohTakeLine / cohDowngrade / cohInstall)
 *    is driven by the directory with the line's home lock held.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "mem/directory.hpp"
#include "mem/physical_memory.hpp"
#include "mem/port.hpp"
#include "mem/resil.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace maple::mem {

struct CacheParams {
    std::string name = "cache";
    std::uint32_t size_bytes = 8 * 1024;
    std::uint32_t assoc = 4;
    sim::Cycle hit_latency = 2;
    std::uint32_t mshrs = 16;
    sim::TileId tile = 0;  ///< tile stamped on self-originated prefetches
};

class Cache : public Port, public CoherentCache {
  public:
    Cache(sim::EventQueue &eq, CacheParams params, Port &downstream);

    /** Timed access; fills and writebacks inherit the request's identity. */
    sim::Task<void> request(MemRequest req) override;

    /** Fire-and-forget prefetch of the line containing @p paddr. */
    void prefetch(sim::Addr paddr);

    /** True when the line containing @p paddr is present (no LRU update). */
    bool probe(sim::Addr paddr) const;

    /**
     * Drop all clean lines. Throws sim::FatalError if any line is dirty
     * (legacy) or held in M (coherent): silently discarding modified data
     * corrupts the modeled memory image -- use flushAll() first.
     */
    void invalidateAll();

    /** Write back every dirty/M line, then drop everything. */
    sim::Task<void> flushAll();

    /**
     * Join @p fabric as a coherent cache: misses become GetS/GetM through
     * the home directories and this cache starts answering the protocol
     * (CoherentCache). Call once, before any traffic.
     */
    void attachCoherence(CoherenceFabric &fabric);

    bool coherent() const { return fabric_ != nullptr; }

    /**
     * Attach the soft-error resilience model (mem/resil.hpp). @p l1_role
     * selects the reaction to poison: an L1-role cache runs machine-check
     * containment when a core/PTW demand touches a poisoned line, an
     * LLC-role cache forwards the poison with the data (and also consults
     * the memory-side backing-poison set, since recalled dirty data reaches
     * it through detached writebacks that carry no metadata). The role also
     * picks the BitFlip fault class this cache's ECC draws from.
     */
    void
    setResil(ResilManager *resil, bool l1_role)
    {
        resil_ = resil;
        resil_l1_ = l1_role;
        resil_cls_ = l1_role ? fault::FaultClass::BitFlipL1
                             : fault::FaultClass::BitFlipLlc;
        resil_st_ = l1_role ? ResilStructure::L1 : ResilStructure::Llc;
    }

    /**
     * Containment flush: drop any copy of @p line, dirty or poisoned
     * included -- the functional image lives in PhysicalMemory and the page
     * is about to be retired, so no modeled data is lost. Used on caches the
     * directory cannot reach (legacy mode, and the LLC slices behind it).
     */
    void resilDropLine(sim::Addr line);

    /** True when this cache holds @p line and the copy is poisoned. */
    bool
    linePoisoned(sim::Addr line) const
    {
        const Way *w = lookupConst(line);
        return w != nullptr && w->poisoned;
    }

    /// @name CoherentCache (driven by the home directory, lock held)
    /// @{
    const std::string &cohName() const override { return params_.name; }
    sim::TileId cohTile() const override { return params_.tile; }
    MsiState cohTakeLine(sim::Addr line) override;
    bool cohDowngrade(sim::Addr line) override;
    MsiState cohState(sim::Addr line) const override;
    void cohInstall(sim::Addr line, MsiState st, const MemRequest &req) override;
    /// @}

    const CacheParams &params() const { return params_; }
    sim::StatGroup &stats() { return stats_; }
    const sim::StatGroup &stats() const { return stats_; }

    std::uint64_t demandHits() const { return stats_.counterValue("demand_hits"); }
    std::uint64_t demandMisses() const { return stats_.counterValue("demand_misses"); }

    /** MSHRs currently tracking an in-flight fill (telemetry probe). */
    std::size_t mshrsInUse() const { return mshrs_.size(); }

    /**
     * Snapshot support. Only valid at a quiesced point: with no in-flight
     * fills the MSHR table is empty and the restorable state is the tag
     * array, the LRU clock and the stats. Coherent caches additionally
     * write the per-line MSI state (the transient table must be empty).
     */
    void
    saveState(ckpt::Sink &out) const
    {
        MAPLE_ASSERT(mshrs_.empty(), "snapshot with in-flight cache fills");
        MAPLE_ASSERT(tstate_.empty(), "snapshot with transient MSI state");
        out.u64(num_sets_);
        out.u64(params_.assoc);
        for (const auto &set : sets_) {
            for (const Way &w : set) {
                out.u64(w.tag);
                out.b(w.valid);
                out.b(w.dirty);
                out.b(w.poisoned);
                out.u64(w.lru);
                if (fabric_)
                    out.u8(static_cast<std::uint8_t>(w.coh));
            }
        }
        out.u64(lru_clock_);
        // The recently-invalidated ring classifies coherence misses; it is
        // real machine state (a restored run must bucket the same misses
        // the same way), so it round-trips with the tags.
        for (sim::Addr a : recent_inv_)
            out.u64(a);
        out.u64(recent_inv_next_);
        stats_.saveState(out);
        out.u32(tr_miss_);  // cached lane-group id (tracer table round-trips)
    }

    void
    loadState(ckpt::Source &in)
    {
        MAPLE_ASSERT(mshrs_.empty(), "restore with in-flight cache fills");
        MAPLE_ASSERT(tstate_.empty(), "restore with transient MSI state");
        std::uint64_t sets = in.u64();
        std::uint64_t assoc = in.u64();
        MAPLE_CHECK(sets == num_sets_ && assoc == params_.assoc,
                    ckpt::SnapshotError,
                    "cache geometry mismatch in snapshot (%s)",
                    params_.name.c_str());
        for (auto &set : sets_) {
            for (Way &w : set) {
                w.tag = in.u64();
                w.valid = in.b();
                w.dirty = in.b();
                w.poisoned = in.b();
                w.lru = in.u64();
                if (fabric_) {
                    w.coh = static_cast<MsiState>(in.u8());
                    if (w.valid && w.coh != MsiState::I) {
                        if (CoherenceChecker *ck = fabric_->checker())
                            ck->seedHolder(coh_id_, w.tag, w.coh);
                    }
                }
            }
        }
        lru_clock_ = in.u64();
        for (sim::Addr &a : recent_inv_)
            a = in.u64();
        recent_inv_next_ = static_cast<unsigned>(in.u64());
        stats_.loadState(in);
        tr_miss_ = in.u32();
    }

  private:
    struct Way {
        sim::Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool poisoned = false;  ///< data carries an uncorrectable ECC error
        std::uint64_t lru = 0;
        MsiState coh = MsiState::I;  ///< stable MSI state (coherent mode)
    };

    /** One access covering a single cache line (legacy personality). */
    sim::Task<void> accessLine(MemRequest req, sim::Addr line);

    /** One access covering a single cache line, protocol-correct: retries
     *  from scratch after every wait, since the line can be invalidated or
     *  downgraded between any two resumptions. */
    sim::Task<void> accessLineCoherent(MemRequest req, sim::Addr line);

    /** Resolve a miss on @p line; merges into an existing MSHR if any. */
    sim::Task<void> handleMiss(MemRequest req, sim::Addr line, bool &dropped);

    /** Active tracer or nullptr; lazily creates the miss lane group. */
    trace::TraceManager *tracer();

    CoherenceChecker *
    checker() const
    {
        return fabric_ ? fabric_->checker() : nullptr;
    }

    size_t setIndex(sim::Addr line) const;
    Way *lookup(sim::Addr line);
    const Way *lookupConst(sim::Addr line) const;
    void touch(Way &way);
    Way &selectVictim(size_t set);
    /** Victim choice that avoids ripping out a line mid-upgrade (SM). */
    Way &selectVictimCoherent(size_t set);
    void wakeMshrWaiters();
    void noteInvalidated(sim::Addr line);

    /**
     * ECC draw + poison bookkeeping for a hit on @p w, shared by both
     * personalities. Returns Corrected when the caller must model the
     * correction bubble (delay correctPenalty() and retry the lookup --
     * anything can change across the wait). A fresh Uncorrectable marks the
     * way poisoned; @p w is then examined like pre-existing poison.
     */
    EccOutcome resilCheckHit(Way &w, const MemRequest &req, sim::Addr line);

    /** True when a poisoned serve to @p req must trigger containment
     *  instead of forwarding the poison (L1 role, core/PTW demand). */
    bool resilShouldContain(const MemRequest &req) const;

    sim::EventQueue &eq_;
    CacheParams params_;
    Port &downstream_;
    size_t num_sets_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t lru_clock_ = 1;
    std::unordered_map<sim::Addr, sim::Signal> mshrs_;
    sim::WaitList mshr_wait_;
    sim::StatGroup stats_;
    trace::TraceManager::LaneGroupId tr_miss_ = trace::TraceManager::kNone;

    ResilManager *resil_ = nullptr;
    bool resil_l1_ = false;
    fault::FaultClass resil_cls_ = fault::FaultClass::BitFlipLlc;
    ResilStructure resil_st_ = ResilStructure::Llc;

    CoherenceFabric *fabric_ = nullptr;
    unsigned coh_id_ = 0;
    /** In-flight protocol transactions, keyed by line (IS / IM / SM). */
    std::unordered_map<sim::Addr, TransientState> tstate_;
    /** Ring of recently-invalidated lines: a miss that matches one is a
     *  coherence miss (counter "coherence_misses"), not a capacity miss. */
    std::array<sim::Addr, 64> recent_inv_{};
    unsigned recent_inv_next_ = 0;
};

}  // namespace maple::mem
