/**
 * @file
 * Memory-management unit: TLB + hardware page-table walker + fault hook.
 *
 * Both cores and MAPLE instances own an Mmu. On a TLB miss the walker issues
 * timed reads for each page-table level through a memory port (so walks cost
 * real cycles and bandwidth). On a page fault the optional fault handler --
 * the MAPLE device driver in `src/os` -- is invoked; if it resolves the fault
 * the translation is retried once.
 */
#pragma once

#include <functional>
#include <optional>

#include "mem/page_table.hpp"
#include "mem/physical_memory.hpp"
#include "mem/port.hpp"
#include "mem/tlb.hpp"
#include "sim/coro.hpp"
#include "sim/stats.hpp"

namespace maple::mem {

struct Translation {
    bool fault = false;
    sim::Addr paddr = sim::kBadAddr;
};

class Mmu {
  public:
    /**
     * A fault handler resolves a page fault (e.g. maps the page) and returns
     * true, or returns false for a truly fatal access error. It may take
     * simulated time (it is a coroutine): interrupt + driver latency.
     */
    using FaultHandler = std::function<sim::Task<bool>(sim::Addr vaddr, bool write)>;

    Mmu(sim::EventQueue &eq, PhysicalMemory &pm, Port &walk_port,
        size_t tlb_entries = 16, sim::TileId tile = 0)
        : eq_(eq), pm_(pm), walk_port_(walk_port), tlb_(tlb_entries),
          tile_(tile)
    {
    }

    /**
     * Point the MMU at an address space (root page-table frame). Re-pointing
     * at the *same* root is a no-op: post-restore re-attachment must not
     * flush a TLB whose warmed contents were just restored.
     */
    void
    setRoot(sim::Addr root_paddr)
    {
        if (root_ == root_paddr)
            return;
        root_ = root_paddr;
        tlb_.flush();
    }

    void setFaultHandler(FaultHandler h) { fault_handler_ = std::move(h); }

    /**
     * Translate @p vaddr, charging TLB/walk/fault latency as appropriate.
     * Returns fault=true only if the fault handler failed (or none is set).
     *
     * A TLB hit takes zero cycles, so it builds no coroutine frame: the
     * awaiter's await_ready() does the lookup and completes without
     * suspending. Anything else (a miss, or a hit lacking the needed
     * permission, which is invalidated for a rewalk) starts translateSlow(),
     * which skips the lookup already done here, so TLB hit/miss counters and
     * LRU order are the same as with one lookup per attempt.
     */
    class TranslateAwaiter {
      public:
        TranslateAwaiter(Mmu &mmu, sim::Addr vaddr, bool write)
            : mmu_(mmu), vaddr_(vaddr), write_(write)
        {
        }

        bool
        await_ready()
        {
            if (auto hit = mmu_.tlbHit(vaddr_, write_)) {
                result_ = *hit;
                return true;
            }
            slow_ = mmu_.translateSlow(vaddr_, write_);
            return false;
        }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> cont)
        {
            return std::move(slow_).operator co_await().await_suspend(cont);
        }

        Translation
        await_resume()
        {
            return slow_.valid() ? std::move(slow_).operator co_await().await_resume()
                                 : result_;
        }

      private:
        Mmu &mmu_;
        sim::Addr vaddr_;
        bool write_;
        Translation result_;
        sim::Task<Translation> slow_;
    };

    TranslateAwaiter translate(sim::Addr vaddr, bool write) { return {*this, vaddr, write}; }

    /** TLB shootdown for one page (called by the OS on unmap/remap). */
    void invalidate(sim::Addr vaddr) { tlb_.invalidate(vaddr); }

    /** Full TLB shootdown. */
    void flush() { tlb_.flush(); }

    Tlb &tlb() { return tlb_; }
    std::uint64_t walks() const { return walks_.value(); }
    std::uint64_t faults() const { return faults_.value(); }

    /**
     * Snapshot support. The fault handler is host-side std::function state
     * and is not serialized: restore re-installs it via the same attach path
     * that installed it originally.
     */
    void
    saveState(ckpt::Sink &out) const
    {
        out.u64(root_);
        tlb_.saveState(out);
        walks_.saveState(out);
        faults_.saveState(out);
    }

    void
    loadState(ckpt::Source &in)
    {
        root_ = in.u64();
        tlb_.loadState(in);
        walks_.loadState(in);
        faults_.loadState(in);
    }

  private:
    static bool
    permits(const Pte &pte, bool write)
    {
        return pte.readable() && (!write || pte.writable());
    }

    /** One TLB lookup: the translation on a hit that permits the access;
     *  otherwise nullopt, after invalidating a hit that lacks permission so
     *  the caller's walk refills it. */
    std::optional<Translation>
    tlbHit(sim::Addr vaddr, bool write)
    {
        if (auto pte = tlb_.lookup(vaddr)) {
            if (permits(*pte, write))
                return Translation{false, pte->paddrBase() | pageOffset(vaddr)};
            tlb_.invalidate(vaddr);
        }
        return std::nullopt;
    }

    /** translate() past a first TLB lookup that missed (or was invalidated
     *  for lacking permission): walk, fault, and retry once. */
    sim::Task<Translation>
    translateSlow(sim::Addr vaddr, bool write)
    {
        for (int attempt = 0; attempt < 2; ++attempt) {
            if (attempt > 0) {
                if (auto hit = tlbHit(vaddr, write))
                    co_return *hit;
            }
            auto walked = co_await walk(vaddr);
            if (walked && permits(*walked, write)) {
                tlb_.insert(vaddr, *walked);
                co_return Translation{
                    false, walked->paddrBase() | pageOffset(vaddr)};
            }
            faults_.inc();
            if (attempt == 1 || !fault_handler_)
                break;
            bool resolved = co_await fault_handler_(vaddr, write);
            if (!resolved)
                break;
        }
        co_return Translation{true, sim::kBadAddr};
    }

    /** Timed three-level walk; nullopt when any level is invalid. */
    sim::Task<std::optional<Pte>>
    walk(sim::Addr vaddr)
    {
        MAPLE_ASSERT(root_ != sim::kBadAddr, "MMU has no address space");
        walks_.inc();
        sim::Addr table = root_;
        for (unsigned level = kPtLevels; level-- > 0;) {
            sim::Addr pte_addr =
                table + vpnField(vaddr, level) * sizeof(std::uint64_t);
            co_await walk_port_.request(
                MemRequest::make(eq_, RequesterClass::Ptw, tile_, pte_addr,
                                 sizeof(std::uint64_t), AccessKind::Read));
            Pte pte{pm_.readU64(pte_addr)};
            if (!pte.valid())
                co_return std::nullopt;
            if (pte.leaf())
                co_return pte;
            table = pte.paddrBase();
        }
        co_return std::nullopt;
    }

    sim::EventQueue &eq_;
    PhysicalMemory &pm_;
    Port &walk_port_;
    Tlb tlb_;
    sim::TileId tile_;
    sim::Addr root_ = sim::kBadAddr;
    FaultHandler fault_handler_;
    sim::Counter walks_, faults_;
};

}  // namespace maple::mem
