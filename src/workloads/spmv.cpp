/**
 * @file
 * Sparse Matrix-Vector multiplication (y = M x), CSR format.
 *
 * The irregular memory access is x[col_idx[j]]: col_idx and vals stream
 * sequentially (cache friendly) while x is sampled at unpredictable offsets
 * over an array larger than the LLC. Every latency-tolerance technique of
 * the paper is implemented against the same kernel and validated bitwise
 * against a host-computed golden result.
 */
#include "workloads/technique.hpp"

namespace maple::app {

namespace {

/** Device-side state for one run, and the kernel of every technique role. */
struct SpmvKernels : KernelTraits {
    /** The host dataset and its golden result. */
    struct Host {
        SparseMatrix m;
        std::vector<float> x;
        std::vector<float> golden;

        Host(std::uint32_t rows, std::uint32_t cols, std::uint32_t nnz_per_row,
             std::uint64_t seed)
            : m(makeSkewedSparse(rows, cols, nnz_per_row, seed, 2.0)),
              x(makeDenseVector(cols, seed ^ 0xdecaf))
        {
            golden.resize(rows);
            for (std::uint32_t r = 0; r < rows; ++r) {
                float acc = 0.0f;
                for (std::uint32_t j = m.row_ptr[r]; j < m.row_ptr[r + 1]; ++j)
                    acc += m.vals[j] * x[m.col_idx[j]];
                golden[r] = acc;
            }
        }
    };

    const Host &host;
    SimCsr m;
    SimArray<float> x;
    SimArray<float> y;
    std::uint32_t rows;

    SpmvKernels(os::Process &proc, const Host &h, unsigned /*workers*/)
        : host(h), m(SimCsr::upload(proc, h.m, /*with_vals=*/true)),
          x(proc, h.x.size(), "x"), y(proc, h.m.rows, "y"), rows(h.m.rows)
    {
        x.upload(h.x);
    }

    DropletBinding droplet() const { return {m.col_idx.addr(0), m.col_idx.size(), x.addr(0)}; }

    // -----------------------------------------------------------------------
    // doall (also the no-prefetch single-thread baseline)
    // -----------------------------------------------------------------------

    sim::Task<void>
    doall(cpu::Core &core, Slice t)
    {
        Chunk rs = t.of(rows);
        auto jb = static_cast<std::uint32_t>(
            co_await core.load(m.row_ptr.addr(rs.begin), 4));
        for (std::uint64_t r = rs.begin; r < rs.end; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            float acc = 0.0f;
            for (std::uint32_t j = jb; j < je; ++j) {
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(m.col_idx.addr(j), 4));
                float v = f32FromBits(co_await core.load(m.vals.addr(j), 4));
                float xv = f32FromBits(co_await core.load(x.addr(c), 4));
                co_await core.compute(1);  // fused multiply-add
                acc += v * xv;
            }
            co_await core.store(y.addr(r), bitsFromF32(acc), 4);
            jb = je;
        }
    }

    // -----------------------------------------------------------------------
    // Software prefetching (Ainsworth & Jones-style indirect prefetch
    // insertion)
    // -----------------------------------------------------------------------

    sim::Task<void>
    swPrefetch(cpu::Core &core, unsigned dist)
    {
        const auto nnz_total = static_cast<std::uint32_t>(m.col_idx.size());
        auto jb = static_cast<std::uint32_t>(co_await core.load(m.row_ptr.addr(0), 4));
        for (std::uint64_t r = 0; r < rows; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            float acc = 0.0f;
            for (std::uint32_t j = jb; j < je; ++j) {
                // Inserted prefetch code: load col_idx[j+dist] (the extra
                // load software prefetching cannot avoid), compute the target
                // address and prefetch x[c'] into the L1.
                if (j + dist < nnz_total) {
                    auto cd = static_cast<std::uint32_t>(
                        co_await core.load(m.col_idx.addr(j + dist), 4));
                    co_await core.compute(4);  // bounds check + address computation
                    co_await core.prefetchL1(x.addr(cd));
                }
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(m.col_idx.addr(j), 4));
                float v = f32FromBits(co_await core.load(m.vals.addr(j), 4));
                float xv = f32FromBits(co_await core.load(x.addr(c), 4));
                co_await core.compute(1);
                acc += v * xv;
            }
            co_await core.store(y.addr(r), bitsFromF32(acc), 4);
            jb = je;
        }
    }

    // -----------------------------------------------------------------------
    // MAPLE LIMA prefetch: one API call offloads a whole row of A[B[i]], data
    // is consumed from the hardware queue (two 4B words per load:
    // ConsumePair).
    // -----------------------------------------------------------------------

    sim::Task<void>
    lima(cpu::Core &core, core::MapleApi &api, unsigned prefetch_distance)
    {
        const unsigned q = 0;
        const unsigned dist_rows = std::max(2u, prefetch_distance / 2);
        // Row bounds for the LIMA launch stream (runs dist_rows ahead).
        auto pb = static_cast<std::uint32_t>(co_await core.load(m.row_ptr.addr(0), 4));
        std::uint32_t prologue = std::min(dist_rows, rows);
        for (std::uint32_t r = 0; r < prologue; ++r) {
            auto pe = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            core::LimaRequest req;
            req.a_base = x.addr(0);
            req.b_base = m.col_idx.addr(0);
            req.start = pb;
            req.end = pe;
            req.target_queue = q;
            co_await api.lima(core, req);
            pb = pe;
        }

        PairedConsumer cons{api, q, m.col_idx.size(), false, 0};
        auto jb = static_cast<std::uint32_t>(co_await core.load(m.row_ptr.addr(0), 4));
        for (std::uint32_t r = 0; r < rows; ++r) {
            if (r + dist_rows < rows) {
                auto pe = static_cast<std::uint32_t>(
                    co_await core.load(m.row_ptr.addr(r + dist_rows + 1), 4));
                core::LimaRequest req;
                req.a_base = x.addr(0);
                req.b_base = m.col_idx.addr(0);
                req.start = pb;
                req.end = pe;
                req.target_queue = q;
                co_await api.lima(core, req);
                pb = pe;
            }
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            float acc = 0.0f;
            for (std::uint32_t j = jb; j < je; ++j) {
                float v = f32FromBits(co_await core.load(m.vals.addr(j), 4));
                float xv = f32FromBits(co_await cons.next(core));
                co_await core.compute(1);
                acc += v * xv;
            }
            co_await core.store(y.addr(r), bitsFromF32(acc), 4);
            jb = je;
        }
    }

    // -----------------------------------------------------------------------
    // Decoupled access/execute through a MAPLE or a shared-memory queue
    // -----------------------------------------------------------------------

    template <typename Channel>
    sim::Task<void>
    access(cpu::Core &core, Channel ch, Slice pair)
    {
        Chunk rs = pair.of(rows);
        auto jb = static_cast<std::uint32_t>(
            co_await core.load(m.row_ptr.addr(rs.begin), 4));
        for (std::uint64_t r = rs.begin; r < rs.end; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            for (std::uint32_t j = jb; j < je; ++j) {
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(m.col_idx.addr(j), 4));
                if constexpr (Channel::kHardwareFetch) {
                    co_await core.compute(1);  // address generation
                    co_await ch.api.producePtr(core, ch.q, x.addr(c));
                } else {
                    // The access core itself performs the IMA -- on this
                    // in-order core the load blocks, which is exactly the
                    // loss of runahead.
                    std::uint64_t xv = co_await core.load(x.addr(c), 4);
                    co_await ch.swq.produce(core, xv);
                }
            }
            jb = je;
        }
    }

    template <typename Channel>
    sim::Task<void>
    execute(cpu::Core &core, Channel ch, Slice pair)
    {
        Chunk rs = pair.of(rows);
        auto jb = static_cast<std::uint32_t>(
            co_await core.load(m.row_ptr.addr(rs.begin), 4));
        for (std::uint64_t r = rs.begin; r < rs.end; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            float acc = 0.0f;
            for (std::uint32_t j = jb; j < je; ++j) {
                float v = f32FromBits(co_await core.load(m.vals.addr(j), 4));
                float xv = f32FromBits(co_await ch.consume(core));
                co_await core.compute(1);
                acc += v * xv;
            }
            co_await core.store(y.addr(r), bitsFromF32(acc), 4);
            jb = je;
        }
    }

    // -----------------------------------------------------------------------
    // DeSC supply/compute
    // -----------------------------------------------------------------------

    sim::Task<void>
    descSupply(sim::EventQueue &eq, cpu::Core &core, DescPair &dp, Slice pair)
    {
        baselines::DescQueue &dq = dp.queue;
        Chunk rs = pair.of(rows);
        auto jb = static_cast<std::uint32_t>(
            co_await core.load(m.row_ptr.addr(rs.begin), 4));
        for (std::uint64_t r = rs.begin; r < rs.end; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            co_await dq.produceValue(core, je - jb);
            for (std::uint32_t j = jb; j < je; ++j) {
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(m.col_idx.addr(j), 4));
                co_await core.compute(1);
                // Terminal loads: the Compute core has no memory visibility,
                // so both the value stream and the IMA go through the queue.
                co_await dq.produceLoad(core, m.vals.addr(j), 4);
                co_await dq.produceLoad(core, x.addr(c), 4);
            }
            // Service Compute-side stores that have accumulated.
            while (co_await dq.drainOneStore(core)) {
            }
            jb = je;
        }
        while (dp.phases_done == 0 || !dq.storeQueueEmpty()) {
            if (!co_await dq.drainOneStore(core))
                co_await sim::delay(eq, 20);
        }
    }

    sim::Task<void>
    descCompute(cpu::Core &core, DescPair &dp, Slice pair)
    {
        Chunk rs = pair.of(rows);
        for (std::uint64_t r = rs.begin; r < rs.end; ++r) {
            auto n = static_cast<std::uint32_t>(co_await dp.queue.consume(core));
            float acc = 0.0f;
            for (std::uint32_t j = 0; j < n; ++j) {
                float v = f32FromBits(co_await dp.queue.consume(core));
                float xv = f32FromBits(co_await dp.queue.consume(core));
                co_await core.compute(1);
                acc += v * xv;
            }
            co_await dp.queue.produceStore(core, y.addr(r), bitsFromF32(acc));
        }
        dp.phases_done = 1;
    }

    /** Validate bitwise against the host golden result. */
    void
    check(RunResult &res) const
    {
        std::vector<float> out = y.download();
        res.valid = true;
        for (std::uint32_t r = 0; r < rows; ++r) {
            res.checksum += bitsFromF32(out[r]);
            if (bitsFromF32(out[r]) != bitsFromF32(host.golden[r]))
                res.valid = false;
        }
    }
};

}  // namespace

std::unique_ptr<Workload>
makeSpmv(std::uint32_t rows, std::uint32_t cols, std::uint32_t nnz_per_row,
         std::uint64_t seed)
{
    return std::make_unique<TechniqueWorkload<SpmvKernels>>("spmv", rows, cols,
                                                            nnz_per_row, seed);
}

}  // namespace maple::app
