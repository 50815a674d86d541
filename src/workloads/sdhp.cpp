/**
 * @file
 * Sparse-Dense Hadamard Product: out[j] = svals[j] * dense[r * C + col[j]]
 * for every nonzero j of sparse row r.
 *
 * The dense matrix is sampled at the sparse matrix's nonzero positions, so
 * the dense accesses are irregular (the IMA) while svals/col_idx/out stream
 * sequentially. Unlike SPMV there is no reduction -- each element produces
 * one store -- which makes the kernel even more memory-bound.
 */
#include "workloads/technique.hpp"

namespace maple::app {

namespace {

/** Device-side state for one run, and the kernel of every technique role. */
struct SdhpKernels : KernelTraits {
    /** The host dataset and its golden result. */
    struct Host {
        SparseMatrix m;
        std::vector<float> dense;
        std::vector<float> golden;

        Host(std::uint32_t rows, std::uint32_t cols, std::uint32_t nnz_per_row,
             std::uint64_t seed)
            : m(makeSkewedSparse(rows, cols, nnz_per_row, seed, 5.0)),
              dense(makeDenseVector(std::uint64_t(rows) * cols, seed ^ 0xfeed))
        {
            golden.resize(m.nnz());
            for (std::uint32_t r = 0; r < rows; ++r)
                for (std::uint32_t j = m.row_ptr[r]; j < m.row_ptr[r + 1]; ++j)
                    golden[j] = m.vals[j] * dense[std::uint64_t(r) * cols + m.col_idx[j]];
        }
    };

    const Host &host;
    SimCsr m;
    SimArray<float> dense;  ///< rows x cols, row-major
    SimArray<float> out;    ///< nnz results
    std::uint32_t rows, cols;

    SdhpKernels(os::Process &proc, const Host &h, unsigned /*workers*/)
        : host(h), m(SimCsr::upload(proc, h.m, true)),
          dense(proc, h.dense.size(), "dense"), out(proc, h.m.nnz(), "out"),
          rows(h.m.rows), cols(h.m.cols)
    {
        dense.upload(h.dense);
    }

    sim::Addr denseAddr(std::uint64_t r, std::uint32_t c) const { return dense.addr(r * cols + c); }

    /**
     * DROPLET registers one (index, data) physical pair; the Hadamard
     * product's data base moves with the sparse row, which region-based
     * registration cannot express -- the prefetcher covers row 0's slice
     * only (a real limitation of region-bound indirect prefetchers).
     */
    DropletBinding droplet() const { return {m.col_idx.addr(0), m.col_idx.size(), dense.addr(0)}; }

    sim::Task<void>
    doall(cpu::Core &core, Slice t)
    {
        Chunk rs = t.of(rows);
        auto jb = static_cast<std::uint32_t>(
            co_await core.load(m.row_ptr.addr(rs.begin), 4));
        for (std::uint64_t r = rs.begin; r < rs.end; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            for (std::uint32_t j = jb; j < je; ++j) {
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(m.col_idx.addr(j), 4));
                float v = f32FromBits(co_await core.load(m.vals.addr(j), 4));
                float d = f32FromBits(co_await core.load(denseAddr(r, c), 4));
                co_await core.compute(1);
                co_await core.store(out.addr(j), bitsFromF32(v * d), 4);
            }
            jb = je;
        }
    }

    sim::Task<void>
    swPrefetch(cpu::Core &core, unsigned dist)
    {
        auto jb = static_cast<std::uint32_t>(co_await core.load(m.row_ptr.addr(0), 4));
        for (std::uint64_t r = 0; r < rows; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            for (std::uint32_t j = jb; j < je; ++j) {
                if (j + dist < je) {  // same-row prefetch: the row base differs
                    auto cd = static_cast<std::uint32_t>(
                        co_await core.load(m.col_idx.addr(j + dist), 4));
                    co_await core.compute(4);
                    co_await core.prefetchL1(denseAddr(r, cd));
                }
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(m.col_idx.addr(j), 4));
                float v = f32FromBits(co_await core.load(m.vals.addr(j), 4));
                float d = f32FromBits(co_await core.load(denseAddr(r, c), 4));
                co_await core.compute(1);
                co_await core.store(out.addr(j), bitsFromF32(v * d), 4);
            }
            jb = je;
        }
    }

    sim::Task<void>
    lima(cpu::Core &core, core::MapleApi &api, unsigned /*prefetch_distance*/)
    {
        // One LIMA per row (the row selects the dense-matrix base), launched
        // one row ahead of consumption so fetches overlap the current row's
        // work.
        const unsigned q = 0;
        auto pb = static_cast<std::uint32_t>(co_await core.load(m.row_ptr.addr(0), 4));
        std::uint32_t pe0 = static_cast<std::uint32_t>(
            co_await core.load(m.row_ptr.addr(1), 4));
        core::LimaRequest req;
        req.b_base = m.col_idx.addr(0);
        req.a_base = denseAddr(0, 0);
        req.start = pb;
        req.end = pe0;
        req.target_queue = q;
        co_await api.lima(core, req);

        PairedConsumer cons{api, q, m.col_idx.size(), false, 0};
        auto jb = pb;
        std::uint32_t next_b = pe0;
        for (std::uint32_t r = 0; r < rows; ++r) {
            if (r + 1 < rows) {
                auto ne = static_cast<std::uint32_t>(
                    co_await core.load(m.row_ptr.addr(r + 2), 4));
                req.a_base = denseAddr(r + 1, 0);
                req.start = next_b;
                req.end = ne;
                co_await api.lima(core, req);
                next_b = ne;
            }
            auto je = static_cast<std::uint32_t>(
                co_await core.load(m.row_ptr.addr(r + 1), 4));
            for (std::uint32_t j = jb; j < je; ++j) {
                float v = f32FromBits(co_await core.load(m.vals.addr(j), 4));
                float d = f32FromBits(co_await cons.next(core));
                co_await core.compute(1);
                co_await core.store(out.addr(j), bitsFromF32(v * d), 4);
            }
            jb = je;
        }
    }

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
                    co_await core.compute(1);
                    co_await ch.api.producePtr(core, ch.q, denseAddr(r, c));
                } else {
                    std::uint64_t d = co_await core.load(denseAddr(r, c), 4);
                    co_await ch.swq.produce(core, d);
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
            for (std::uint32_t j = jb; j < je; ++j) {
                float v = f32FromBits(co_await core.load(m.vals.addr(j), 4));
                float d = f32FromBits(co_await ch.consume(core));
                co_await core.compute(1);
                co_await core.store(out.addr(j), bitsFromF32(v * d), 4);
            }
            jb = je;
        }
    }

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
            co_await dq.produceValue(core, (std::uint64_t(je - jb) << 32) | jb);
            for (std::uint32_t j = jb; j < je; ++j) {
                auto c = static_cast<std::uint32_t>(
                    co_await core.load(m.col_idx.addr(j), 4));
                co_await core.compute(1);
                co_await dq.produceLoad(core, m.vals.addr(j), 4);
                co_await dq.produceLoad(core, denseAddr(r, c), 4);
            }
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
            std::uint64_t hdr = co_await dp.queue.consume(core);
            auto n = static_cast<std::uint32_t>(hdr >> 32);
            auto jb = static_cast<std::uint32_t>(hdr & 0xffffffffu);
            for (std::uint32_t k = 0; k < n; ++k) {
                float v = f32FromBits(co_await dp.queue.consume(core));
                float d = f32FromBits(co_await dp.queue.consume(core));
                co_await core.compute(1);
                co_await dp.queue.produceStore(core, out.addr(jb + k), bitsFromF32(v * d));
            }
        }
        dp.phases_done = 1;
    }

    void
    check(RunResult &res) const
    {
        std::vector<float> got = out.download();
        res.valid = true;
        for (size_t j = 0; j < host.golden.size(); ++j) {
            res.checksum += bitsFromF32(got[j]);
            if (bitsFromF32(got[j]) != bitsFromF32(host.golden[j]))
                res.valid = false;
        }
    }
};

}  // namespace

std::unique_ptr<Workload>
makeSdhp(std::uint32_t rows, std::uint32_t cols, std::uint32_t nnz_per_row,
         std::uint64_t seed)
{
    return std::make_unique<TechniqueWorkload<SdhpKernels>>("sdhp", rows, cols,
                                                            nnz_per_row, seed);
}

}  // namespace maple::app
