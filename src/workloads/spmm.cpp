/**
 * @file
 * Sparse Matrix-Matrix multiplication, layer-wise (Mofrad et al., HPEC'19):
 * Y = A * W with A, W sparse (CSR) and Y a dense accumulator.
 *
 * For each nonzero a = A[r][k], the kernel walks W's row k and accumulates
 * Y[r][c] += a * W[k][c]. The indirect accesses are read-modify-writes on Y
 * (and the indirect W row-pointer lookups), so -- as the paper observes --
 * the kernel *cannot be decoupled*: the decoupling techniques fall back to
 * doall parallelism. Prefetching still applies: LIMA speculatively pushes
 * the Y[r][W.col[t]] lines into the LLC ahead of the RMW burst.
 */
#include "workloads/technique.hpp"

namespace maple::app {

namespace {

/** Device-side state for one run, and the kernel of every technique role. */
struct SpmmKernels : KernelTraits {
    // RMW accumulation defeats decoupling: the compiler pass falls back to
    // doall for those techniques (keeping the same thread count).
    static constexpr bool kDecouples = false;
    // LIMA speculatively prefetches into the LLC: no queue to open.
    static constexpr unsigned kLimaQueues = 0;

    /** The host dataset and its golden result. */
    struct Host {
        SparseMatrix a, w;
        std::vector<float> golden;

        Host(std::uint32_t dim, std::uint32_t nnz_per_row, std::uint64_t seed)
            : a(makeUniformSparse(dim, dim, nnz_per_row, seed)),
              w(makeUniformSparse(dim, dim, nnz_per_row, seed ^ 0xbeef))
        {
            golden.assign(std::uint64_t(dim) * dim, 0.0f);
            for (std::uint32_t r = 0; r < dim; ++r) {
                for (std::uint32_t j = a.row_ptr[r]; j < a.row_ptr[r + 1]; ++j) {
                    std::uint32_t k = a.col_idx[j];
                    float av = a.vals[j];
                    for (std::uint32_t t = w.row_ptr[k]; t < w.row_ptr[k + 1]; ++t)
                        golden[std::uint64_t(r) * dim + w.col_idx[t]] += av * w.vals[t];
                }
            }
        }
    };

    const Host &host;
    SimCsr a;
    SimCsr w;
    SimArray<float> y;  ///< dim x dim dense accumulator
    std::uint32_t dim;

    SpmmKernels(os::Process &proc, const Host &h, unsigned /*workers*/)
        : host(h), a(SimCsr::upload(proc, h.a, true)),
          w(SimCsr::upload(proc, h.w, true)), y(proc, h.golden.size(), "y"),
          dim(h.a.rows)
    {
    }

    sim::Addr yAddr(std::uint64_t r, std::uint32_t c) const { return y.addr(r * dim + c); }

    /** Index chain A.col -> W.row_ptr: prefetch the W row bounds. */
    DropletBinding droplet() const { return {a.col_idx.addr(0), a.col_idx.size(), w.row_ptr.addr(0)}; }

    sim::Task<void> doall(cpu::Core &core, Slice t) { return rowsOf(core, t.of(dim), 0); }

    sim::Task<void>
    swPrefetch(cpu::Core &core, unsigned dist)
    {
        return rowsOf(core, Chunk{0, dim}, std::max(2u, dist / 2));
    }

    /** Inner kernel for one A-row range; optionally software-prefetching. */
    sim::Task<void>
    rowsOf(cpu::Core &core, Chunk rows, unsigned sw_prefetch_dist)
    {
        auto jb = static_cast<std::uint32_t>(
            co_await core.load(a.row_ptr.addr(rows.begin), 4));
        for (std::uint64_t r = rows.begin; r < rows.end; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(a.row_ptr.addr(r + 1), 4));
            for (std::uint32_t j = jb; j < je; ++j) {
                auto k = static_cast<std::uint32_t>(
                    co_await core.load(a.col_idx.addr(j), 4));
                float av = f32FromBits(co_await core.load(a.vals.addr(j), 4));
                // Indirect row-pointer lookups into W.
                auto wb = static_cast<std::uint32_t>(
                    co_await core.load(w.row_ptr.addr(k), 4));
                auto we = static_cast<std::uint32_t>(
                    co_await core.load(w.row_ptr.addr(k + 1), 4));
                for (std::uint32_t t = wb; t < we; ++t) {
                    if (sw_prefetch_dist && t + sw_prefetch_dist < we) {
                        auto cd = static_cast<std::uint32_t>(co_await core.load(
                            w.col_idx.addr(t + sw_prefetch_dist), 4));
                        co_await core.compute(2);
                        co_await core.prefetchL1(yAddr(r, cd));
                    }
                    auto c = static_cast<std::uint32_t>(
                        co_await core.load(w.col_idx.addr(t), 4));
                    float wv = f32FromBits(co_await core.load(w.vals.addr(t), 4));
                    // Read-modify-write on the dense accumulator: this is the
                    // dependence that defeats decoupling.
                    float yv = f32FromBits(co_await core.load(yAddr(r, c), 4));
                    co_await core.compute(1);
                    co_await core.store(yAddr(r, c), bitsFromF32(yv + av * wv), 4);
                }
            }
            jb = je;
        }
    }

    /** LIMA variant: speculative LLC prefetch of the Y lines of each W row. */
    sim::Task<void>
    lima(cpu::Core &core, core::MapleApi &api, unsigned /*prefetch_distance*/)
    {
        auto jb = static_cast<std::uint32_t>(co_await core.load(a.row_ptr.addr(0), 4));
        for (std::uint32_t r = 0; r < dim; ++r) {
            auto je = static_cast<std::uint32_t>(
                co_await core.load(a.row_ptr.addr(r + 1), 4));
            for (std::uint32_t j = jb; j < je; ++j) {
                auto k = static_cast<std::uint32_t>(
                    co_await core.load(a.col_idx.addr(j), 4));
                float av = f32FromBits(co_await core.load(a.vals.addr(j), 4));
                auto wb = static_cast<std::uint32_t>(
                    co_await core.load(w.row_ptr.addr(k), 4));
                auto we = static_cast<std::uint32_t>(
                    co_await core.load(w.row_ptr.addr(k + 1), 4));
                // One LIMA call covers the whole burst of Y[r][W.col[t]] RMWs.
                if (we > wb) {
                    core::LimaRequest req;
                    req.a_base = yAddr(r, 0);
                    req.b_base = w.col_idx.addr(0);
                    req.start = wb;
                    req.end = we;
                    req.speculative = true;
                    co_await api.lima(core, req);
                }
                for (std::uint32_t t = wb; t < we; ++t) {
                    auto c = static_cast<std::uint32_t>(
                        co_await core.load(w.col_idx.addr(t), 4));
                    float wv = f32FromBits(co_await core.load(w.vals.addr(t), 4));
                    float yv = f32FromBits(co_await core.load(yAddr(r, c), 4));
                    co_await core.compute(1);
                    co_await core.store(yAddr(r, c), bitsFromF32(yv + av * wv), 4);
                }
            }
            jb = je;
        }
    }

    void
    check(RunResult &res) const
    {
        std::vector<float> got = y.download();
        res.valid = true;
        for (size_t i = 0; i < host.golden.size(); ++i) {
            res.checksum += bitsFromF32(got[i]);
            if (bitsFromF32(got[i]) != bitsFromF32(host.golden[i]))
                res.valid = false;
        }
    }
};

}  // namespace

std::unique_ptr<Workload>
makeSpmm(std::uint32_t dim, std::uint32_t nnz_per_row, std::uint64_t seed)
{
    return std::make_unique<TechniqueWorkload<SpmmKernels>>("spmm", dim, nnz_per_row,
                                                            seed);
}

}  // namespace maple::app
