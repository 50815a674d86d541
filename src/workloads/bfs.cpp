/**
 * @file
 * Breadth-First Search over an R-MAT graph (CSR adjacency), level-
 * synchronous with shared frontiers.
 *
 * The irregular access is dist[col_idx[j]]: neighbor IDs stream sequentially
 * out of the adjacency list but the distance array is sampled at power-law-
 * scattered offsets. Discovered vertices are appended to the next frontier
 * with an atomic fetch-and-add. A vertex can be appended more than once per
 * level (benign: its distance is already final) -- the same relaxation the
 * paper's OpenMP implementation and MAPLE's non-coherent scratchpad rely on.
 */
#include "sim/sync.hpp"
#include "workloads/technique.hpp"

namespace maple::app {

namespace {

constexpr std::uint32_t kInf = 0xffffffffu;

/** Device-side state for one run, and the kernel of every technique role. */
struct BfsKernels : KernelTraits {
    /** The host graph, its root and the golden distances. */
    struct Host {
        SparseMatrix g;
        std::uint32_t root = 0;
        std::vector<std::uint32_t> golden;

        Host(unsigned scale, unsigned edge_factor, std::uint64_t seed)
            : g(makeRmat(scale, edge_factor, seed))
        {
            // Pick the highest-degree vertex as root (guaranteed non-trivial).
            std::uint32_t best = 0;
            for (std::uint32_t v = 0; v < g.rows; ++v) {
                std::uint32_t deg = g.row_ptr[v + 1] - g.row_ptr[v];
                if (deg > best) {
                    best = deg;
                    root = v;
                }
            }
            // Host golden BFS.
            golden.assign(g.rows, kInf);
            golden[root] = 0;
            std::vector<std::uint32_t> cur{root}, next;
            std::uint32_t level = 0;
            while (!cur.empty()) {
                next.clear();
                for (std::uint32_t u : cur) {
                    for (std::uint32_t j = g.row_ptr[u]; j < g.row_ptr[u + 1]; ++j) {
                        std::uint32_t v = g.col_idx[j];
                        if (golden[v] == kInf) {
                            golden[v] = level + 1;
                            next.push_back(v);
                        }
                    }
                }
                cur.swap(next);
                ++level;
            }
        }
    };

    const Host &host;
    SimCsr g;                       ///< adjacency (no vals)
    SimArray<std::uint32_t> dist;
    SimArray<std::uint32_t> frontier_a, frontier_b;
    sim::Addr next_tail = 0;        ///< shared append counter (atomic)
    std::uint32_t vertices = 0;

    /// Host-shared level state, updated by one bookkeeper between barriers.
    std::uint64_t count = 1;        ///< size of the current frontier
    bool cur_is_a = true;
    std::uint32_t level = 0;
    sim::Barrier bar;

    BfsKernels(os::Process &proc, const Host &h, unsigned workers)
        : host(h), g(SimCsr::upload(proc, h.g, /*with_vals=*/false)),
          dist(proc, h.g.rows, "dist"),
          // The frontier can exceed |V| because of benign duplicate appends.
          frontier_a(proc, size_t(h.g.rows) + h.g.nnz(), "frontier_a"),
          frontier_b(proc, size_t(h.g.rows) + h.g.nnz(), "frontier_b"),
          next_tail(proc.alloc(64, "next_tail")), vertices(h.g.rows), bar(workers)
    {
        std::vector<std::uint32_t> dist_init(h.g.rows, kInf);
        dist_init[h.root] = 0;
        dist.upload(dist_init);
        frontier_a.write(0, h.root);
    }

    DropletBinding droplet() const { return {g.col_idx.addr(0), g.col_idx.size(), dist.addr(0)}; }

    sim::Addr curFrontier(std::uint64_t i) const { return cur_is_a ? frontier_a.addr(i) : frontier_b.addr(i); }
    sim::Addr nextFrontier(std::uint64_t i) const { return cur_is_a ? frontier_b.addr(i) : frontier_a.addr(i); }

    /**
     * Close a level: every worker meets at the barrier, the bookkeeper swaps
     * the frontiers, and all meet again before the next level starts.
     */
    sim::Task<void>
    endLevel(cpu::Core &core, bool bookkeeper)
    {
        co_await bar.wait();
        if (bookkeeper) {
            std::uint64_t produced = co_await core.load(next_tail, 8);
            co_await core.store(next_tail, 0, 8);
            co_await core.storeFence();
            count = produced;
            cur_is_a = !cur_is_a;
            ++level;
        }
        co_await bar.wait();
    }

    /** Mark @p v discovered at the next level and append it to the frontier. */
    sim::Task<void>
    discover(cpu::Core &core, std::uint32_t v)
    {
        co_await core.store(dist.addr(v), level + 1, 4);
        std::uint64_t idx = co_await core.amoAdd(next_tail, 1, 8);
        co_await core.store(nextFrontier(idx), v, 4);
    }

    /**
     * The level-synchronous loop of one worker that updates dist itself:
     * @p fetch supplies the IMA value dist[v] (a plain load, or a consume
     * from the worker's queue). Parameters are taken by value: callers pass
     * temporaries and this coroutine outlives the spawning full-expression.
     */
    template <typename Fetch>
    sim::Task<void>
    levels(cpu::Core &core, Slice w, Fetch fetch, unsigned sw_prefetch_dist)
    {
        while (count > 0) {
            Chunk chunk = w.of(count);
            for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
                auto u = static_cast<std::uint32_t>(co_await core.load(curFrontier(i), 4));
                auto jb = static_cast<std::uint32_t>(co_await core.load(g.row_ptr.addr(u), 4));
                auto je = static_cast<std::uint32_t>(
                    co_await core.load(g.row_ptr.addr(u + 1), 4));
                for (std::uint32_t j = jb; j < je; ++j) {
                    if (sw_prefetch_dist && j + sw_prefetch_dist < je) {
                        auto vd = static_cast<std::uint32_t>(co_await core.load(
                            g.col_idx.addr(j + sw_prefetch_dist), 4));
                        co_await core.compute(4);
                        co_await core.prefetchL1(dist.addr(vd));
                    }
                    auto v = static_cast<std::uint32_t>(
                        co_await core.load(g.col_idx.addr(j), 4));
                    auto dv = static_cast<std::uint32_t>(co_await fetch(core, v));
                    co_await core.compute(1);
                    if (dv == kInf)
                        co_await discover(core, v);
                }
            }
            co_await core.storeFence();  // all appends visible before the swap
            co_await endLevel(core, w.index == 0);
        }
    }

    auto
    loadDist()
    {
        return [this](cpu::Core &c, std::uint32_t v) { return c.load(dist.addr(v), 4); };
    }

    sim::Task<void> doall(cpu::Core &core, Slice t) { return levels(core, t, loadDist(), 0); }

    sim::Task<void>
    swPrefetch(cpu::Core &core, unsigned dist_edges)
    {
        return levels(core, Slice{}, loadDist(), dist_edges);
    }

    // -----------------------------------------------------------------------
    // Decoupling: the Access thread re-walks the same (u, j) sequence and
    // produces the dist stream; regular-pattern data (frontier, row_ptr,
    // col_idx) is loaded from the caches by both threads. The Execute
    // thread runs the level loop on the queue's values.
    // -----------------------------------------------------------------------

    template <typename Channel>
    sim::Task<void>
    access(cpu::Core &core, Channel ch, Slice pair)
    {
        while (count > 0) {
            Chunk chunk = pair.of(count);
            for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
                auto u = static_cast<std::uint32_t>(co_await core.load(curFrontier(i), 4));
                auto jb = static_cast<std::uint32_t>(co_await core.load(g.row_ptr.addr(u), 4));
                auto je = static_cast<std::uint32_t>(
                    co_await core.load(g.row_ptr.addr(u + 1), 4));
                for (std::uint32_t j = jb; j < je; ++j) {
                    auto v = static_cast<std::uint32_t>(
                        co_await core.load(g.col_idx.addr(j), 4));
                    if constexpr (Channel::kHardwareFetch) {
                        co_await core.compute(1);
                        co_await ch.api.producePtr(core, ch.q, dist.addr(v));
                    } else {
                        std::uint64_t dv = co_await core.load(dist.addr(v), 4);
                        co_await ch.swq.produce(core, dv);
                    }
                }
            }
            co_await core.storeFence();
            co_await endLevel(core, false);  // Execute's pair 0 does the bookkeeping
        }
    }

    template <typename Channel>
    sim::Task<void>
    execute(cpu::Core &core, Channel ch, Slice pair)
    {
        return levels(core, pair,
                      [ch](cpu::Core &c, std::uint32_t) { return ch.consume(c); }, 0);
    }

    // -----------------------------------------------------------------------
    // DeSC: Compute has no memory visibility. Supply streams (v, dist[v])
    // pairs through the architectural queue; Compute sends discovered stores
    // back, and Supply performs both the store and the frontier append.
    // Supply cannot start the next level until Compute drains -- the loss of
    // runahead the paper describes for BFS.
    // -----------------------------------------------------------------------

    sim::Task<void>
    descSupply(sim::EventQueue &eq, cpu::Core &core, DescPair &dp, Slice pair)
    {
        baselines::DescQueue &dq = dp.queue;
        while (count > 0) {
            Chunk chunk = pair.of(count);
            std::uint64_t produced_edges = 0;
            for (std::uint64_t i = chunk.begin; i < chunk.end; ++i) {
                auto u = static_cast<std::uint32_t>(co_await core.load(curFrontier(i), 4));
                auto jb = static_cast<std::uint32_t>(co_await core.load(g.row_ptr.addr(u), 4));
                auto je = static_cast<std::uint32_t>(
                    co_await core.load(g.row_ptr.addr(u + 1), 4));
                co_await dq.produceValue(core, je - jb);
                for (std::uint32_t j = jb; j < je; ++j) {
                    auto v = static_cast<std::uint32_t>(
                        co_await core.load(g.col_idx.addr(j), 4));
                    co_await dq.produceValue(core, v);
                    // Loss of decoupling: every prior edge *may* have stored
                    // to dist[] (Compute decides), so sequential semantics
                    // force this terminal load to wait until Compute has
                    // retired all program-order-prior edges and their stores
                    // are performed. This is why DeSC loses its runahead on
                    // BFS (Figure 12) -- MAPLE's software contract (stale
                    // reads are benign, updates commit at the epoch barrier)
                    // removes the constraint.
                    while (dp.items_done < produced_edges) {
                        if (!co_await drainDescStores(core, dq, false))
                            co_await sim::delay(eq, 10);
                    }
                    co_await drainDescStores(core, dq, /*all=*/true);
                    co_await dq.produceLoad(core, dist.addr(v), 4);
                    ++produced_edges;
                }
            }
            co_await dq.produceValue(core, kInf);  // level-end sentinel
            // Serve Compute until it finishes the level (loss of runahead).
            while (dp.phases_done <= level)
                if (!co_await drainDescStores(core, dq, false))
                    co_await sim::delay(eq, 20);
            co_await drainDescStores(core, dq, /*all=*/true);
            co_await core.storeFence();
            co_await endLevel(core, pair.index == 0);
        }
    }

    /** Perform pending Compute stores; dist stores also append the vertex. */
    sim::Task<bool>
    drainDescStores(cpu::Core &core, baselines::DescQueue &dq, bool all)
    {
        bool any = false;
        do {
            auto st = co_await dq.takeStore(core);
            if (!st)
                co_return any;
            any = true;
            co_await core.store(st->first, st->second, 4);
            sim::Addr dist0 = dist.addr(0);
            if (st->first >= dist0 && st->first < dist.addr(vertices)) {
                auto v = static_cast<std::uint32_t>((st->first - dist0) / 4);
                std::uint64_t idx = co_await core.amoAdd(next_tail, 1, 8);
                co_await core.store(nextFrontier(idx), v, 4);
            }
        } while (all);
        co_return any;
    }

    sim::Task<void>
    descCompute(cpu::Core &core, DescPair &dp, Slice /*pair*/)
    {
        while (count > 0) {
            dp.items_done = 0;
            for (;;) {
                std::uint64_t n = co_await dp.queue.consume(core);
                if (n == kInf)
                    break;  // level end
                for (std::uint64_t j = 0; j < n; ++j) {
                    auto v = static_cast<std::uint32_t>(co_await dp.queue.consume(core));
                    auto dv = static_cast<std::uint32_t>(co_await dp.queue.consume(core));
                    co_await core.compute(1);
                    // Discovery: ship the dist store back; Supply performs
                    // it and turns it into a frontier append.
                    if (dv == kInf)
                        co_await dp.queue.produceStore(core, dist.addr(v), level + 1);
                    ++dp.items_done;  // retires the edge (ordering token)
                }
            }
            ++dp.phases_done;
            co_await endLevel(core, false);
        }
    }

    // -----------------------------------------------------------------------
    // LIMA prefetch: one LIMA per frontier vertex, issued dist_v vertices
    // ahead.
    // -----------------------------------------------------------------------

    sim::Task<void>
    lima(cpu::Core &core, core::MapleApi &api, unsigned /*prefetch_distance*/)
    {
        const unsigned q = 0;
        const unsigned dist_v = 4;
        while (count > 0) {
            // Prologue: LIMA for the first dist_v vertices.
            std::uint64_t issued = std::min<std::uint64_t>(dist_v, count);
            std::uint64_t queued_elems = 0;
            for (std::uint64_t i = 0; i < issued; ++i)
                queued_elems += co_await issueLima(core, api, q, i);
            std::uint64_t consumed = 0;

            for (std::uint64_t i = 0; i < count; ++i) {
                if (issued < count) {
                    queued_elems += co_await issueLima(core, api, q, issued);
                    ++issued;
                }
                auto u = static_cast<std::uint32_t>(co_await core.load(curFrontier(i), 4));
                auto jb = static_cast<std::uint32_t>(co_await core.load(g.row_ptr.addr(u), 4));
                auto je = static_cast<std::uint32_t>(
                    co_await core.load(g.row_ptr.addr(u + 1), 4));
                for (std::uint32_t j = jb; j < je; ++j) {
                    auto v = static_cast<std::uint32_t>(
                        co_await core.load(g.col_idx.addr(j), 4));
                    auto dv = static_cast<std::uint32_t>(co_await api.consume(core, q));
                    ++consumed;
                    co_await core.compute(1);
                    if (dv == kInf)
                        co_await discover(core, v);
                }
            }
            MAPLE_ASSERT(consumed == queued_elems, "LIMA stream drift");
            co_await core.storeFence();
            co_await endLevel(core, true);
        }
    }

    /** Issue one LIMA covering frontier vertex @p i's adjacency; returns #edges. */
    sim::Task<std::uint64_t>
    issueLima(cpu::Core &core, core::MapleApi &api, unsigned q, std::uint64_t i)
    {
        auto u = static_cast<std::uint32_t>(co_await core.load(curFrontier(i), 4));
        auto jb = static_cast<std::uint32_t>(co_await core.load(g.row_ptr.addr(u), 4));
        auto je = static_cast<std::uint32_t>(co_await core.load(g.row_ptr.addr(u + 1), 4));
        if (je > jb) {
            core::LimaRequest req;
            req.a_base = dist.addr(0);
            req.b_base = g.col_idx.addr(0);
            req.start = jb;
            req.end = je;
            req.target_queue = q;
            co_await api.lima(core, req);
        }
        co_return je - jb;
    }

    void
    check(RunResult &res) const
    {
        std::vector<std::uint32_t> got = dist.download();
        res.valid = true;
        for (std::uint32_t v = 0; v < vertices; ++v) {
            res.checksum += got[v];
            if (got[v] != host.golden[v])
                res.valid = false;
        }
    }
};

}  // namespace

std::unique_ptr<Workload>
makeBfs(unsigned scale, unsigned edge_factor, std::uint64_t seed)
{
    return std::make_unique<TechniqueWorkload<BfsKernels>>("bfs", scale, edge_factor,
                                                           seed);
}

}  // namespace maple::app
