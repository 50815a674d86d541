#include "harness/stats_io.hpp"

#include "harness/figures.hpp"
#include "harness/host_perf.hpp"
#include "sim/frame_pool.hpp"

namespace maple::harness {

json::Value
statsToJson(const sim::StatGroup &g)
{
    json::Object counters;
    for (const auto &[name, c] : g.counters())
        counters.emplace_back(name, json::Value(c.value()));

    json::Object averages;
    for (const auto &[name, a] : g.averages()) {
        json::Object v;
        v.emplace_back("mean", json::Value(a.mean()));
        v.emplace_back("count", json::Value(a.count()));
        v.emplace_back("min", json::Value(a.min()));
        v.emplace_back("max", json::Value(a.max()));
        averages.emplace_back(name, json::Value(std::move(v)));
    }

    json::Object histograms;
    for (const auto &[name, h] : g.histograms()) {
        json::Array buckets;
        for (std::uint64_t b : h.buckets())
            buckets.push_back(json::Value(b));
        json::Object v;
        v.emplace_back("total", json::Value(h.total()));
        v.emplace_back("max", json::Value(h.maxSample()));
        v.emplace_back("p50", json::Value(h.percentile(0.50)));
        v.emplace_back("p99", json::Value(h.percentile(0.99)));
        v.emplace_back("buckets", json::Value(std::move(buckets)));
        histograms.emplace_back(name, json::Value(std::move(v)));
    }

    json::Object out;
    out.emplace_back("name", json::Value(g.name()));
    out.emplace_back("counters", json::Value(std::move(counters)));
    out.emplace_back("averages", json::Value(std::move(averages)));
    out.emplace_back("histograms", json::Value(std::move(histograms)));
    return json::Value(std::move(out));
}

json::Value
runResultToJson(const app::RunResult &r)
{
    json::Object o;
    o.emplace_back("workload", json::Value(r.workload));
    o.emplace_back("technique", json::Value(r.technique));
    o.emplace_back("cycles", json::Value(r.cycles));
    o.emplace_back("checksum", json::Value(r.checksum));
    o.emplace_back("valid", json::Value(r.valid));
    o.emplace_back("fell_back_to_doall", json::Value(r.fell_back_to_doall));
    o.emplace_back("instructions", json::Value(r.instructions));
    o.emplace_back("loads", json::Value(r.loads));
    o.emplace_back("stores", json::Value(r.stores));
    o.emplace_back("mean_load_latency", json::Value(r.mean_load_latency));
    o.emplace_back("sim_events", json::Value(r.sim_events));
    return json::Value(std::move(o));
}

app::RunResult
runResultFromJson(const json::Value &v)
{
    MAPLE_CHECK(v.isObject(), json::JsonError, "run result is not an object");
    app::RunResult r;
    r.workload = v.getString("workload", "");
    r.technique = v.getString("technique", "");
    r.cycles = static_cast<sim::Cycle>(v.getInt("cycles", 0));
    r.checksum = static_cast<std::uint64_t>(v.getInt("checksum", 0));
    r.valid = v.getBool("valid", false);
    r.fell_back_to_doall = v.getBool("fell_back_to_doall", false);
    r.instructions = static_cast<std::uint64_t>(v.getInt("instructions", 0));
    r.loads = static_cast<std::uint64_t>(v.getInt("loads", 0));
    r.stores = static_cast<std::uint64_t>(v.getInt("stores", 0));
    r.mean_load_latency = v.getDouble("mean_load_latency", 0.0);
    r.sim_events = static_cast<std::uint64_t>(v.getInt("sim_events", 0));
    return r;
}

json::Value
hostPerfToJson(const std::vector<PerfSample> &samples,
               const std::string &bench_name, bool quick)
{
    json::Array benchmarks;
    bool counted_allocs = false;
    for (const PerfSample &s : samples) {
        json::Object b;
        b.emplace_back("name", json::Value(s.name));
        b.emplace_back("threads", json::Value(s.threads));
        b.emplace_back("events", json::Value(s.events));
        b.emplace_back("sim_cycles", json::Value(s.sim_cycles));
        b.emplace_back("host_seconds", json::Value(s.host_seconds));
        b.emplace_back("events_per_sec", json::Value(s.eventsPerSec()));
        if (s.allocs) {
            counted_allocs = true;
            b.emplace_back("allocs", json::Value(*s.allocs));
            b.emplace_back("allocs_per_event", json::Value(s.allocsPerEvent()));
        }
        benchmarks.push_back(json::Value(std::move(b)));
    }
    json::Object o;
    o.emplace_back("bench", json::Value(bench_name));
    o.emplace_back("quick", json::Value(quick));
    if (counted_allocs)
        o.emplace_back("frame_pool", json::Value(sim::FramePool::kEnabled));
    o.emplace_back("benchmarks", json::Value(std::move(benchmarks)));
    return json::Value(std::move(o));
}

json::Value
gridToJson(const Grid &grid)
{
    json::Array cells;
    for (const auto &[key, cell] : grid.cells())
        cells.push_back(runResultToJson(cell.result));
    json::Object o;
    o.emplace_back("cells", json::Value(std::move(cells)));
    return json::Value(std::move(o));
}

}  // namespace maple::harness
