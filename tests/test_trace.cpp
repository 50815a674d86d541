/**
 * @file
 * Tests for the tracing & telemetry subsystem: Chrome-trace JSON
 * well-formedness, span nesting, probe sampling cadence, stall-attribution
 * consistency with the device counters, and the zero-overhead guarantee
 * (a disabled tracer leaves the simulation bit-identical).
 */
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/maple_runtime.hpp"
#include "soc/soc.hpp"
#include "trace/trace.hpp"

using namespace maple;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: enough to prove well-formedness and walk the trace.
// ---------------------------------------------------------------------------

struct Json {
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json &
    at(const std::string &key) const
    {
        auto it = obj.find(key);
        if (it == obj.end())
            throw std::runtime_error("missing key: " + key);
        return it->second;
    }
    bool has(const std::string &key) const { return obj.count(key) != 0; }
};

class JsonParser {
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    Json
    parse()
    {
        Json v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    Json
    value()
    {
        switch (peek()) {
        case '{': return object();
        case '[': return array();
        case '"': {
            Json v;
            v.kind = Json::String;
            v.str = string();
            return v;
        }
        case 't':
        case 'f': return boolean();
        case 'n': return null();
        default: return number();
        }
    }

    Json
    object()
    {
        expect('{');
        Json v;
        v.kind = Json::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            std::string key = string();
            expect(':');
            v.obj.emplace(std::move(key), value());
            char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}'");
        }
    }

    Json
    array()
    {
        expect('[');
        Json v;
        v.kind = Json::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.arr.push_back(value());
            char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']'");
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c == '\\') {
                if (pos_ >= s_.size())
                    fail("bad escape");
                char e = s_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u':
                    if (pos_ + 4 > s_.size())
                        fail("bad \\u escape");
                    pos_ += 4;  // decoded value irrelevant for these tests
                    out += '?';
                    break;
                default: fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
    }

    Json
    number()
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        Json v;
        v.kind = Json::Number;
        v.num = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    Json
    boolean()
    {
        Json v;
        v.kind = Json::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.b = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    Json
    null()
    {
        if (s_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return Json{};
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

Json
dumpAndParse(const trace::TraceManager &t)
{
    std::ostringstream os;
    t.writeJson(os);
    return JsonParser(os.str()).parse();
}

/**
 * Check that all complete ("X") events on every track are properly nested:
 * two spans on one track either do not overlap or one contains the other.
 */
void
expectProperNesting(const Json &root)
{
    struct Iv {
        double ts, end;
        std::string name;
    };
    std::map<int, std::vector<Iv>> per_track;
    for (const Json &ev : root.at("traceEvents").arr) {
        if (ev.at("ph").str != "X")
            continue;
        double ts = ev.at("ts").num;
        double dur = ev.at("dur").num;
        ASSERT_GE(dur, 0.0);
        per_track[int(ev.at("tid").num)].push_back(
            {ts, ts + dur, ev.at("name").str});
    }
    for (auto &[tid, ivs] : per_track) {
        std::sort(ivs.begin(), ivs.end(), [](const Iv &a, const Iv &b) {
            return a.ts != b.ts ? a.ts < b.ts : a.end > b.end;
        });
        std::vector<double> open;  // stack of enclosing span ends
        for (const Iv &iv : ivs) {
            while (!open.empty() && open.back() <= iv.ts)
                open.pop_back();
            if (!open.empty()) {
                ASSERT_LE(iv.end, open.back())
                    << "span '" << iv.name << "' on track " << tid
                    << " straddles its enclosing span";
            }
            open.push_back(iv.end);
        }
    }
}

// ---------------------------------------------------------------------------
// A small decoupled gather, the quickstart loop at test scale.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kN = 768;

sim::Task<void>
accessThread(cpu::Core &core, core::MapleApi &api, sim::Addr a, sim::Addr b)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t idx = co_await core.load(b + 4 * i, 4);
        co_await api.producePtr(core, 0, a + 4 * idx);
    }
}

sim::Task<void>
executeThread(cpu::Core &core, core::MapleApi &api, sim::Addr out)
{
    for (std::uint32_t i = 0; i < kN; ++i) {
        std::uint64_t v = co_await api.consume(core, 0);
        co_await core.store(out + 4 * i, v, 4);
    }
}

struct DecoupledResult {
    sim::Cycle cycles = 0;
    std::uint64_t events = 0;
};

/** Run the gather on a fresh SoC; @p body sees the SoC after the run. */
DecoupledResult
runDecoupled(const trace::TraceConfig &tcfg,
             const std::function<void(soc::Soc &)> &body = {})
{
    soc::SocConfig cfg = soc::SocConfig::fpga();
    cfg.trace = tcfg;
    soc::Soc soc(cfg);
    os::Process &proc = soc.createProcess("trace-test");
    sim::Addr a = proc.alloc(kN * 4, "A");
    sim::Addr b = proc.alloc(kN * 4, "B");
    sim::Addr out = proc.alloc(kN * 4, "out");
    for (std::uint32_t i = 0; i < kN; ++i) {
        proc.writeScalar<std::uint32_t>(a + 4 * i, i);
        proc.writeScalar<std::uint32_t>(b + 4 * i, (i * 2654435761u) % kN);
    }
    core::MapleApi api = core::MapleApi::attach(proc, soc.maple());
    auto setup = [&](cpu::Core &c) -> sim::Task<void> {
        co_await api.init(c, 1, 16, 4);
        bool ok = co_await api.open(c, 0);
        MAPLE_ASSERT(ok, "queue open failed");
    };
    soc.run({sim::spawn(setup(soc.core(0)))});

    DecoupledResult r;
    r.cycles = soc.run({sim::spawn(accessThread(soc.core(0), api, a, b)),
                        sim::spawn(executeThread(soc.core(1), api, out))});
    r.events = soc.eq().executed();
    if (body)
        body(soc);
    return r;
}

trace::TraceConfig
quietTracing(sim::Cycle interval = 500)
{
    trace::TraceConfig t;
    t.enabled = true;
    t.sample_interval = interval;
    t.report_to_stderr = false;  // keep test output clean
    return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceManager unit tests (no SoC).
// ---------------------------------------------------------------------------

TEST(Trace, SpansNestAndExportWellFormedJson)
{
    sim::EventQueue eq;
    trace::TraceManager t(eq, quietTracing());

    auto track = t.track("agent");
    auto lanes = t.laneGroup("pool");

    auto worker = [&]() -> sim::Task<void> {
        t.begin(track, "outer", trace::Category::Core);
        co_await sim::delay(eq, 5);
        t.begin(track, "inner", trace::Category::Mem);
        t.instant(track, "marker", trace::Category::Os);
        co_await sim::delay(eq, 5);
        t.end(track);
        t.complete(track, "tail", trace::Category::Core, eq.now() - 3);
        co_await sim::delay(eq, 2);
        t.end(track);
    };
    auto laneUser = [&](sim::Cycle d) -> sim::Task<void> {
        trace::LaneSpan span(&t, lanes, "op", trace::Category::Maple);
        co_await sim::delay(eq, d);
    };
    sim::spawn(worker());
    sim::spawn(laneUser(7));
    sim::spawn(laneUser(4));  // concurrent: must land on a second lane
    eq.run();

    EXPECT_EQ(t.eventCount(), 6u);  // outer, inner, tail, marker, 2x op
    Json root = dumpAndParse(t);
    expectProperNesting(root);

    // The two concurrent lane spans got distinct tracks of the same group.
    std::map<std::string, int> track_names;
    int span_tracks = 0;
    for (const Json &ev : root.at("traceEvents").arr) {
        if (ev.at("ph").str == "M")
            track_names[ev.at("args").at("name").str]++;
        if (ev.at("ph").str == "X" && ev.at("name").str == "op")
            ++span_tracks;
    }
    EXPECT_EQ(track_names.count("pool"), 1u);
    EXPECT_EQ(track_names.count("pool#1"), 1u);
    EXPECT_EQ(span_tracks, 2);
}

TEST(Trace, ProbesSampleOnTheConfiguredCadence)
{
    sim::EventQueue eq;
    trace::TraceManager t(eq, quietTracing(/*interval=*/100));
    t.addProbe("now", [&] { return double(eq.now()); });
    // Cumulative counters pass a million; ratios need every digit.
    t.addProbe("big", [&] { return 8473620.0 + double(eq.now()); });
    t.addProbe("third", [] { return 1.0 / 3.0; });

    auto ticker = [&]() -> sim::Task<void> {
        for (int i = 0; i < 10; ++i)
            co_await sim::delay(eq, 73);  // deliberately off-cadence
    };
    sim::spawn(ticker());
    eq.run();

    // 730 cycles of activity at interval 100 -> samples at 100, 200, ... 700.
    EXPECT_EQ(t.sampleRows(), 7u);
    Json root = dumpAndParse(t);
    std::vector<double> ts;
    for (const Json &ev : root.at("traceEvents").arr) {
        if (ev.at("ph").str == "C" && ev.at("name").str == "now")
            ts.push_back(ev.at("ts").num);
    }
    ASSERT_EQ(ts.size(), 7u);
    for (std::size_t i = 0; i < ts.size(); ++i)
        EXPECT_EQ(ts[i], 100.0 * double(i + 1));

    // The CSV mirrors the same rows.
    std::ostringstream csv;
    t.writeCsv(csv);
    std::istringstream in(csv.str());
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "cycle,now,big,third");
    // Sampling piggybacks on event execution: the sample for cycle 100 is
    // taken when time advances past it (the event at 146), so the probe sees
    // the machine state that was in effect throughout the (73, 146) gap.
    // Integers print exactly, fractions in a form that reads back bit-equal.
    std::getline(in, line);
    ASSERT_EQ(line.rfind("100,146,8473766,", 0), 0u) << line;
    EXPECT_EQ(std::stod(line.substr(line.rfind(',') + 1)), 1.0 / 3.0) << line;
}

TEST(Trace, SamplingNeverSchedulesEvents)
{
    // Identical workload with and without an attached tracer: the event
    // count and final time must match exactly (the tracer only observes).
    auto run = [](bool traced) {
        sim::EventQueue eq;
        std::unique_ptr<trace::TraceManager> t;
        if (traced) {
            t = std::make_unique<trace::TraceManager>(eq, quietTracing(50));
            t->addProbe("x", [] { return 1.0; });
        }
        auto ticker = [&]() -> sim::Task<void> {
            for (int i = 0; i < 20; ++i)
                co_await sim::delay(eq, 37);
        };
        sim::spawn(ticker());
        eq.run();
        return std::pair<sim::Cycle, std::uint64_t>(eq.now(), eq.executed());
    };
    EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Full-SoC tests.
// ---------------------------------------------------------------------------

TEST(Trace, DecoupledRunEmitsAllThreePipelinesAndTimeSeries)
{
    runDecoupled(quietTracing(), [](soc::Soc &soc) {
        trace::TraceManager *t = soc.tracer();
        ASSERT_NE(t, nullptr);
        Json root = dumpAndParse(*t);
        expectProperNesting(root);

        std::map<std::string, int> spans;
        std::map<std::string, int> counters;
        std::map<std::string, int> tracks;
        for (const Json &ev : root.at("traceEvents").arr) {
            const std::string &ph = ev.at("ph").str;
            if (ph == "X")
                spans[ev.at("name").str]++;
            else if (ph == "C")
                counters[ev.at("name").str]++;
            else if (ph == "M")
                tracks[ev.at("args").at("name").str]++;
        }
        // All three MAPLE pipelines produced spans...
        EXPECT_EQ(spans["produce_ptr"], int(kN));
        EXPECT_EQ(spans["consume"], int(kN));
        EXPECT_GE(spans["config_load"], 1);  // the OPEN
        // ...on lane groups named after the device pipelines.
        EXPECT_EQ(tracks.count("maple.0.produce"), 1u);
        EXPECT_EQ(tracks.count("maple.0.consume"), 1u);
        EXPECT_EQ(tracks.count("maple.0.config"), 1u);
        // Core and cache activity shows up too.
        EXPECT_GE(spans["load"], int(kN));
        EXPECT_GE(spans["miss"], 1);
        // At least one time-series probe sampled at least once.
        EXPECT_GE(t->sampleRows(), 1u);
        EXPECT_GE(counters["maple.0.q0.occupancy"], 1);

        // Top-level report blocks are present and well-formed.
        EXPECT_TRUE(root.at("stallAttribution").has("queue_full"));
        EXPECT_EQ(root.at("metadata").at("droppedEvents").num, 0.0);
    });
}

TEST(Trace, StallAttributionMatchesDeviceCounters)
{
    runDecoupled(quietTracing(), [](soc::Soc &soc) {
        trace::TraceManager *t = soc.tracer();
        ASSERT_NE(t, nullptr);
        core::Maple &dev = soc.maple();
        // The queue-full / queue-empty buckets are instrumented at the same
        // sites as the device's architectural stall counters: they must
        // agree exactly.
        EXPECT_EQ(t->stallCycles(trace::StallCause::QueueFull),
                  dev.counter(core::Counter::FullStallCycles));
        EXPECT_EQ(t->stallCycles(trace::StallCause::QueueEmpty),
                  dev.counter(core::Counter::EmptyStallCycles));
        // The 16-entry queue against a 768-element gather guarantees both
        // full-queue and DRAM wait time; the report must reflect that.
        EXPECT_GT(t->stallCycles(trace::StallCause::QueueFull), 0u);
        EXPECT_GT(t->stallCycles(trace::StallCause::Dram), 0u);
        EXPECT_NE(t->stallReport().find("queue_full"), std::string::npos);
    });
}

TEST(Trace, DisabledTracingIsBitIdentical)
{
    trace::TraceConfig off;  // default: disabled
    DecoupledResult plain = runDecoupled(off);

    DecoupledResult traced = runDecoupled(quietTracing(), [](soc::Soc &soc) {
        ASSERT_NE(soc.tracer(), nullptr);
        EXPECT_GT(soc.tracer()->eventCount(), 0u);
    });

    // Tracing must not perturb the simulation: same cycle count, same number
    // of executed events.
    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.events, traced.events);

    // And with no tracer attached, nothing is recorded anywhere (the
    // instrumentation fast path short-circuits on the null tracer).
    DecoupledResult disabled = runDecoupled(off, [](soc::Soc &soc) {
        EXPECT_EQ(soc.tracer(), nullptr);
    });
    EXPECT_EQ(disabled.cycles, plain.cycles);
}
